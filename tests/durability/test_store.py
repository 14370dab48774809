"""Unit tests for :class:`DurableStore`: journaled mutations, kill-window
recovery at every persistence fault point, quarantine, GC on disk, and
directories left by the older layout with a lineage ``MANIFEST``."""

from __future__ import annotations

import pytest

from repro.data.io import read_warehouse_entry, warehouse_entry_text
from repro.data.patterns import CondensedPatternSet, PatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.durability import DurableStore, chain_record_text, record_from_node
from repro.durability.journal import (
    OP_DROP,
    OP_LINK,
    WriteAheadJournal,
    format_record,
)
from repro.errors import InjectedFaultError
from repro.resilience import PERSIST_RENAME, PERSIST_WRITE, FaultInjector
from repro.service import PatternWarehouse


def condensed_patterns():
    patterns = PatternSet({(1,): 4, (2,): 3, (1, 2): 3})
    return CondensedPatternSet.condense(patterns, 3, "closed")


def build_chain():
    db = TransactionDatabase([[1, 2, 3], [1, 2], [2, 3], [1, 3]])
    v0 = VersionedDatabase(db)
    v1 = v0.apply(DatabaseDelta(appends=((1, 4),)))
    v2 = v1.apply(DatabaseDelta(appends=((2, 4),)))
    return v0, v1, v2


class TestHappyPath:
    def test_entry_write_lands_and_reloads(self, tmp_path):
        store = DurableStore(tmp_path)
        store.write_entry("f" * 64, 3, condensed_patterns())
        condensed, _full = read_warehouse_entry(store.entry_path("f" * 64, 3))
        assert condensed.as_dict() == condensed_patterns().as_dict()
        # Both journal lines landed; nothing is pending on reload.
        assert DurableStore(tmp_path).recover(apply=False).journal_replays == 0

    def test_links_and_chains_survive_restart(self, tmp_path):
        v0, v1, v2 = build_chain()
        store = DurableStore(tmp_path)
        for node in (v1, v2):
            store.record_link(node)
        # One chain file per hop, and nothing else besides the journal.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chains", "journal.log"]
        assert len(list((tmp_path / "chains").iterdir())) == 2
        reopened = DurableStore(tmp_path)
        report = reopened.recover()
        assert report.recovered_chains == 2
        assert reopened.chain_records() == store.chain_records()
        restored = reopened.restore_version(v2.db)
        assert restored is not None
        assert restored.fingerprint() == v2.fingerprint()
        assert restored.parent.parent.fingerprint() == v0.fingerprint()

    def test_record_link_skips_held_and_unchanged_hops(self, tmp_path):
        _, v1, _ = build_chain()
        store = DurableStore(tmp_path)
        store.record_link(v1)
        journal = store.journal.size_bytes()
        store.record_link(v1)
        store.record_link(v1.apply(DatabaseDelta()))  # empty delta: self hop
        assert store.journal.size_bytes() == journal
        assert list(store.chain_records()) == [v1.fingerprint()]

    def test_memory_only_store_records_no_hops(self):
        _, v1, _ = build_chain()
        store = DurableStore(None)
        store.record_link(v1)
        assert store.chain_records() == {}

    def test_journal_compacts_once_it_grows(self, tmp_path):
        store = DurableStore(tmp_path)
        for i in range(3):
            store.write_entry(f"{i:064x}", 2, condensed_patterns())
        # Far under the compaction threshold: history retained.
        assert store.journal.size_bytes() > 0


class TestKillWindows:
    def test_kill_mid_journal_append_leaves_torn_tail(self, tmp_path):
        faults = FaultInjector().inject(PERSIST_WRITE, on_calls=(1,))
        store = DurableStore(tmp_path, faults)
        with pytest.raises(InjectedFaultError):
            store.write_entry("a" * 64, 2, condensed_patterns())
        # The mutation never started: no target file, and recovery
        # drops exactly one torn line.
        assert not store.entry_path("a" * 64, 2).exists()
        report = DurableStore(tmp_path).recover()
        assert report.torn_journal_lines == 1
        assert report.journal_replays == 0

    def test_kill_before_rename_keeps_old_state_and_sweeps_tmp(self, tmp_path):
        store = DurableStore(tmp_path)
        store.write_entry("a" * 64, 2, condensed_patterns())
        before = store.entry_path("a" * 64, 2).read_text()
        faults = FaultInjector().inject(PERSIST_RENAME, on_calls=(1,))
        dying = DurableStore(tmp_path, faults)
        with pytest.raises(InjectedFaultError):
            dying.write_entry("a" * 64, 2, condensed_patterns())
        # Old state intact, never torn.
        assert store.entry_path("a" * 64, 2).read_text() == before
        report = DurableStore(tmp_path).recover()
        assert report.stray_tmp_removed == 1
        assert list(tmp_path.glob("*.tmp")) == []

    def test_pending_drop_is_replayed(self, tmp_path):
        store = DurableStore(tmp_path)
        store.write_entry("a" * 64, 2, condensed_patterns())
        # Simulate a crash between the drop's begin and the unlink: append
        # the begin record by hand, as the dying process would have.
        journal = WriteAheadJournal(tmp_path / "journal.log")
        name = store.entry_path("a" * 64, 2).name
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write(format_record(99, "begin", OP_DROP, {"file": name}))
        report = DurableStore(tmp_path).recover()
        assert report.journal_replays == 1
        assert not store.entry_path("a" * 64, 2).exists()

    def test_audit_mode_never_mutates(self, tmp_path):
        faults = FaultInjector().inject(PERSIST_RENAME, on_calls=(1,))
        dying = DurableStore(tmp_path, faults)
        with pytest.raises(InjectedFaultError):
            dying.write_entry("a" * 64, 2, condensed_patterns())
        stray = list(tmp_path.glob("*.tmp"))
        assert len(stray) == 1
        report = DurableStore(tmp_path).recover(apply=False)
        assert report.stray_tmp_removed == 0
        assert list(tmp_path.glob("*.tmp")) == stray


class TestQuarantine:
    def test_corrupt_chain_file_is_quarantined(self, tmp_path):
        _, v1, _ = build_chain()
        store = DurableStore(tmp_path)
        record = record_from_node(v1)
        store.write_chain(record)
        path = store.chain_path(record.child)
        path.write_text(path.read_text()[:-6])
        reopened = DurableStore(tmp_path)
        report = reopened.recover()
        assert report.recovered_chains == 0
        assert [name for name, _ in report.quarantined] == [path.name]
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).exists()


class TestGC:
    def test_dead_links_and_chain_files_are_dropped(self, tmp_path):
        _, v1, v2 = build_chain()
        store = DurableStore(tmp_path)
        for node in (v1, v2):
            store.record_link(node)
        report = store.gc(warehoused=set())
        assert report.dropped_chains == 2
        assert store.chain_records() == {}
        assert list((tmp_path / "chains").glob("*.chain")) == []

    def test_compaction_rewires_past_unwarehoused_hop(self, tmp_path):
        v0, v1, v2 = build_chain()
        store = DurableStore(tmp_path)
        for node in (v1, v2):
            store.record_link(node)
        report = store.gc(warehoused={v0.fingerprint()})
        assert report.collapsed_hops == 1
        assert report.rewritten_chains == 1
        assert store.chain_records()[v2.fingerprint()].parent == v0.fingerprint()
        # The composed record still restores v2 straight to v0 — even
        # after another restart re-reads everything from disk.
        reopened = DurableStore(tmp_path)
        reopened.recover()
        restored = reopened.restore_version(v2.db)
        assert restored is not None
        assert restored.parent.fingerprint() == v0.fingerprint()

    def test_dry_run_plans_without_touching_disk(self, tmp_path):
        _, v1, v2 = build_chain()
        store = DurableStore(tmp_path)
        for node in (v1, v2):
            store.record_link(node)
        report = store.gc(warehoused=set(), dry_run=True)
        assert report.dry_run
        assert report.dropped_chains == 2
        assert len(store.chain_records()) == 2
        assert len(list((tmp_path / "chains").glob("*.chain"))) == 2


class TestOlderLayout:
    """A directory written by the layout that also kept a lineage
    ``MANIFEST`` and journaled ``link`` records loads like one without."""

    def write_files(self, directory, v1, v2):
        """Entry and chain files, identical in both layouts."""
        (directory / "chains").mkdir(parents=True)
        for node in (v1, v2):
            record = record_from_node(node)
            (directory / "chains" / f"{record.child}.chain").write_text(
                chain_record_text(record)
            )
        (directory / f"{v1.fingerprint()}-3.patterns").write_text(
            warehouse_entry_text(condensed_patterns())
        )

    def test_manifest_and_link_records_are_ignored(self, tmp_path):
        v0, v1, v2 = build_chain()
        old, clean = tmp_path / "old", tmp_path / "clean"
        self.write_files(old, v1, v2)
        self.write_files(clean, v1, v2)
        # The older layout's lineage manifest, with a distance no int
        # holds: its loader raised OverflowError on this file.
        (old / "MANIFEST").write_text(
            '{"format": 1, "lineage": {"%s": ["%s", null, 1e999]}}'
            % (v2.fingerprint(), v1.fingerprint())
        )
        lines = []
        for seq, node in enumerate((v1, v2), start=1):
            payload = {
                "child": node.fingerprint(),
                "parent": node.parent.fingerprint(),
                "delta": node.delta_fingerprint,
                "distance": node.delta.size,
            }
            lines.append(format_record(seq, "begin", OP_LINK, payload))
            lines.append(format_record(seq, "commit", OP_LINK, {}))
        lines.append(
            format_record(3, "begin", OP_LINK, {"child": "c" * 64, "parent": "p" * 64})
        )
        (old / "journal.log").write_text("".join(lines))

        store = DurableStore(old)
        report = store.recover()
        assert report.quarantined == []
        assert report.torn_journal_lines == 0
        assert report.journal_replays == 0  # a link record replays as a no-op
        reference = DurableStore(clean)
        expected = reference.recover()
        assert [e[:2] for e in report.entries] == [e[:2] for e in expected.entries]
        assert store.chain_records() == reference.chain_records()
        restored = store.restore_version(v2.db)
        assert restored.fingerprint() == v2.fingerprint()
        assert [n.fingerprint() for n in restored.chain()] == [
            n.fingerprint() for n in reference.restore_version(v2.db).chain()
        ]
        # The leftover MANIFEST stays where it was, uncounted.
        assert (old / "MANIFEST").exists()
        assert store.footprint_bytes() == reference.footprint_bytes()
        warehouse = PatternWarehouse(directory=old)
        assert warehouse.stats()["chain_records"] == 2

