"""Unit tests for :class:`DurableStore`: atomic mutations and their
fsyncs, kill-window recovery at every persistence fault point,
quarantine, GC on disk, and directories left by older layouts with a
lineage ``MANIFEST`` or a write-ahead ``journal.log``."""

from __future__ import annotations

import hashlib
import json
import os
import stat

import pytest

from repro.data.io import read_warehouse_entry, warehouse_entry_text
from repro.data.patterns import CondensedPatternSet, PatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.durability import DurableStore, chain_record_text, record_from_node
from repro.errors import InjectedFaultError
from repro.resilience import PERSIST_RENAME, PERSIST_WRITE, FaultInjector
from repro.service import PatternWarehouse


def condensed_patterns():
    patterns = PatternSet({(1,): 4, (2,): 3, (1, 2): 3})
    return CondensedPatternSet.condense(patterns, 3, "closed")


def count_fsyncs(monkeypatch):
    """Record every ``os.fsync`` as True for a directory, False for a file."""
    calls = []
    real = os.fsync

    def fsync(fd):
        calls.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


def old_journal_line(seq, phase, op, payload):
    """One line of the write-ahead journal an older layout kept."""
    payload_json = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    head = f"{seq}\t{phase}\t{op}\t{payload_json}"
    return f"{head}\t{hashlib.sha256(head.encode()).hexdigest()}\n"


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
        reloaded = DurableStore(tmp_path).recover(apply=False).entries
        assert [(fp, c.as_dict()) for fp, c, _ in reloaded] == [
            ("f" * 64, condensed_patterns().as_dict())
        ]

    def test_each_mutation_is_one_fsync(self, tmp_path, monkeypatch):
        _, v1, _ = build_chain()
        store = DurableStore(tmp_path)
        fsyncs = count_fsyncs(monkeypatch)
        store.write_entry("a" * 64, 2, condensed_patterns())
        assert fsyncs == [False]  # the entry's temp file
        store.record_link(v1)
        assert fsyncs == [False, False]  # the chain record's temp file

    def test_remove_entry_fsyncs_the_directory_once(self, tmp_path, monkeypatch):
        store = DurableStore(tmp_path)
        store.write_entry("a" * 64, 2, condensed_patterns())
        fsyncs = count_fsyncs(monkeypatch)
        store.remove_entry("a" * 64, 2)
        assert fsyncs == [True]
        assert not store.entry_path("a" * 64, 2).exists()
        # Removing what is already gone still makes the directory durable.
        store.remove_entry("a" * 64, 2)
        assert fsyncs == [True, True]

    def test_links_and_chains_survive_restart(self, tmp_path):
        v0, v1, v2 = build_chain()
        store = DurableStore(tmp_path)
        for node in (v1, v2):
            store.record_link(node)
        # One chain file per hop, and nothing else.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chains"]
        assert len(list((tmp_path / "chains").iterdir())) == 2
        reopened = DurableStore(tmp_path)
        report = reopened.recover()
        assert report.recovered_chains == 2
        assert reopened.chain_records() == store.chain_records()
        restored = reopened.restore_version(v2.db)
        assert restored is not None
        assert restored.fingerprint() == v2.fingerprint()
        assert restored.parent.parent.fingerprint() == v0.fingerprint()

    def test_record_link_skips_held_and_unchanged_hops(self, tmp_path, monkeypatch):
        _, v1, _ = build_chain()
        store = DurableStore(tmp_path)
        store.record_link(v1)
        fsyncs = count_fsyncs(monkeypatch)
        store.record_link(v1)
        store.record_link(v1.apply(DatabaseDelta()))  # empty delta: self hop
        assert fsyncs == []
        assert list(store.chain_records()) == [v1.fingerprint()]

    def test_memory_only_store_records_no_hops(self):
        _, v1, _ = build_chain()
        store = DurableStore(None)
        store.record_link(v1)
        assert store.chain_records() == {}


class TestKillWindows:
    def test_kill_mid_temp_write_leaves_no_target(self, tmp_path):
        faults = FaultInjector().inject(PERSIST_WRITE, on_calls=(1,))
        store = DurableStore(tmp_path, faults)
        with pytest.raises(InjectedFaultError):
            store.write_entry("a" * 64, 2, condensed_patterns())
        # Half the payload sits in a temp file; the target never appeared.
        assert not store.entry_path("a" * 64, 2).exists()
        assert len(list(tmp_path.glob("*.tmp"))) == 1
        report = DurableStore(tmp_path).recover()
        assert report.stray_tmp_removed == 1
        assert report.entries == [] and report.quarantined == []

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
    """A directory written by a layout that also kept a lineage
    ``MANIFEST``, or a write-ahead ``journal.log`` bracketing every
    mutation, loads like one without: both files are left in place and
    never read or counted."""

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
            lines.append(old_journal_line(seq, "begin", "link", payload))
            lines.append(old_journal_line(seq, "commit", "link", {}))
        lines.append(
            old_journal_line(3, "begin", "link", {"child": "c" * 64, "parent": "p" * 64})
        )
        (old / "journal.log").write_text("".join(lines))

        store = DurableStore(old)
        report = store.recover()
        assert report.quarantined == []
        reference = DurableStore(clean)
        expected = reference.recover()
        assert [e[:2] for e in report.entries] == [e[:2] for e in expected.entries]
        assert store.chain_records() == reference.chain_records()
        restored = store.restore_version(v2.db)
        assert restored.fingerprint() == v2.fingerprint()
        assert [n.fingerprint() for n in restored.chain()] == [
            n.fingerprint() for n in reference.restore_version(v2.db).chain()
        ]
        # The leftover MANIFEST and journal stay where they were, uncounted.
        assert (old / "MANIFEST").exists()
        assert (old / "journal.log").read_text() == "".join(lines)
        assert store.footprint_bytes() == reference.footprint_bytes()
        warehouse = PatternWarehouse(directory=old)
        assert warehouse.stats()["chain_records"] == 2

    def test_pending_journal_deletions_are_not_replayed(self, tmp_path):
        # An older process killed after a drop's and a GC's begin lines,
        # before their unlinks, and mid-way through a third line. Each
        # file a pending line names is complete and checksummed, so it
        # loads: the state before the deletion.
        _, v1, v2 = build_chain()
        self.write_files(tmp_path, v1, v2)
        entry = f"{v1.fingerprint()}-3.patterns"
        journal = "".join([
            old_journal_line(1, "begin", "drop", {"file": entry}),
            old_journal_line(2, "begin", "gc", {"drop": [v2.fingerprint()]}),
            old_journal_line(3, "begin", "put", {"file": entry})[:20],
        ])
        (tmp_path / "journal.log").write_text(journal)
        store = DurableStore(tmp_path)
        report = store.recover()
        assert report.quarantined == []
        assert [fingerprint for fingerprint, _, _ in report.entries] == [
            v1.fingerprint()
        ]
        assert set(store.chain_records()) == {v1.fingerprint(), v2.fingerprint()}
        assert (tmp_path / "journal.log").read_text() == journal

