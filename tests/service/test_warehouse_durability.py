"""Warehouse-level durability: restart recovery, chain-record hygiene on
evict/quarantine, persisted chains, fsyncs per hop, and the GC
entry point."""

from __future__ import annotations

import os
import stat
import sys
from concurrent.futures import ThreadPoolExecutor

from repro.data.synthetic import QuestParams, quest_database
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.mining.hmine import mine_hmine
from repro.service import MiningService, PatternWarehouse
from repro.storage.disk import patterns_byte_size


def make_db(seed: int = 0) -> TransactionDatabase:
    return quest_database(
        QuestParams(n_transactions=60, n_items=20, avg_transaction_length=5),
        seed=seed,
    )


def build_chain(db: TransactionDatabase):
    v0 = VersionedDatabase(db)
    v1 = v0.apply(DatabaseDelta(appends=((1, 2, 3),)))
    v2 = v1.apply(DatabaseDelta(appends=((2, 4),)))
    return v0, v1, v2


def seed_warehouse(directory, db):
    """Warehouse with v0 mined and the v0→v1→v2 chain persisted."""
    v0, v1, v2 = build_chain(db)
    warehouse = PatternWarehouse(directory=directory)
    warehouse.put(v0.fingerprint(), 6, mine_hmine(db, 6))
    warehouse.record_version(v2)
    return warehouse, (v0, v1, v2)


class TestRestartRecovery:
    def test_entries_links_and_chains_survive_restart(self, tmp_path):
        db = make_db()
        _, (v0, v1, v2) = seed_warehouse(tmp_path, db)
        reopened = PatternWarehouse(directory=tmp_path)
        assert reopened.recovered_entries == 1
        assert reopened.recovery_report.recovered_chains == 2
        assert reopened.get(v0.fingerprint(), 6) == mine_hmine(db, 6)
        # The restored chain still routes a request at v2 to v0's
        # warehoused patterns two hops up.
        restored = reopened.restore_version(v2.db)
        hit = reopened.ancestor_feedstock(v2.fingerprint(), 6, restored.lineage())
        assert hit is not None
        assert hit.fingerprint == v0.fingerprint()
        assert hit.distance > 0

    def test_restored_version_is_fingerprint_identical(self, tmp_path):
        db = make_db()
        _, (v0, v1, v2) = seed_warehouse(tmp_path, db)
        reopened = PatternWarehouse(directory=tmp_path)
        restored = reopened.restore_version(v2.db)
        assert restored is not None
        assert restored.fingerprint() == v2.fingerprint()
        assert restored.parent.fingerprint() == v1.fingerprint()
        assert restored.parent.parent.fingerprint() == v0.fingerprint()
        assert restored.next_tid == v2.next_tid

    def test_memory_only_warehouse_has_no_durability(self):
        warehouse = PatternWarehouse()
        assert warehouse.restore_version(make_db()) is None
        assert warehouse.recovery_report is None

    def test_memory_only_warehouse_routes_lineage_without_chains(self):
        db = make_db()
        v0, _v1, v2 = build_chain(db)
        warehouse = PatternWarehouse()
        warehouse.put(v0.fingerprint(), 6, mine_hmine(db, 6))
        warehouse.record_version(v2)
        assert warehouse.stats()["chain_records"] == 0
        assert warehouse.restore_version(v2.db) is None
        hit = warehouse.ancestor_feedstock(v2.fingerprint(), 6, v2.lineage())
        assert hit is not None and hit.fingerprint == v0.fingerprint()

    def test_stats_carry_the_durability_gauges(self, tmp_path):
        db = make_db()
        seed_warehouse(tmp_path, db)
        stats = PatternWarehouse(directory=tmp_path).stats()
        for key in (
            "chain_records",
            "recovered_entries",
            "recovered_chains",
            "gc_dropped_chains",
            "gc_collapsed_hops",
        ):
            assert key in stats, key
        assert stats["recovered_entries"] == 1
        assert stats["recovered_chains"] == 2


class TestLineageHygiene:
    def test_eviction_keeps_links_other_entries_justify(self, tmp_path):
        db = make_db()
        v0, _v1, v2 = build_chain(db)
        at_6, at_10 = mine_hmine(db, 6), mine_hmine(db, 10)
        # Room for both v0 entries: a third put evicts the older one.
        warehouse = PatternWarehouse(
            directory=tmp_path,
            representation="full",
            byte_budget=patterns_byte_size(at_6) + patterns_byte_size(at_10),
        )
        warehouse.put(v0.fingerprint(), 6, at_6)
        warehouse.put(v0.fingerprint(), 10, at_10)
        warehouse.record_version(v2)
        warehouse.put("b" * 64, 10, at_10)
        assert warehouse.evictions == 1
        assert (v0.fingerprint(), 6) not in warehouse
        # A second support level at v0 keeps the ancestor warehoused.
        assert warehouse.stats()["chain_records"] == 2

    def test_eviction_is_lineage_aware(self, tmp_path):
        db = make_db()
        warehouse, (v0, v1, v2) = seed_warehouse(tmp_path, db)
        entry_bytes = warehouse.stored_bytes()
        # Shrink the budget by putting a fresh fingerprint large enough
        # to evict v0's entry (LRU: v0 is oldest).
        small = PatternWarehouse(
            directory=tmp_path, byte_budget=entry_bytes + 1
        )
        assert small.stats()["chain_records"] == 2
        small.put("b" * 64, 6, mine_hmine(db, 6))
        assert small.evictions >= 1
        assert (v0.fingerprint(), 6) not in small
        # The evicted ancestor took its dead chain records with it.
        assert small.stats()["chain_records"] == 0

    def test_reload_evictions_keep_chains_of_later_files(self, tmp_path):
        # Files load in filename order; the two entries that sort before
        # the chain's warehoused ancestor are evicted on reopen, and the
        # chain records must be judged against every loaded entry, not
        # only the ones loaded before the eviction.
        db = make_db()
        warehouse, (v0, _v1, v2) = seed_warehouse(tmp_path, db)
        entry_bytes = warehouse.stored_bytes()
        early = ("0" * 64, "0" * 63 + "1")
        assert all(fp < v0.fingerprint() for fp in early)
        for fp in early:
            warehouse.put(fp, 6, mine_hmine(db, 6))
        reopened = PatternWarehouse(
            directory=tmp_path, byte_budget=entry_bytes + 1, representation="full"
        )
        assert reopened.evictions == 2
        assert reopened.keys() == [(v0.fingerprint(), 6)]
        assert reopened.stats()["chain_records"] == 2
        restored = reopened.restore_version(v2.db)
        assert restored is not None
        assert restored.fingerprint() == v2.fingerprint()
        hit = reopened.ancestor_feedstock(v2.fingerprint(), 6, restored.lineage())
        assert hit is not None and hit.fingerprint == v0.fingerprint()

    def test_audit_mode_evicts_and_prunes_in_memory_only(self, tmp_path):
        # Inspection (repair_on_load=False) sees what a repairing load
        # sees, but neither the load-time eviction nor the chain pruning
        # that follows it may touch the directory.
        db = make_db()
        warehouse, (v0, _v1, _v2) = seed_warehouse(tmp_path, db)
        warehouse.put("f" * 64, 6, mine_hmine(db, 6))
        entry_bytes = patterns_byte_size(mine_hmine(db, 6))
        files = {
            path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()
        }
        audit = PatternWarehouse(
            directory=tmp_path,
            byte_budget=entry_bytes + 1,
            representation="full",
            repair_on_load=False,
        )
        assert audit.evictions == 1
        assert audit.keys() == [("f" * 64, 6)]
        assert audit.stats()["chain_records"] == 0
        audit.put("e" * 64, 6, mine_hmine(db, 6))
        assert {
            path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()
        } == files

    def test_quarantine_at_load_prunes_lineage(self, tmp_path):
        db = make_db()
        warehouse, (v0, _v1, v2) = seed_warehouse(tmp_path, db)
        path = tmp_path / f"{v0.fingerprint()}-6.patterns"
        path.write_text(path.read_text()[:-8])
        reopened = PatternWarehouse(directory=tmp_path)
        assert reopened.has_quarantined(v0.fingerprint())
        assert reopened.stats()["chain_records"] == 0
        assert reopened.restore_version(v2.db) is None


class TestWarehouseGC:
    def test_gc_compacts_and_counts(self, tmp_path):
        db = make_db()
        warehouse, (v0, v1, v2) = seed_warehouse(tmp_path, db)
        report = warehouse.gc()
        assert report.collapsed_hops == 1
        assert warehouse.gc_collapsed_hops == 1
        # v2 now restores straight to v0, one hop, and routes there.
        restored = warehouse.restore_version(v2.db)
        assert restored.parent.fingerprint() == v0.fingerprint()
        hit = warehouse.ancestor_feedstock(v2.fingerprint(), 6, restored.lineage())
        assert hit is not None and hit.fingerprint == v0.fingerprint()

    def test_gc_dry_run_mutates_nothing(self, tmp_path):
        db = make_db()
        warehouse, (v0, v1, v2) = seed_warehouse(tmp_path, db)
        report = warehouse.gc(dry_run=True)
        assert report.dry_run and report.collapsed_hops == 1
        assert warehouse.gc_collapsed_hops == 0
        # The chain still restores two hops (nothing was rewritten).
        restored = warehouse.restore_version(v2.db)
        assert restored.parent.fingerprint() == v1.fingerprint()

    def test_memory_only_gc_has_nothing_to_prune(self):
        db = make_db()
        _v0, _v1, v2 = build_chain(db)
        warehouse = PatternWarehouse()
        warehouse.record_version(v2)
        report = warehouse.gc()
        assert (report.dropped_chains, report.collapsed_hops) == (0, 0)


class TestFsyncsPerHop:
    """Every durable mutation is one fsync: a file's for a write, the
    directory's for a deletion. Each count is True for a directory."""

    def count_fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync

        def fsync(fd):
            calls.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return calls

    def test_put_fsyncs_once(self, tmp_path, monkeypatch):
        db = make_db()
        warehouse = PatternWarehouse(directory=tmp_path)
        fsyncs = self.count_fsyncs(monkeypatch)
        assert warehouse.put(db.fingerprint(), 6, mine_hmine(db, 6))
        assert fsyncs == [False]

    def test_eviction_fsyncs_the_directory_once(self, tmp_path, monkeypatch):
        db = make_db()
        patterns = mine_hmine(db, 6)
        # Room for one full entry: the second put evicts the first.
        warehouse = PatternWarehouse(
            directory=tmp_path,
            representation="full",
            byte_budget=patterns_byte_size(patterns) + 1,
        )
        warehouse.put(db.fingerprint(), 6, patterns)
        fsyncs = self.count_fsyncs(monkeypatch)
        warehouse.put("f" * 64, 6, patterns)
        assert warehouse.evictions == 1
        assert fsyncs == [True, False]  # the eviction, then the put
        assert [p.name for p in tmp_path.glob("*.patterns")] == [
            f"{'f' * 64}-6.patterns"
        ]

    def test_apply_delta_fsyncs_once_per_journal_line_and_chain_file(
        self, tmp_path, monkeypatch
    ):
        db = make_db()
        v0 = VersionedDatabase(db)
        with MiningService(warehouse=PatternWarehouse(directory=tmp_path)) as service:
            fsyncs = self.count_fsyncs(monkeypatch)
            v1 = service.apply_delta(v0, DatabaseDelta(appends=((1, 2, 3),)))
            # The chain file; no journal line is written.
            assert len(fsyncs) == 1
            service.register_version(v1)
            assert len(fsyncs) == 1


def test_concurrent_lineage_records_lose_nothing(tmp_path):
    """The chain records live in the store, behind its own lock: chains
    recorded from many threads at once all land, in memory and on
    disk."""
    warehouse = PatternWarehouse(directory=tmp_path)
    threads, per_thread = 8, 10

    def record(thread: int) -> None:
        version = VersionedDatabase(TransactionDatabase([[thread]]))
        for i in range(per_thread):
            version = version.apply(DatabaseDelta(appends=((thread, i),)))
            warehouse.record_version(version)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(threads) as pool:
            for future in [pool.submit(record, t) for t in range(threads)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert warehouse.stats()["chain_records"] == threads * per_thread
    reopened = PatternWarehouse(directory=tmp_path)
    assert reopened.stats()["chain_records"] == threads * per_thread
