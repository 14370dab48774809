"""Warehouse-level durability: restart recovery, lineage hygiene on
drop/evict/quarantine, persisted chains, and the GC entry point."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.data.synthetic import QuestParams, quest_database
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.mining.hmine import mine_hmine
from repro.service import PatternWarehouse


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
        # The lineage registry recovered: a request at v2 still routes
        # to v0's warehoused patterns two hops up.
        hit = reopened.ancestor_feedstock(v2.fingerprint(), 6)
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
        hit = warehouse.ancestor_feedstock(v2.fingerprint(), 6)
        assert hit is not None and hit.fingerprint == v0.fingerprint()

    @pytest.mark.parametrize(
        "manifest", ["[]", '"x"', '{"format": 1, "lineage": []}']
    )
    def test_non_object_manifest_is_quarantined(self, tmp_path, manifest):
        db = make_db()
        warehouse = PatternWarehouse(directory=tmp_path)
        warehouse.put(db.fingerprint(), 6, mine_hmine(db, 6))
        warehouse.record_lineage("c" * 64, db.fingerprint(), None, 1)
        (tmp_path / "MANIFEST").write_text(manifest)
        reopened = PatternWarehouse(directory=tmp_path)
        assert [name for name, _ in reopened.recovery_report.quarantined] == [
            "MANIFEST"
        ]
        assert (tmp_path / "quarantine" / "MANIFEST").exists()
        assert reopened.stats()["lineage_links"] == 0
        assert reopened.get(db.fingerprint(), 6) == mine_hmine(db, 6)

    def test_stats_carry_the_durability_gauges(self, tmp_path):
        db = make_db()
        seed_warehouse(tmp_path, db)
        stats = PatternWarehouse(directory=tmp_path).stats()
        for key in (
            "chain_records",
            "recovered_entries",
            "recovered_chains",
            "journal_replays",
            "gc_dropped_links",
            "gc_collapsed_hops",
        ):
            assert key in stats, key
        assert stats["recovered_entries"] == 1
        assert stats["recovered_chains"] == 2


class TestLineageHygiene:
    def test_drop_entry_cleans_dangling_lineage(self, tmp_path):
        # Regression (satellite 1): dropping the only warehoused entry a
        # chain routes to used to leave the links dangling forever.
        db = make_db()
        warehouse, (v0, v1, v2) = seed_warehouse(tmp_path, db)
        # lineage_of is self-first; a pruned child walks nowhere past itself.
        assert len(warehouse.lineage_of(v2.fingerprint())) == 3
        assert warehouse.drop_entry(v0.fingerprint(), 6)
        assert len(warehouse.lineage_of(v2.fingerprint())) == 1
        assert len(warehouse.lineage_of(v1.fingerprint())) == 1
        assert warehouse.gc_dropped_links == 2
        # And the dead chain files went with the links.
        assert warehouse.stats()["chain_records"] == 0
        assert list((tmp_path / "chains").glob("*.chain")) == []

    def test_drop_entry_keeps_links_other_entries_justify(self, tmp_path):
        db = make_db()
        warehouse, (v0, v1, v2) = seed_warehouse(tmp_path, db)
        # A second support level at v0 keeps the ancestor warehoused.
        warehouse.put(v0.fingerprint(), 10, mine_hmine(db, 10))
        warehouse.drop_entry(v0.fingerprint(), 6)
        assert len(warehouse.lineage_of(v2.fingerprint())) == 3

    def test_eviction_is_lineage_aware(self, tmp_path):
        db = make_db()
        warehouse, (v0, v1, v2) = seed_warehouse(tmp_path, db)
        entry_bytes = warehouse.stored_bytes()
        # Shrink the budget by putting a fresh fingerprint large enough
        # to evict v0's entry (LRU: v0 is oldest).
        small = PatternWarehouse(
            directory=tmp_path, byte_budget=entry_bytes + 1
        )
        assert len(small.lineage_of(v2.fingerprint())) == 3
        small.put("b" * 64, 6, mine_hmine(db, 6))
        assert small.evictions >= 1
        assert (v0.fingerprint(), 6) not in small
        # The evicted ancestor took its dead links with it.
        assert len(small.lineage_of(v2.fingerprint())) == 1

    def test_quarantine_at_load_prunes_lineage(self, tmp_path):
        db = make_db()
        warehouse, (v0, _v1, v2) = seed_warehouse(tmp_path, db)
        path = tmp_path / f"{v0.fingerprint()}-6.patterns"
        path.write_text(path.read_text()[:-8])
        reopened = PatternWarehouse(directory=tmp_path)
        assert reopened.has_quarantined(v0.fingerprint())
        assert len(reopened.lineage_of(v2.fingerprint())) == 1


class TestWarehouseGC:
    def test_gc_compacts_and_counts(self, tmp_path):
        db = make_db()
        warehouse, (v0, v1, v2) = seed_warehouse(tmp_path, db)
        report = warehouse.gc()
        assert report.collapsed_hops == 1
        assert warehouse.gc_collapsed_hops == 1
        # v2 now routes to v0 in one hop.
        hit = warehouse.ancestor_feedstock(v2.fingerprint(), 6)
        assert hit is not None and hit.fingerprint == v0.fingerprint()

    def test_gc_dry_run_mutates_nothing(self, tmp_path):
        db = make_db()
        warehouse, (v0, v1, v2) = seed_warehouse(tmp_path, db)
        report = warehouse.gc(dry_run=True)
        assert report.dry_run and report.collapsed_hops == 1
        assert warehouse.gc_collapsed_hops == 0
        # The registry still walks two hops (nothing was rewritten).
        assert warehouse.lineage_of(v2.fingerprint())[1][0] == v1.fingerprint()

    def test_memory_only_gc_prunes_links(self):
        warehouse = PatternWarehouse()
        warehouse.record_lineage("c" * 64, "p" * 64, None, 1)
        report = warehouse.gc()
        assert report.dropped_links == 1
        assert len(warehouse.lineage_of("c" * 64)) == 1


def test_concurrent_lineage_records_lose_nothing(tmp_path):
    """The one lineage registry lives in the store, behind its own lock:
    links recorded from many threads at once all land, in memory and in
    the manifest."""
    warehouse = PatternWarehouse(directory=tmp_path)
    threads, per_thread = 8, 20

    def record(thread: int) -> None:
        for i in range(per_thread):
            child = f"{thread:02d}{i:062d}"
            warehouse.record_lineage(child, "p" * 64, None, 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(threads) as pool:
            for future in [pool.submit(record, t) for t in range(threads)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert warehouse.stats()["lineage_links"] == threads * per_thread
    reopened = PatternWarehouse(directory=tmp_path)
    assert reopened.stats()["lineage_links"] == threads * per_thread
