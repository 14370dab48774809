"""Service restart acceptance: a restarted :class:`MiningService` over a
persisted warehouse+chain directory keeps serving the update path.

This is the tentpole end-to-end shape: mine v0, advance the chain by a
delta *without* mining the new version, kill every live object, rebuild
the service from the directory alone, and ask for the post-delta
database with **no version attached** — the request must be served via
the planner's update path (not a scratch mine), with patterns identical
to a fault-free scratch mine. The chain only appends, so the update is an
FUP patch, which needs the ancestor's database rebuilt from the chain
records.
"""

from __future__ import annotations

from repro.data.synthetic import QuestParams, quest_database
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.mining.hmine import mine_hmine
from repro.service import MineRequest, MiningService, PatternWarehouse

SUPPORT = 8


def make_db(seed: int = 1) -> TransactionDatabase:
    return quest_database(
        QuestParams(n_transactions=80, n_items=25, avg_transaction_length=5),
        seed=seed,
    )


def persist_generation(directory, db):
    """One pre-crash service generation; returns the version two
    insert-only deltas past the mined one."""
    warehouse = PatternWarehouse(directory=directory)
    with MiningService(warehouse=warehouse) as service:
        v0 = VersionedDatabase(db)
        response = service.execute(
            MineRequest(db=db, support=SUPPORT, version=v0)
        )
        assert response.path == "mine"
        v1 = service.apply_delta(
            v0, DatabaseDelta(appends=(tuple(range(1, 5)), (2, 5)))
        )
        v2 = service.apply_delta(v1, DatabaseDelta(appends=((1, 3, 6),)))
    return v2


def test_restarted_service_serves_update_path_without_remining(tmp_path):
    db = make_db()
    v2 = persist_generation(tmp_path, db)
    expected = mine_hmine(v2.db, SUPPORT)

    # --- restart: nothing survives but the directory -------------------
    warehouse = PatternWarehouse(directory=tmp_path)
    with MiningService(warehouse=warehouse) as service:
        # A fresh object, same content *and tids* — database identity
        # (the fingerprint) covers both, and the chain's tid discipline
        # is what makes recovery exact.
        resubmitted = TransactionDatabase(
            v2.db.transactions, tids=v2.db.tids
        )
        assert resubmitted is not v2.db
        assert resubmitted.fingerprint() == v2.fingerprint()
        response = service.execute(
            MineRequest(db=resubmitted, support=SUPPORT)
        )
        assert response.path == "update", (
            f"served via {response.path} "
            f"(degradation: {response.degradation.describe() or 'none'})"
        )
        assert response.update_mode == "fup"
        assert response.feedstock_distance > 0
        assert response.patterns == expected
        snapshot = service.stats.snapshot()
        assert snapshot["updates"] == 1
        assert snapshot["mine_runs"] == 0


def test_snapshot_carries_durability_gauges(tmp_path):
    db = make_db()
    persist_generation(tmp_path, db)
    warehouse = PatternWarehouse(directory=tmp_path)
    with MiningService(warehouse=warehouse) as service:
        snapshot = service.stats.snapshot()
    assert snapshot["recovered_entries"] == 1.0
    assert snapshot["recovered_chains"] == 2.0
    for gauge in ("gc_dropped_chains", "gc_collapsed_hops"):
        assert snapshot[gauge] == 0.0


def test_versioned_resubmit_still_beats_restored_chain(tmp_path):
    # A request that *does* carry its version object must behave exactly
    # as before — restoration only fills in for absent chains.
    db = make_db()
    v2 = persist_generation(tmp_path, db)
    warehouse = PatternWarehouse(directory=tmp_path)
    with MiningService(warehouse=warehouse) as service:
        response = service.execute(
            MineRequest(db=v2.db, support=SUPPORT, version=v2)
        )
        assert (response.path, response.update_mode) == ("update", "fup")
        assert response.patterns == mine_hmine(v2.db, SUPPORT)


def test_unrelated_database_is_untouched_by_restore(tmp_path):
    db = make_db()
    persist_generation(tmp_path, db)
    other = make_db(seed=99)
    warehouse = PatternWarehouse(directory=tmp_path)
    with MiningService(warehouse=warehouse) as service:
        response = service.execute(MineRequest(db=other, support=SUPPORT))
        assert response.path == "mine"
        assert response.patterns == mine_hmine(other, SUPPORT)
