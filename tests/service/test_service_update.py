"""Tests for the service's versioned update path: warehouse lineage,
chain-aware planning, stats, and workload database operations."""

from __future__ import annotations

import pytest

from repro.data.synthetic import QuestParams, quest_database
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.errors import DataError, ReproError
from repro.mining.hmine import mine_hmine
from repro.service import (
    MineRequest,
    MiningService,
    PatternWarehouse,
    parse_workload,
    parse_workload_items,
    serve_workload,
)
from repro.service.workload import DeltaOp


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=120, n_items=30, avg_transaction_length=6),
        seed=5,
    )


@pytest.fixture
def chain(db):
    v0 = VersionedDatabase.initial(db)
    delta = DatabaseDelta(
        appends=db.transactions[:5], deletes=frozenset(db.tids[:2])
    )
    return v0, v0.apply(delta)


class TestWarehouseLineage:
    def test_record_and_walk_lineage(self, db, chain):
        v0, v1 = chain
        warehouse = PatternWarehouse()
        warehouse.record_lineage(
            v1.fingerprint(), v0.fingerprint(),
            v1.delta_fingerprint, distance=v1.delta.size,
        )
        lineage = warehouse.lineage_of(v1.fingerprint())
        assert lineage == (
            (v1.fingerprint(), 0),
            (v0.fingerprint(), v1.delta.size),
        )
        assert warehouse.stats()["lineage_links"] == 1

    def test_self_links_are_ignored(self, db):
        warehouse = PatternWarehouse()
        warehouse.record_lineage(db.fingerprint(), db.fingerprint())
        assert warehouse.stats()["lineage_links"] == 0

    def test_ancestor_feedstock_finds_nearest_warehoused_ancestor(
        self, db, chain
    ):
        v0, v1 = chain
        warehouse = PatternWarehouse()
        patterns = mine_hmine(db, 10)
        warehouse.put(v0.fingerprint(), 10, patterns)
        hit = warehouse.ancestor_feedstock(
            v1.fingerprint(), 10, lineage=v1.lineage()
        )
        assert hit is not None
        assert hit.fingerprint == v0.fingerprint()
        assert hit.distance == v1.delta.size
        # A same-version entry dominates any ancestor.
        new_patterns = mine_hmine(v1.db, 10)
        warehouse.put(v1.fingerprint(), 10, new_patterns)
        nearest = warehouse.ancestor_feedstock(
            v1.fingerprint(), 10, lineage=v1.lineage()
        )
        assert nearest.fingerprint == v1.fingerprint()
        assert nearest.distance == 0
        # Entries above the requested support are never feedstock, and
        # the nearest warehoused version still ends the walk: v0's entry
        # at 8 lies past v1's.
        warehouse.put(v0.fingerprint(), 8, mine_hmine(db, 8))
        assert warehouse.ancestor_feedstock(
            v1.fingerprint(), 9, lineage=v1.lineage()
        ) is None

    def test_unknown_chain_misses(self, db):
        warehouse = PatternWarehouse()
        assert warehouse.ancestor_feedstock(db.fingerprint(), 10) is None


class TestServiceUpdatePath:
    def test_versioned_request_serves_update_bit_identically(self, db, chain):
        v0, mixed = chain
        v1 = v0.apply(DatabaseDelta.append(db.transactions[:5]))
        with MiningService(warehouse=PatternWarehouse()) as service:
            service.execute(MineRequest(db=db, support=10, version=v0))
            response = service.execute(
                MineRequest(db=v1.db, support=10, version=v1)
            )
            assert response.path == "update"
            assert response.update_mode == "fup"  # insert-only delta
            assert response.feedstock_distance == v1.delta.size
            assert response.patterns == mine_hmine(v1.db, 10)
            # A delta with deletions is not FUP-patchable: it mines cold,
            # which is not a degradation.
            cold = service.execute(
                MineRequest(db=mixed.db, support=10, version=mixed)
            )
            assert (cold.path, cold.update_mode) == ("mine", None)
            assert not cold.degradation.degraded
            assert cold.patterns == mine_hmine(mixed.db, 10)
            snapshot = service.stats.snapshot()
            assert snapshot["updates"] == 1
            assert snapshot["update_runs"] == 1
            assert service.stats.path_rates()["update"] == 1 / 3

    def test_insert_only_delta_uses_fup_mode(self, db):
        v0 = VersionedDatabase.initial(db)
        v1 = v0.apply(DatabaseDelta.append(db.transactions[:3]))
        with MiningService(warehouse=PatternWarehouse()) as service:
            service.execute(MineRequest(db=db, support=10, version=v0))
            response = service.execute(
                MineRequest(db=v1.db, support=10, version=v1)
            )
            assert response.path == "update" and response.update_mode == "fup"
            assert response.patterns == mine_hmine(v1.db, 10)

    def test_version_must_wrap_the_request_database(self, db, chain):
        v0, v1 = chain
        with MiningService() as service:
            with pytest.raises(ReproError, match="different database"):
                service.submit(MineRequest(db=db, support=10, version=v1))

    def test_apply_delta_advances_and_counts(self, db):
        v0 = VersionedDatabase.initial(db)
        delta = DatabaseDelta.append([[1, 2]])
        with MiningService(warehouse=PatternWarehouse()) as service:
            v1 = service.apply_delta(v0, delta)
            assert v1.parent_fingerprint == v0.fingerprint()
            assert service.stats.snapshot()["deltas_applied"] == 1
            assert service.warehouse.stats()["lineage_links"] == 1

    def test_cold_service_with_version_still_mines_exactly(self, db, chain):
        v0, v1 = chain
        with MiningService(warehouse=None) as service:
            response = service.execute(
                MineRequest(db=v1.db, support=10, version=v1)
            )
            assert response.path == "mine"
            assert response.patterns == mine_hmine(v1.db, 10)


class TestWorkloadOps:
    def _spec(self):
        return {
            "dataset": "weather",
            "seed": 0,
            "requests": [
                {"tenant": "alice", "support": 800},
                {"op": "append", "transactions": [[1, 2, 5], [3, 4]]},
                {"tenant": "bob", "support": 800},
                {"op": "delete", "tids": [0, 7]},
                {"tenant": "carol", "support": 800},
            ],
        }

    def test_ops_advance_the_version_chain(self):
        items = parse_workload_items(self._spec())
        ops = [item for item in items if isinstance(item, DeltaOp)]
        requests = [item for item in items if isinstance(item, MineRequest)]
        assert [op.kind for op in ops] == ["append", "delete"]
        alice, bob, carol = requests
        assert alice.version.version == 0
        assert bob.version.version == 1 and len(bob.db) == len(alice.db) + 2
        assert carol.version.version == 2 and len(carol.db) == len(bob.db) - 2
        assert carol.version.parent_fingerprint == bob.version.fingerprint()

    def test_parse_workload_compat_filters_ops_but_applies_them(self):
        requests = parse_workload(self._spec())
        assert [r.tenant for r in requests] == ["alice", "bob", "carol"]
        assert requests[2].version.version == 2

    @pytest.mark.parametrize(
        ("entry", "message"),
        [
            ({"op": "append"}, "transactions"),
            ({"op": "append", "transactions": []}, "transactions"),
            ({"op": "delete"}, "tids"),
            ({"op": "compact"}, "unknown op"),
        ],
    )
    def test_malformed_ops_rejected(self, entry, message):
        spec = {"dataset": "weather", "requests": [entry]}
        with pytest.raises(DataError, match=message):
            parse_workload_items(spec)

    def test_serve_workload_registers_ops_and_serves_updates(self):
        items = parse_workload_items(self._spec())
        carol = [item for item in items if isinstance(item, MineRequest)][2]
        with MiningService(warehouse=PatternWarehouse()) as service:
            responses = serve_workload(service, items)
            assert len(responses) == 3
            snapshot = service.stats.snapshot()
            assert snapshot["deltas_applied"] == 2
            assert snapshot["versions_registered"] == 2
            # Ops are barriers: alice banks before bob plans, bob before
            # carol. Bob's append is FUP-patched; carol's delete mines.
            assert [r.path for r in responses] == ["mine", "update", "mine"]
            assert responses[2].patterns == mine_hmine(carol.db, 800)
