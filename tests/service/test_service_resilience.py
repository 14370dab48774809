"""Service-level resilience: the degradation ladder on responses and
stats, and single-flight failure semantics."""

from __future__ import annotations

import threading

import pytest

import repro.core.planner as planner_module
from repro.data.synthetic import QuestParams, quest_database
from repro.errors import MiningError
from repro.mining.hmine import mine_hmine
from repro.resilience import (
    REASON_FEEDSTOCK_QUARANTINED,
    REASON_WAREHOUSE_READ_FAILED,
    REASON_WRITE_FAILED,
    FaultInjector,
    WAREHOUSE_READ,
    WAREHOUSE_WRITE,
)
from repro.service import MineRequest, MiningService, PatternWarehouse


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=150, n_items=40, avg_transaction_length=6),
        seed=2,
    )


class TestWarehouseDegradation:
    def test_read_fault_degrades_to_miss_and_is_reported(self, db):
        faults = FaultInjector().inject(WAREHOUSE_READ, on_calls=(2,))
        warehouse = PatternWarehouse(fault_injector=faults)
        with MiningService(warehouse=warehouse) as service:
            service.execute(MineRequest(db=db, support=12))  # call 1: miss
            # Call 2 would have been a filter hit; the fault turns it
            # into a mine with a named degradation instead of an error.
            response = service.execute(MineRequest(db=db, support=12))
            assert response.path == "mine"
            assert response.degradation.reasons() == [
                f"feedstock→miss: {REASON_WAREHOUSE_READ_FAILED}"
            ]
            assert response.patterns == mine_hmine(db, 12)
            assert service.stats.snapshot()["degraded"] == 1

    def test_quarantined_feedstock_names_the_miss(self, db, tmp_path):
        fingerprint = db.fingerprint()
        seeded = PatternWarehouse(directory=tmp_path)
        seeded.put(fingerprint, 12, mine_hmine(db, 12))
        path = tmp_path / f"{fingerprint}-12.patterns"
        path.write_text(path.read_text()[:40])  # corrupt it on disk
        warehouse = PatternWarehouse(directory=tmp_path)
        assert warehouse.has_quarantined(fingerprint)
        with MiningService(warehouse=warehouse) as service:
            response = service.execute(MineRequest(db=db, support=8))
            assert response.path == "mine"
            assert response.degradation.reasons() == [
                f"recycle→mine: {REASON_FEEDSTOCK_QUARANTINED}"
            ]
            assert response.patterns == mine_hmine(db, 8)

    def test_write_fault_reports_memory_only_degradation(self, db, tmp_path):
        faults = FaultInjector().inject(WAREHOUSE_WRITE, on_calls=(1,))
        warehouse = PatternWarehouse(directory=tmp_path, fault_injector=faults)
        with MiningService(warehouse=warehouse) as service:
            response = service.execute(MineRequest(db=db, support=12))
            assert response.degradation.reasons() == [
                f"warehouse→memory_only: {REASON_WRITE_FAILED}"
            ]
            # The entry still serves future requests from memory.
            again = service.execute(MineRequest(db=db, support=12))
            assert again.path == "filter" and not again.degradation.degraded


class TestSingleFlightFailure:
    def test_leader_exception_reaches_every_waiter_then_clears(self, db, monkeypatch):
        """Satellite: all coalesced waiters get the leader's exception,
        and the in-flight key is cleared so the next submit retries."""
        release = threading.Event()
        real_get_miner = planner_module.get_miner
        attempts: list[int] = []

        class ExplodingSpec:
            def __init__(self, spec):
                self._spec = spec

            def mine(self, database, support, counters=None):
                attempts.append(support)
                assert release.wait(timeout=30), "gate never released"
                if len(attempts) == 1:
                    raise MiningError("injected leader failure")
                return self._spec.mine(database, support, counters)

        monkeypatch.setattr(
            planner_module,
            "get_miner",
            lambda name, kind="baseline": ExplodingSpec(
                real_get_miner(name, kind=kind)
            ),
        )
        with MiningService(warehouse=None, max_workers=2) as service:
            futures = [
                service.submit(MineRequest(db=db, support=10, tenant=f"t{i}"))
                for i in range(4)
            ]
            release.set()
            for future in futures:
                with pytest.raises(MiningError, match="injected leader"):
                    future.result(timeout=60)
            assert len(attempts) == 1  # one leader, one failure, shared
            # The key was cleared: a fresh submit starts a new leader
            # and succeeds.
            retry = service.execute(MineRequest(db=db, support=10))
            assert retry.patterns == mine_hmine(db, 10)
            assert len(attempts) == 2
