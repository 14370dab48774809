"""Tests for the multi-tenant mining service (correctness under concurrency,
single-flight coalescing, warehouse interplay and statistics)."""

from __future__ import annotations

import threading

import pytest

import repro.core.planner as planner_module
from repro.data.synthetic import QuestParams, quest_database
from repro.errors import ReproError
from repro.mining.hmine import mine_hmine
from repro.service import MineRequest, MiningService, PatternWarehouse
from repro.storage.disk import patterns_byte_size


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=150, n_items=40, avg_transaction_length=6), seed=2
    )


class TestSingleRequests:
    def test_miss_then_filter_then_lower_support_mines(self, db):
        with MiningService(warehouse=PatternWarehouse()) as service:
            first = service.execute(MineRequest(db=db, support=12, tenant="alice"))
            assert first.path == "mine" and not first.coalesced
            again = service.execute(MineRequest(db=db, support=12, tenant="bob"))
            assert again.path == "filter" and again.feedstock_support == 12
            # The entry at 12 is a subset of the answer at 5: not feedstock.
            relaxed = service.execute(MineRequest(db=db, support=5, tenant="carol"))
            assert relaxed.path == "mine" and relaxed.feedstock_support is None
            for response, support in ((first, 12), (again, 12), (relaxed, 5)):
                assert response.patterns == mine_hmine(db, support)

    def test_relative_supports_resolve_via_database(self, db):
        with MiningService(warehouse=PatternWarehouse()) as service:
            response = service.execute(MineRequest(db=db, support=0.1))
            assert response.absolute_support == 15  # ceil(0.1 * 150)

    def test_cold_service_always_mines(self, db):
        with MiningService(warehouse=None) as service:
            service.execute(MineRequest(db=db, support=12))
            second = service.execute(MineRequest(db=db, support=12))
            assert second.path == "mine"
            assert service.stats.mine_runs == 2

    def test_closed_service_rejects_requests(self, db):
        service = MiningService()
        service.close()
        with pytest.raises(ReproError, match="closed"):
            service.submit(MineRequest(db=db, support=12))

    def test_empty_result_supports_are_cached_not_recycled(self, db):
        """A threshold admitting no patterns must fall back to scratch
        mining on relaxation, exactly like the interactive session."""
        with MiningService(warehouse=PatternWarehouse()) as service:
            barren = service.execute(MineRequest(db=db, support=len(db) + 1))
            assert barren.pattern_count == 0
            relaxed = service.execute(MineRequest(db=db, support=5))
            assert relaxed.path == "mine"
            assert relaxed.patterns == mine_hmine(db, 5)


class TestParallelRequests:
    """``jobs > 1`` is accepted and served in-process, with the same
    answers and warehouse reuse as a one-job request."""

    def test_parallel_mine_matches_serial(self, db):
        with MiningService(warehouse=PatternWarehouse()) as service:
            response = service.execute(MineRequest(db=db, support=10, jobs=2))
            assert response.path == "mine"
            assert response.patterns == mine_hmine(db, 10)
            assert "parallel_shards" not in response.counters.as_dict()
            assert service.stats.snapshot()["computations"] == 1

    def test_parallel_requests_reuse_warehouse_feedstock(self, db):
        with MiningService(warehouse=PatternWarehouse()) as service:
            service.execute(MineRequest(db=db, support=6))
            tightened = service.execute(MineRequest(db=db, support=12, jobs=2))
            assert tightened.path == "filter" and tightened.feedstock_support == 6
            assert tightened.patterns == mine_hmine(db, 12)

    def test_nonpositive_jobs_rejected_at_submit(self, db):
        with MiningService() as service:
            with pytest.raises(ReproError, match="jobs"):
                service.submit(MineRequest(db=db, support=12, jobs=0))


class TestStatsZeroGuards:
    def test_fresh_stats_report_without_requests(self):
        from repro.service.service import ServiceStats

        stats = ServiceStats()
        assert stats.latency_quantile(0.5) == 0.0
        assert stats.latency_quantile(0.95) == 0.0
        assert stats.path_rates() == {
            "filter": 0.0,
            "update": 0.0,
            "mine": 0.0,
            "degraded": 0.0,
        }
        snapshot = stats.snapshot()
        assert snapshot["requests"] == 0
        assert snapshot["latency_p50_s"] == 0.0
        assert snapshot["filter_rate"] == 0.0


class TestSingleFlight:
    def test_identical_inflight_requests_share_one_run(self, db, monkeypatch):
        """Six identical requests submitted while the leader is gated must
        produce exactly one underlying mining run."""
        release = threading.Event()
        real_get_miner = planner_module.get_miner
        mine_calls: list[int] = []

        class GatedSpec:
            def __init__(self, spec):
                self._spec = spec

            def mine(self, database, support, counters=None):
                mine_calls.append(support)
                assert release.wait(timeout=30), "gate never released"
                return self._spec.mine(database, support, counters)

        monkeypatch.setattr(
            planner_module,
            "get_miner",
            lambda name, kind="baseline": GatedSpec(real_get_miner(name, kind=kind)),
        )
        with MiningService(warehouse=PatternWarehouse(), max_workers=4) as service:
            futures = [
                service.submit(MineRequest(db=db, support=10, tenant=f"user-{i}"))
                for i in range(6)
            ]
            release.set()
            responses = [future.result(timeout=60) for future in futures]
        assert len(mine_calls) == 1, "single-flight must run the miner once"
        assert service.stats.mine_runs == 1
        assert service.stats.coalesced == 5
        expected = mine_hmine(db, 10)
        assert all(response.patterns == expected for response in responses)
        assert sum(1 for r in responses if not r.coalesced) == 1

    def test_failures_propagate_to_every_waiter(self, db, monkeypatch):
        release = threading.Event()

        def explode(name, kind="baseline"):
            class Boom:
                def mine(self, database, support, counters=None):
                    assert release.wait(timeout=30)
                    raise RuntimeError("disk on fire")

            return Boom()

        monkeypatch.setattr(planner_module, "get_miner", explode)
        with MiningService(warehouse=PatternWarehouse(), max_workers=2) as service:
            futures = [
                service.submit(MineRequest(db=db, support=10)) for _ in range(3)
            ]
            release.set()
            for future in futures:
                with pytest.raises(RuntimeError, match="disk on fire"):
                    future.result(timeout=60)
        # A failed computation must not leave the in-flight slot occupied.
        assert not service._inflight

    def test_execute_leads_on_the_calling_thread(self, db, monkeypatch):
        """``execute`` computes on its caller's thread, ``submit`` on the
        pool, and a submit arriving while an ``execute`` leads coalesces
        onto it."""
        started = threading.Event()
        release = threading.Event()
        real_get_miner = planner_module.get_miner
        mine_threads: list[threading.Thread] = []

        class GatedSpec:
            def __init__(self, spec):
                self._spec = spec

            def mine(self, database, support, counters=None):
                mine_threads.append(threading.current_thread())
                started.set()
                assert release.wait(timeout=30), "gate never released"
                return self._spec.mine(database, support, counters)

        monkeypatch.setattr(
            planner_module,
            "get_miner",
            lambda name, kind="baseline": GatedSpec(real_get_miner(name, kind=kind)),
        )
        with MiningService(warehouse=None, max_workers=1) as service:
            executed: list = []
            caller = threading.Thread(
                target=lambda: executed.append(
                    service.execute(MineRequest(db=db, support=10, tenant="a"))
                )
            )
            caller.start()
            assert started.wait(timeout=30)
            follower = service.submit(MineRequest(db=db, support=10, tenant="b"))
            release.set()
            caller.join(timeout=60)
            assert follower.result(timeout=60).coalesced
            assert mine_threads == [caller]

            pooled = service.submit(MineRequest(db=db, support=11))
            pooled.result(timeout=60)
            assert mine_threads[-1] not in (caller, threading.current_thread())
        assert not executed[0].coalesced
        assert executed[0].patterns == mine_hmine(db, 10)
        assert service.stats.computations == 2 and service.stats.coalesced == 1


class TestConcurrency:
    def test_eight_threads_mixed_supports_exact_and_budgeted(self, db):
        """The acceptance scenario: >= 8 client threads of mixed-support
        requests against one service. Every result must be bit-identical
        to single-threaded mining and the warehouse must never exceed its
        byte budget."""
        supports = [18, 12, 9, 15, 7, 20, 10, 8]
        expected = {support: mine_hmine(db, support) for support in supports}
        # Big enough for any single set, far too small for all of them.
        budget = max(
            patterns_byte_size(patterns) for patterns in expected.values()
        ) + 64
        warehouse = PatternWarehouse(byte_budget=budget)
        service = MiningService(warehouse=warehouse, max_workers=8)
        start = threading.Barrier(8)
        failures: list[BaseException] = []

        def tenant(index: int) -> None:
            try:
                start.wait(timeout=30)
                # Every thread walks all supports, each starting elsewhere.
                for offset in range(len(supports)):
                    support = supports[(index + offset) % len(supports)]
                    response = service.execute(
                        MineRequest(db=db, support=support, tenant=f"t{index}")
                    )
                    assert response.patterns == expected[support], (
                        f"thread {index} got wrong patterns at {support}"
                    )
                    assert warehouse.stored_bytes() <= budget
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=tenant, args=(i,), name=f"tenant-{i}")
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        service.close()
        assert not failures, failures
        assert warehouse.stored_bytes() <= budget
        assert warehouse.evictions > 0, "budget pressure should have evicted"
        snapshot = service.stats.snapshot()
        assert snapshot["requests"] == 8 * len(supports)
        # The warehouse + coalescing must have absorbed some of the traffic.
        assert snapshot["computations"] + snapshot["coalesced"] == snapshot["requests"]
        assert snapshot["misses"] < snapshot["requests"]
        assert snapshot["filter_hits"] + snapshot["coalesced"] > 0

    def test_stats_quantiles_monotonic(self, db):
        with MiningService(warehouse=PatternWarehouse()) as service:
            for support in (20, 15, 10):
                service.execute(MineRequest(db=db, support=support))
            p50 = service.stats.latency_quantile(0.5)
            p95 = service.stats.latency_quantile(0.95)
            assert 0 <= p50 <= p95
