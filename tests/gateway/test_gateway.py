"""Gateway behavior: batching, admission control, deadlines, lifecycles.

Everything deterministic runs in manual mode (``start=False`` with an
injectable clock) so outcomes are a pure function of the submission
sequence; auto mode gets end-to-end coverage on top.
"""

from __future__ import annotations

import math

import pytest

from repro.data.synthetic import QuestParams, quest_database
from repro.errors import GatewayError, ReproError
from repro.gateway import (
    STATUS_EXPIRED,
    STATUS_REJECTED,
    STATUS_SERVED,
    STATUS_SHED,
    GatewayConfig,
    GatewayRequest,
    MiningGateway,
)
from repro.mining.hmine import mine_hmine
from repro.resilience import (
    REASON_DEADLINE_EXPIRED,
    REASON_GATEWAY_CLOSED,
    REASON_LOAD_SHED,
    REASON_QUEUE_FULL,
)
from repro.service import MineRequest, MiningService, PatternWarehouse


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=80, n_items=24, avg_transaction_length=5),
        seed=11,
    )


@pytest.fixture
def service():
    with MiningService(warehouse=PatternWarehouse(), max_workers=2) as svc:
        yield svc


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBatching:
    def test_one_pump_serves_a_whole_support_ladder(self, db, service):
        gw = MiningGateway(service, start=False)
        requests = [
            MineRequest(db=db, support=s, tenant=f"t{i}")
            for i, s in enumerate((12, 8, 5))
        ]
        futures = [gw.submit(r) for r in requests]
        assert gw.pump_once() == 3
        responses = [f.result() for f in futures]
        for response, request in zip(responses, requests):
            assert response.status == STATUS_SERVED
            assert response.batched and response.batch_size == 3
            assert response.batch_support == 5
            assert response.patterns == mine_hmine(db, request.support)
        assert gw.stats.batches == 1
        assert gw.stats.merged_batches == 1
        assert gw.stats.batched_requests == 3
        gw.close()

    def test_members_share_the_leader_computation(self, db, service):
        gw = MiningGateway(service, start=False)
        responses = gw.execute_many(
            [MineRequest(db=db, support=10), MineRequest(db=db, support=6)]
        )
        assert all(r.response.coalesced for r in responses)
        # One real mine: the gateway's work ledger equals that single
        # computation's cost, not the sum over members.
        assert gw.stats.work_executed > 0
        assert service.stats.computations == 1
        gw.close()

    def test_batching_disabled_serves_one_at_a_time(self, db, service):
        gw = MiningGateway(service, GatewayConfig(batching=False), start=False)
        futures = [
            gw.submit(MineRequest(db=db, support=s)) for s in (10, 7)
        ]
        assert gw.pump_once() == 1
        assert futures[0].done() and not futures[1].done()
        gw.drain()
        assert all(f.result().batch_size == 1 for f in futures)
        assert gw.stats.merged_batches == 0
        gw.close()

    def test_max_batch_size_caps_one_plan(self, db, service):
        gw = MiningGateway(
            service, GatewayConfig(max_batch_size=2), start=False
        )
        futures = [
            gw.submit(MineRequest(db=db, support=s)) for s in (12, 9, 6)
        ]
        assert gw.pump_once() == 2
        assert gw.pump_once() == 1
        sizes = sorted(f.result().batch_size for f in futures)
        assert sizes == [1, 2, 2]
        gw.close()

    def test_incompatible_requests_never_merge(self, db, service):
        other = quest_database(
            QuestParams(n_transactions=40, n_items=16), seed=23
        )
        gw = MiningGateway(service, start=False)
        responses = gw.execute_many(
            [MineRequest(db=db, support=8), MineRequest(db=other, support=8)]
        )
        assert all(not r.batched for r in responses)
        assert gw.stats.batches == 2
        gw.close()


class TestAdmissionControl:
    def test_full_queue_rejects_equal_priority_arrival(self, db, service):
        gw = MiningGateway(
            service, GatewayConfig(max_queue_depth=1), start=False
        )
        kept = gw.submit(MineRequest(db=db, support=10))
        turned_away = gw.submit(MineRequest(db=db, support=8))
        rejected = turned_away.result()
        assert rejected.status == STATUS_REJECTED
        assert rejected.degradation.steps[0].reason == REASON_QUEUE_FULL
        gw.drain()
        assert kept.result().status == STATUS_SERVED
        assert gw.stats.rejected == 1
        gw.close()

    def test_higher_priority_arrival_sheds_queued_batch_work(
        self, db, service
    ):
        gw = MiningGateway(
            service, GatewayConfig(max_queue_depth=1), start=False
        )
        victim = gw.submit(
            GatewayRequest(
                request=MineRequest(db=db, support=10), priority="batch"
            )
        )
        urgent = gw.submit(
            GatewayRequest(
                request=MineRequest(db=db, support=8), priority="interactive"
            )
        )
        shed = victim.result()
        assert shed.status == STATUS_SHED
        assert shed.degradation.steps[0].reason == REASON_LOAD_SHED
        gw.drain()
        assert urgent.result().status == STATUS_SERVED
        assert gw.stats.shed == 1 and gw.stats.served == 1
        gw.close()

    def test_shed_on_full_false_rejects_even_urgent_arrivals(
        self, db, service
    ):
        gw = MiningGateway(
            service,
            GatewayConfig(max_queue_depth=1, shed_on_full=False),
            start=False,
        )
        gw.submit(
            GatewayRequest(
                request=MineRequest(db=db, support=10), priority="batch"
            )
        )
        urgent = gw.submit(
            GatewayRequest(
                request=MineRequest(db=db, support=8), priority="interactive"
            )
        )
        assert urgent.result().status == STATUS_REJECTED
        gw.close()

    def test_queue_gauges_reach_service_snapshot(self, db, service):
        gw = MiningGateway(
            service, GatewayConfig(max_queue_depth=2), start=False
        )
        for support in (12, 9, 6):
            gw.submit(MineRequest(db=db, support=support))
        snapshot = service.stats.snapshot()
        assert snapshot["gateway_queue_depth"] == 2.0
        assert snapshot["gateway_queue_high_water"] == 2.0
        assert snapshot["gateway_rejected"] == 1.0
        gw.drain()
        assert service.stats.snapshot()["gateway_queue_depth"] == 0.0
        gw.close()


class TestDeadlines:
    def test_expired_request_is_rejected_not_mined(self, db, service):
        clock = FakeClock()
        gw = MiningGateway(service, clock=clock, start=False)
        hurried = gw.submit(
            GatewayRequest(
                request=MineRequest(db=db, support=10), deadline_seconds=1.0
            )
        )
        relaxed = gw.submit(MineRequest(db=db, support=10))
        clock.advance(2.0)
        computations_before = service.stats.computations
        gw.drain()
        expired = hurried.result()
        assert expired.status == STATUS_EXPIRED
        assert expired.degradation.steps[0].reason == REASON_DEADLINE_EXPIRED
        assert relaxed.result().status == STATUS_SERVED
        assert gw.stats.expired == 1
        # The expired request cost no mining work.
        assert service.stats.computations == computations_before + 1
        gw.close()

    def test_unexpired_deadline_still_serves(self, db, service):
        clock = FakeClock()
        gw = MiningGateway(service, clock=clock, start=False)
        future = gw.submit(
            GatewayRequest(
                request=MineRequest(db=db, support=10), deadline_seconds=5.0
            )
        )
        clock.advance(1.0)
        gw.drain()
        assert future.result().status == STATUS_SERVED
        gw.close()


class TestSchedulingOrder:
    def test_interactive_dispatches_before_batch(self, db, service):
        gw = MiningGateway(service, GatewayConfig(batching=False), start=False)
        low = gw.submit(
            GatewayRequest(
                request=MineRequest(db=db, support=10), priority="batch"
            )
        )
        high = gw.submit(
            GatewayRequest(
                request=MineRequest(db=db, support=8), priority="interactive"
            )
        )
        gw.pump_once()
        assert high.done() and not low.done()
        gw.drain()
        gw.close()


class TestLifecycle:
    def test_closed_gateway_refuses_submissions(self, db, service):
        gw = MiningGateway(service, start=False)
        gw.close()
        with pytest.raises(GatewayError, match="closed"):
            gw.submit(MineRequest(db=db, support=10))

    def test_manual_close_drains_by_default(self, db, service):
        gw = MiningGateway(service, start=False)
        future = gw.submit(MineRequest(db=db, support=10))
        gw.close()
        assert future.result().status == STATUS_SERVED

    def test_close_without_drain_flushes_as_rejected(self, db, service):
        gw = MiningGateway(service, start=False)
        future = gw.submit(MineRequest(db=db, support=10))
        gw.close(drain=False)
        flushed = future.result()
        assert flushed.status == STATUS_REJECTED
        assert flushed.degradation.steps[0].reason == REASON_GATEWAY_CLOSED

    def test_gateway_never_closes_the_service(self, db, service):
        with MiningGateway(service, start=False):
            pass
        assert service.execute(MineRequest(db=db, support=10)).patterns

    def test_validation_failures_raise_instead_of_queueing(self, db, service):
        gw = MiningGateway(service, start=False)
        with pytest.raises(GatewayError, match="jobs"):
            gw.submit(MineRequest(db=db, support=10, jobs=0))
        with pytest.raises(GatewayError, match="priority"):
            GatewayRequest(
                request=MineRequest(db=db, support=10), priority="vip"
            )
        for deadline in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(GatewayError, match="deadline"):
                GatewayRequest(
                    request=MineRequest(db=db, support=10),
                    deadline_seconds=deadline,
                )
        gw.close()

    def test_config_validation(self):
        with pytest.raises(GatewayError, match="max_queue_depth"):
            GatewayConfig(max_queue_depth=0)
        with pytest.raises(GatewayError, match="max_batch_size"):
            GatewayConfig(max_batch_size=0)
        with pytest.raises(GatewayError, match="max_inflight"):
            GatewayConfig(max_inflight=0)
        with pytest.raises(GatewayError, match="priority"):
            GatewayConfig(default_priority="vip")
        for deadline in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(GatewayError, match="default_deadline_seconds"):
                GatewayConfig(default_deadline_seconds=deadline)

    def test_service_failure_propagates_to_every_member(self, db):
        service = MiningService(max_workers=1)
        gw = MiningGateway(service, start=False)
        futures = [
            gw.submit(MineRequest(db=db, support=s)) for s in (10, 7)
        ]
        service.close()  # the pool dies under the gateway's feet
        gw.pump_once()
        for future in futures:
            with pytest.raises(ReproError, match="closed"):
                future.result()
        assert gw.stats.failed == 1

    def test_unserved_response_refuses_patterns(self, db, service):
        gw = MiningGateway(service, start=False)
        future = gw.submit(MineRequest(db=db, support=10))
        gw.close(drain=False)
        with pytest.raises(GatewayError, match="not served"):
            future.result().patterns

    def test_mode_guards(self, db, service):
        auto = MiningGateway(service)
        with pytest.raises(GatewayError, match="dispatcher"):
            auto.pump_once()
        auto.close()


class TestStats:
    def test_work_basis_latency_recorded_per_class(self, db, service):
        gw = MiningGateway(service, start=False)
        gw.execute_many(
            [
                GatewayRequest(
                    request=MineRequest(db=db, support=10),
                    priority="interactive",
                ),
                MineRequest(db=db, support=7),
            ]
        )
        assert gw.stats.work_quantile("interactive", 0.5) > 0
        assert gw.stats.work_quantile("standard", 0.5) > 0
        assert gw.stats.latency_quantile("standard", 0.99) >= 0
        gauges = gw.stats.gauges()
        assert gauges["gateway_p99_standard_s"] >= 0.0
        assert gauges["gateway_served"] == 2.0
        gw.close()


class TestAutoMode:
    def test_execute_many_end_to_end(self, db, service):
        with MiningGateway(service) as gw:
            requests = [
                MineRequest(db=db, support=s, tenant=f"t{i}")
                for i, s in enumerate((12, 9, 6, 9, 12))
            ]
            responses = gw.execute_many(requests)
            for response, request in zip(responses, requests):
                assert response.status == STATUS_SERVED
                assert response.patterns == mine_hmine(db, request.support)

    def test_close_drains_queued_work(self, db, service):
        gw = MiningGateway(service, GatewayConfig(max_inflight=1))
        futures = [
            gw.submit(MineRequest(db=db, support=s)) for s in (12, 9, 6)
        ]
        gw.close()
        assert all(f.result().status == STATUS_SERVED for f in futures)
