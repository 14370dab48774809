"""The warm-hit path: exact hits copy, and an ``execute()`` leader responds.

An exact hit (an entry mined at exactly the requested support) is served
as a copy of the entry, with no scan of its supports, and the copy is
the caller's own: mutating it reaches neither the warehouse nor the next
answer. A looser entry is filtered. A request that leads its computation
through :meth:`MiningService.execute` builds and records its own
response; a follower that joins it through ``submit()`` still waits on
the leader's result, or on its failure.
"""

from __future__ import annotations

import threading

import pytest

from repro.data.patterns import CondensedPatternSet, PatternSet
from repro.data.synthetic import QuestParams, quest_database
from repro.mining.hmine import mine_hmine
from repro.service import MineRequest, MiningService, PatternWarehouse


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=150, n_items=40, avg_transaction_length=6), seed=2
    )


def forbid_scan(monkeypatch):
    def scan(self, min_support):
        raise AssertionError("an exact hit scanned its supports")

    monkeypatch.setattr(PatternSet, "filter_min_support", scan)


class TestExactHits:
    def test_an_exact_hit_is_served_without_a_scan(self, db, monkeypatch):
        with MiningService(warehouse=PatternWarehouse()) as service:
            service.execute(MineRequest(db=db, support=10))
            forbid_scan(monkeypatch)
            hit = service.execute(MineRequest(db=db, support=10))
        assert hit.path == "filter" and hit.feedstock_support == 10
        assert hit.patterns == mine_hmine(db, 10)

    def test_an_exact_hit_on_a_condensed_entry_is_served_without_a_scan(
        self, db, monkeypatch
    ):
        warehouse = PatternWarehouse()
        closed = CondensedPatternSet.condense(mine_hmine(db, 9), 9, "closed")
        warehouse.put(db.fingerprint(), 9, closed)
        forbid_scan(monkeypatch)
        with MiningService(warehouse=warehouse) as service:
            hit = service.execute(MineRequest(db=db, support=9))
        assert hit.path == "filter"
        assert hit.patterns == mine_hmine(db, 9)

    def test_mutating_a_hit_reaches_neither_the_entry_nor_the_next_hit(self, db):
        warehouse = PatternWarehouse()
        with MiningService(warehouse=warehouse) as service:
            mined = service.execute(MineRequest(db=db, support=10))
            expected = mined.patterns.as_dict()
            first = service.execute(MineRequest(db=db, support=10))
            first.patterns.add(frozenset({999}), 1)
            second = service.execute(MineRequest(db=db, support=10))
        assert first.path == second.path == "filter"
        assert frozenset({999}) not in second.patterns
        assert second.patterns.as_dict() == expected
        assert warehouse.get(db.fingerprint(), 10).as_dict() == expected

    def test_a_looser_entry_is_filtered_to_the_mined_answer(self, db):
        with MiningService(warehouse=PatternWarehouse()) as service:
            service.execute(MineRequest(db=db, support=6))
            hit = service.execute(MineRequest(db=db, support=12))
        assert hit.path == "filter" and hit.feedstock_support == 6
        assert hit.patterns == mine_hmine(db, 12)


def gate_compute(service, monkeypatch, fail=False):
    """Hold ``service``'s next computations until ``release`` is set.

    Returns ``(started, release)``; with ``fail`` the gated computation
    raises instead of computing.
    """
    started, release = threading.Event(), threading.Event()
    compute = service._compute

    def gated(fingerprint, request, absolute):
        started.set()
        assert release.wait(timeout=30), "gate never released"
        if fail:
            raise RuntimeError("disk on fire")
        return compute(fingerprint, request, absolute)

    monkeypatch.setattr(service, "_compute", gated)
    return started, release


def record_order(service, monkeypatch) -> list[bool]:
    """The ``coalesced`` flag of each response, in the order recorded."""
    order: list[bool] = []
    record = service.stats.record

    def recording(response):
        order.append(response.coalesced)
        record(response)

    monkeypatch.setattr(service.stats, "record", recording)
    return order


class TestExecuteLeader:
    def test_a_submit_joins_an_execute_leader(self, db, monkeypatch):
        with MiningService(warehouse=PatternWarehouse(), max_workers=1) as service:
            started, release = gate_compute(service, monkeypatch)
            order = record_order(service, monkeypatch)
            led: list = []
            caller = threading.Thread(
                target=lambda: led.append(
                    service.execute(MineRequest(db=db, support=10, tenant="a"))
                )
            )
            caller.start()
            assert started.wait(timeout=30)
            follower = service.submit(MineRequest(db=db, support=10, tenant="b"))
            release.set()
            caller.join(timeout=60)
            joined = follower.result(timeout=60)
        (leader,) = led
        assert not leader.coalesced and joined.coalesced
        assert leader.patterns == joined.patterns == mine_hmine(db, 10)
        assert service.stats.computations == 1
        assert service.stats.requests == 2
        assert order == [False, True]

    def test_an_execute_leader_failure_reaches_caller_and_follower(
        self, db, monkeypatch
    ):
        with MiningService(warehouse=PatternWarehouse(), max_workers=1) as service:
            started, release = gate_compute(service, monkeypatch, fail=True)
            errors: list[BaseException] = []

            def lead():
                try:
                    service.execute(MineRequest(db=db, support=10))
                except RuntimeError as exc:
                    errors.append(exc)

            caller = threading.Thread(target=lead)
            caller.start()
            assert started.wait(timeout=30)
            follower = service.submit(MineRequest(db=db, support=10))
            release.set()
            caller.join(timeout=60)
            with pytest.raises(RuntimeError, match="disk on fire"):
                follower.result(timeout=60)
            assert [str(exc) for exc in errors] == ["disk on fire"]
            assert not service._inflight
            monkeypatch.undo()
            retry = service.execute(MineRequest(db=db, support=10))
        assert not retry.coalesced and retry.path == "mine"
        assert retry.patterns == mine_hmine(db, 10)
        assert service.stats.computations == 1
