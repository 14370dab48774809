"""Pure data-structure tests for the priority/fairness request queue."""

from __future__ import annotations

from repro.data.transactions import TransactionDatabase
from repro.gateway import GatewayRequest, PriorityRequestQueue, QueueEntry
from repro.service import MineRequest

DB = TransactionDatabase([[0, 1, 2], [0, 1], [1, 2], [0, 2]])

_SEQ = [0]


def entry(
    tenant: str = "a",
    priority: str = "standard",
    deadline: float | None = None,
    enqueued_at: float = 0.0,
    support: int = 2,
) -> QueueEntry:
    _SEQ[0] += 1
    return QueueEntry(
        gateway_request=GatewayRequest(
            request=MineRequest(db=DB, support=support, tenant=tenant),
            priority=priority,
            deadline_seconds=deadline,
        ),
        seq=_SEQ[0],
        enqueued_at=enqueued_at,
    )


class TestPriorityOrder:
    def test_best_class_serves_first(self):
        q = PriorityRequestQueue()
        batch = entry(priority="batch")
        interactive = entry(priority="interactive")
        standard = entry(priority="standard")
        for e in (batch, standard, interactive):
            q.push(e)
        assert [q.pop().seq for _ in range(3)] == [
            interactive.seq,
            standard.seq,
            batch.seq,
        ]
        assert q.pop() is None

    def test_fifo_within_one_tenant_and_class(self):
        q = PriorityRequestQueue()
        first, second, third = entry(), entry(), entry()
        for e in (first, second, third):
            q.push(e)
        assert [q.pop().seq for _ in range(3)] == [
            first.seq,
            second.seq,
            third.seq,
        ]

    def test_fifo_mode_ignores_priority(self):
        q = PriorityRequestQueue(fifo=True)
        batch = entry(priority="batch")
        interactive = entry(priority="interactive")
        q.push(batch)
        q.push(interactive)
        assert q.pop().seq == batch.seq
        assert q.pop().seq == interactive.seq


class TestFairness:
    def test_equal_weights_interleave(self):
        q = PriorityRequestQueue()
        for _ in range(6):
            q.push(entry(tenant="hog"))
        for _ in range(2):
            q.push(entry(tenant="small"))
        first_four = [q.pop().tenant for _ in range(4)]
        assert first_four.count("hog") == 2
        assert first_four.count("small") == 2

    def test_dispatch_order_is_deficit_round_robin(self):
        # Plain round-robin would serve A, B, A here: the B left waiting
        # after the first pop keeps the credit it was granted.
        q = PriorityRequestQueue()
        for tenant in ("A", "B", "B"):
            q.push(entry(tenant=tenant))
        served = [q.pop().tenant]
        q.push(entry(tenant="A"))
        served += [q.pop().tenant, q.pop().tenant]
        assert served == ["A", "B", "B"]

    def test_residual_credit_forfeited_when_tenant_drains(self):
        q = PriorityRequestQueue()
        first = entry(tenant="A")
        second = entry(tenant="A")
        q.push(first)
        q.push(second)
        q.push(entry(tenant="B", deadline=1.0))
        # Serving A leaves B holding the credit its visit granted...
        assert q.pop().seq == first.seq
        # ...until B's queue empties by removal, which forfeits it.
        assert len(q.purge_expired(now=5.0)) == 1
        q.push(entry(tenant="B"))
        # A fresh B starts from zero credit and waits behind A.
        assert q.pop().seq == second.seq
        assert q.pop().tenant == "B"


class TestAdmissionHelpers:
    def test_shed_picks_youngest_of_worst_lane(self):
        q = PriorityRequestQueue()
        older = entry(priority="batch")
        younger = entry(priority="batch")
        standard = entry(priority="standard")
        for e in (older, younger, standard):
            q.push(e)
        victim = q.shed_worse_than(0)  # an interactive arrival
        assert victim is not None and victim.seq == younger.seq
        assert q.depth == 2

    def test_shed_requires_strictly_lower_priority(self):
        q = PriorityRequestQueue()
        q.push(entry(priority="standard"))
        assert q.shed_worse_than(1) is None  # equal rank never sheds
        assert q.shed_worse_than(2) is None  # nothing below batch
        assert q.depth == 1

    def test_fifo_mode_never_sheds(self):
        q = PriorityRequestQueue(fifo=True)
        q.push(entry(priority="batch"))
        assert q.shed_worse_than(0) is None

    def test_high_water_tracks_peak_depth(self):
        q = PriorityRequestQueue()
        for _ in range(3):
            q.push(entry())
        q.pop()
        q.push(entry())
        assert q.depth == 3
        assert q.high_water == 3


class TestBatchExtraction:
    def test_take_compatible_crosses_lanes_in_arrival_order(self):
        q = PriorityRequestQueue()
        a = entry(tenant="a", priority="batch", support=3)
        b = entry(tenant="b", priority="interactive", support=2)
        c = entry(tenant="c", priority="standard", support=4)
        for e in (a, b, c):
            q.push(e)
        key = a.gateway_request.batch_key()
        taken = q.take_compatible(key)
        assert [e.seq for e in taken] == [a.seq, b.seq, c.seq]
        assert q.depth == 0

    def test_take_compatible_limit_requeues_overflow(self):
        q = PriorityRequestQueue()
        entries = [entry(tenant=f"t{i}") for i in range(4)]
        for e in entries:
            q.push(e)
        key = entries[0].gateway_request.batch_key()
        taken = q.take_compatible(key, limit=2)
        assert [e.seq for e in taken] == [entries[0].seq, entries[1].seq]
        assert q.depth == 2
        remaining = q.take_compatible(key)
        assert [e.seq for e in remaining] == [entries[2].seq, entries[3].seq]

    def test_incompatible_requests_stay_queued(self):
        other_db = TransactionDatabase([[5, 6], [6, 7]])
        q = PriorityRequestQueue()
        here = entry(tenant="a")
        _SEQ[0] += 1
        there = QueueEntry(
            gateway_request=GatewayRequest(
                request=MineRequest(db=other_db, support=1, tenant="b")
            ),
            seq=_SEQ[0],
            enqueued_at=0.0,
        )
        q.push(here)
        q.push(there)
        taken = q.take_compatible(here.gateway_request.batch_key())
        assert [e.seq for e in taken] == [here.seq]
        assert q.depth == 1


class TestDeadlines:
    def test_purge_expired_removes_in_seq_order(self):
        q = PriorityRequestQueue()
        live = entry(deadline=10.0, enqueued_at=0.0)
        dead_late = entry(deadline=1.0, enqueued_at=0.0)
        dead_early = entry(deadline=0.5, enqueued_at=0.0)
        for e in (live, dead_late, dead_early):
            q.push(e)
        expired = q.purge_expired(now=2.0)
        assert [e.seq for e in expired] == [dead_late.seq, dead_early.seq]
        assert q.depth == 1

    def test_next_deadline_is_earliest(self):
        q = PriorityRequestQueue()
        q.push(entry(deadline=5.0, enqueued_at=1.0))
        q.push(entry(deadline=2.0, enqueued_at=1.0))
        q.push(entry())  # no deadline
        assert q.next_deadline() == 3.0

    def test_drain_returns_everything_in_arrival_order(self):
        q = PriorityRequestQueue()
        entries = [
            entry(priority=p) for p in ("batch", "interactive", "standard")
        ]
        for e in entries:
            q.push(e)
        drained = q.drain()
        assert [e.seq for e in drained] == [e.seq for e in entries]
        assert q.depth == 0 and len(q) == 0
