"""The gateway's bounded, fair, priority request queue.

Three scheduling concerns live here, kept free of any I/O or mining so
they are testable as pure data-structure logic:

* **Priority classes.** One lane per class
  (:data:`~repro.gateway.request.PRIORITY_CLASSES`); the queue always
  serves the best-ranked non-empty lane, so interactive traffic never
  waits behind batch work.
* **Per-tenant fairness.** Within a lane, tenants are scheduled by
  deficit round-robin: each visit grants a tenant one credit, serving a
  request costs one credit, and residual credit is forfeited when a
  tenant's sub-queue drains. A hot tenant that floods the queue gets
  exactly one request per round; it cannot starve the others however
  many requests it piles up.
* **Admission bookkeeping.** The queue enforces nothing itself — the
  gateway decides what to shed or reject — but it exposes the two
  operations admission control needs: :meth:`shed_worse_than` (remove
  the youngest entry of the worst lane strictly below a given rank) and
  a :attr:`high_water` depth gauge.

The queue is deliberately **not** thread-safe: the gateway serializes
access under its own condition variable, exactly like the service's
in-flight table.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.gateway.request import GatewayRequest


@dataclass
class QueueEntry:
    """One queued submission: the request plus its waiting-room state."""

    gateway_request: GatewayRequest
    seq: int
    enqueued_at: float
    future: object = None  # Future[GatewayResponse]; opaque to the queue

    @property
    def rank(self) -> int:
        return self.gateway_request.rank

    @property
    def tenant(self) -> str:
        return self.gateway_request.tenant

    def deadline_at(self) -> float | None:
        deadline = self.gateway_request.deadline_seconds
        return None if deadline is None else self.enqueued_at + deadline

    def expired(self, now: float) -> bool:
        deadline = self.deadline_at()
        return deadline is not None and now >= deadline


class _Lane:
    """One priority class: per-tenant FIFOs under deficit round-robin."""

    def __init__(self) -> None:
        self._queues: "OrderedDict[str, deque[QueueEntry]]" = OrderedDict()
        self._rotation: deque[str] = deque()
        self._deficits: dict[str, float] = {}
        self.depth = 0

    def push(self, entry: QueueEntry, tenant: str) -> None:
        if tenant not in self._queues:
            self._queues[tenant] = deque()
            self._rotation.append(tenant)
            self._deficits[tenant] = 0.0
        self._queues[tenant].append(entry)
        self.depth += 1

    def pop(self) -> QueueEntry | None:
        """Next entry under DRR, or ``None`` when the lane is empty."""
        if self.depth == 0:
            return None
        # Terminates: every full rotation grants every waiting tenant one
        # credit, so some deficit reaches 1.
        while True:
            tenant = self._rotation[0]
            queue = self._queues.get(tenant)
            if not queue:
                self._retire(tenant)
                continue
            if self._deficits[tenant] >= 1.0:
                self._deficits[tenant] -= 1.0
                entry = queue.popleft()
                self.depth -= 1
                if not queue:
                    self._retire(tenant)  # forfeit residual credit
                return entry
            self._deficits[tenant] += 1.0
            self._rotation.rotate(-1)

    def _retire(self, tenant: str) -> None:
        self._queues.pop(tenant, None)
        self._deficits.pop(tenant, None)
        try:
            self._rotation.remove(tenant)
        except ValueError:
            pass

    def entries(self) -> Iterator[QueueEntry]:
        for queue in self._queues.values():
            yield from queue

    def remove(self, predicate: Callable[[QueueEntry], bool]) -> list[QueueEntry]:
        """Remove (and return, in seq order) every matching entry."""
        removed: list[QueueEntry] = []
        for tenant in list(self._queues):
            queue = self._queues[tenant]
            kept = deque(e for e in queue if not predicate(e))
            if len(kept) != len(queue):
                removed.extend(e for e in queue if predicate(e))
                self.depth -= len(queue) - len(kept)
                if kept:
                    self._queues[tenant] = kept
                else:
                    self._retire(tenant)
        removed.sort(key=lambda e: e.seq)
        return removed

    def youngest(self) -> QueueEntry | None:
        """The most recently enqueued entry (the cheapest one to shed)."""
        best: QueueEntry | None = None
        for entry in self.entries():
            if best is None or entry.seq > best.seq:
                best = entry
        return best


class PriorityRequestQueue:
    """Multi-class, tenant-fair request queue with depth accounting.

    Parameters
    ----------
    fifo:
        Disable all scheduling: one lane, one logical tenant, pure
        arrival order. This is the "no admission control" baseline the
        load benchmark compares against — the queue a naive front end
        would use.
    """

    def __init__(self, fifo: bool = False) -> None:
        self.fifo = fifo
        self._lanes: dict[int, _Lane] = {}
        self.depth = 0
        self.high_water = 0

    def _lane_for(self, rank: int) -> _Lane:
        if rank not in self._lanes:
            self._lanes[rank] = _Lane()
        return self._lanes[rank]

    def push(self, entry: QueueEntry) -> None:
        if self.fifo:
            # One lane, one logical tenant: arrival order, nothing else.
            self._lane_for(0).push(entry, "")
        else:
            self._lane_for(entry.rank).push(entry, entry.tenant)
        self.depth += 1
        self.high_water = max(self.high_water, self.depth)

    def pop(self) -> QueueEntry | None:
        """The next entry to serve: best lane first, DRR within it."""
        for rank in sorted(self._lanes):
            entry = self._lanes[rank].pop()
            if entry is not None:
                self.depth -= 1
                return entry
        return None

    def take_compatible(
        self, key: str, limit: int | None = None
    ) -> list[QueueEntry]:
        """Remove and return every queued entry batch-compatible with ``key``.

        Entries come back in arrival (seq) order across all lanes and
        tenants — cross-request batching deliberately ignores class and
        fairness, because adding a member to an already-paid-for mine
        costs one ``filter_min_support``, not a mining run; there is
        nothing to arbitrate. With ``limit``, the newest overflow
        entries go back into the queue for a later batch.
        """
        taken: list[QueueEntry] = []
        for lane in self._lanes.values():
            taken.extend(
                lane.remove(lambda e: e.gateway_request.batch_key() == key)
            )
        taken.sort(key=lambda e: e.seq)
        self.depth -= len(taken)
        if limit is not None and len(taken) > limit:
            for entry in taken[limit:]:
                self.push(entry)
            taken = taken[:limit]
        return taken

    def purge_expired(self, now: float) -> list[QueueEntry]:
        """Remove and return every entry whose deadline has elapsed."""
        expired: list[QueueEntry] = []
        for lane in self._lanes.values():
            expired.extend(lane.remove(lambda e: e.expired(now)))
        expired.sort(key=lambda e: e.seq)
        self.depth -= len(expired)
        return expired

    def shed_worse_than(self, rank: int) -> QueueEntry | None:
        """Remove the youngest entry of the worst lane strictly below ``rank``.

        Returns ``None`` when nothing queued is lower-priority than the
        incoming rank — the caller then rejects the arrival instead.
        In FIFO mode there are no priorities, so nothing ever sheds.
        """
        if self.fifo:
            return None
        for lane_rank in sorted(self._lanes, reverse=True):
            if lane_rank <= rank:
                break
            lane = self._lanes[lane_rank]
            victim = lane.youngest()
            if victim is not None:
                lane.remove(lambda e: e.seq == victim.seq)
                self.depth -= 1
                return victim
        return None

    def next_deadline(self) -> float | None:
        """The earliest queued deadline (``None`` when nothing expires)."""
        earliest: float | None = None
        for lane in self._lanes.values():
            for entry in lane.entries():
                deadline = entry.deadline_at()
                if deadline is not None and (
                    earliest is None or deadline < earliest
                ):
                    earliest = deadline
        return earliest

    def drain(self) -> list[QueueEntry]:
        """Remove and return everything, in arrival order (for shutdown)."""
        drained: list[QueueEntry] = []
        for lane in self._lanes.values():
            drained.extend(lane.remove(lambda e: True))
        drained.sort(key=lambda e: e.seq)
        self.depth -= len(drained)
        return drained

    def __len__(self) -> int:
        return self.depth
