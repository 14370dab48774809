"""Cross-request batching: one mine, many answers.

The service's single-flight coalescing only merges *byte-identical*
requests. The gateway generalizes it: every queued request on the same
database version is **compatible**, whatever support (or ``jobs``) it
asks for. A :class:`BatchPlan`
mines once at the group's minimum absolute support and serves every
member by ``filter_min_support`` over the shared result.

This is exact, not approximate — the same Section 2 case analysis the
planner runs: the full frequent-pattern set at the minimum support is a
superset of the set at every member's (higher-or-equal) support, so a
support filter over it *is* each member's answer, bit for bit. The
batching-correctness property test pins this across warehouse
representations (full / closed).

The economics are the paper's recycle-and-reuse argument applied at
request granularity: the warehouse amortizes mining across *time* (one
tenant's past pays for another's future); the batch amortizes it across
*concurrency* (one queue-mate's mine pays for the whole group, including
the warehouse write that then serves everyone later).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.gateway.queueing import QueueEntry
from repro.service import MineRequest, MineResponse


@dataclass(frozen=True)
class BatchPlan:
    """A group of compatible queued requests served by one computation.

    ``entries`` are in arrival order; ``entries[0]`` is the scheduling
    leader (the entry the queue chose to serve — its dequeue paid the
    priority/fairness toll for the whole group). ``min_support`` is the
    group's minimum absolute support, the threshold the shared mine
    runs at.
    """

    entries: tuple[QueueEntry, ...]
    min_support: int

    def __post_init__(self) -> None:
        assert self.entries, "a batch plan needs at least one entry"

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def batched(self) -> bool:
        """Whether cross-request batching actually merged anything."""
        return len(self.entries) > 1

    def shared_request(self) -> MineRequest:
        """The one service request that pays for the whole group.

        The leader's request with the group-minimum absolute support
        substituted in (as an ``int``, i.e. an absolute count under the
        library-wide support convention). Tenant attribution stays with
        the leader — it is the request the scheduler chose to serve.
        """
        return dataclasses.replace(
            self.entries[0].gateway_request.request, support=self.min_support
        )


def plan_batch(leader: QueueEntry, members: list[QueueEntry]) -> BatchPlan:
    """Build the plan for a leader plus the compatible entries pulled
    from the queue (which may include none — a singleton batch)."""
    ordered = [leader] + [m for m in members if m.seq != leader.seq]
    supports = [
        entry.gateway_request.request.absolute_support() for entry in ordered
    ]
    return BatchPlan(entries=tuple(ordered), min_support=min(supports))


def member_response(
    member: QueueEntry, shared: MineResponse, plan: BatchPlan
) -> MineResponse:
    """A member's exact response, derived from the shared computation.

    The member's absolute support is at least ``plan.min_support``, so
    its full frequent set is precisely ``filter_min_support`` over the
    shared result. Members share the leader's counters (the work was
    paid once — the same convention coalesced followers use), and are
    marked ``coalesced`` so aggregate accounting never double-charges
    the computation. A member at the shared support gets the shared
    response's path detail too (``update_mode``, ``feedstock_distance``);
    a filtered member's path is ``filter`` and carries none.
    """
    absolute = member.gateway_request.request.absolute_support()
    if absolute == shared.absolute_support:
        return dataclasses.replace(shared, tenant=member.tenant, coalesced=True)
    return MineResponse(
        tenant=member.tenant,
        path="filter",
        absolute_support=absolute,
        feedstock_support=shared.absolute_support,
        patterns=shared.patterns.filter_min_support(absolute),
        coalesced=True,
        elapsed_seconds=shared.elapsed_seconds,
        counters=shared.counters,
        degradation=shared.degradation,
    )
