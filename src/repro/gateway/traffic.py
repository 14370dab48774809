"""Synthetic heavy-traffic workload generator for the gateway.

The load benchmark and the gateway stress tests need traffic that looks
like the shared-platform scenario — many tenants, a few of them hot,
analysts walking support ladders, arrivals clumped into bursts — and
they need it *deterministic*, because CI gates on the machine-independent
counters the schedule produces. :func:`synthesize_traffic` builds such a
trace from a seed:

* **Zipfian tenant popularity** — tenant ``rank`` (1-based) is drawn
  with weight ``1 / rank**1.2``, so a handful of tenants
  dominate, exactly the regime where per-tenant fairness and
  cross-request batching matter.
* **Support-ladder sessions** — each session is one tenant re-mining the
  same database at up to three descending supports (the paper's
  iterative-refinement usage pattern, and the planner's filter/recycle
  sweet spot), at a priority drawn from :data:`PRIORITY_MIX`.
* **Burst arrivals** — requests land in bursts separated by 0.05 s gaps
  (0.001 s apart inside a burst), the arrival process that actually
  exercises admission control: a queue that never fills never sheds.

Everything is driven by one ``random.Random(seed)``; the same seed and
config produce the identical list of ``(arrival_offset, GatewayRequest)``
pairs on any machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.data.transactions import TransactionDatabase
from repro.errors import GatewayError
from repro.gateway.request import PRIORITY_CLASSES, GatewayRequest
from repro.service import MineRequest

#: The priority class of each session: mostly interactive and standard
#: traffic, some batch.
PRIORITY_MIX: dict[str, float] = {
    "interactive": 0.3,
    "standard": 0.5,
    "batch": 0.2,
}


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of a synthetic gateway workload (all knobs seeded)."""

    requests: int = 100
    tenants: int = 8
    seed: int = 7
    #: Requests per arrival burst.
    burst_length: int = 8
    #: Fraction of requests carrying a 0.5 s deadline (0 disables
    #: deadlines).
    deadline_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise GatewayError(f"requests must be >= 1, got {self.requests}")
        if self.tenants < 1:
            raise GatewayError(f"tenants must be >= 1, got {self.tenants}")
        if self.burst_length < 1:
            raise GatewayError(
                f"burst_length must be >= 1, got {self.burst_length}"
            )
        if not 0.0 <= self.deadline_fraction <= 1.0:
            raise GatewayError(
                f"deadline_fraction must be in [0, 1], got "
                f"{self.deadline_fraction}"
            )


def synthesize_traffic(
    db: TransactionDatabase,
    supports: "list[int]",
    config: TrafficConfig | None = None,
) -> "list[tuple[float, GatewayRequest]]":
    """Build a deterministic ``(arrival_offset, request)`` trace.

    ``supports`` is the absolute-support menu sessions walk down (it is
    sorted descending internally). Offsets are synthetic seconds from
    the start of the trace; a replayer may honor them (sleep), compress
    them (fire bursts back-to-back) or ignore them entirely — the bench
    submits burst-by-burst and lets queue contention come from the
    service's real latency.
    """
    if not supports:
        raise GatewayError("supports menu must not be empty")
    cfg = config or TrafficConfig()
    rng = random.Random(cfg.seed)
    menu = sorted(set(int(s) for s in supports), reverse=True)
    tenant_popularity = [1.0 / (rank**1.2) for rank in range(1, cfg.tenants + 1)]
    tenant_names = [f"tenant-{i:02d}" for i in range(1, cfg.tenants + 1)]
    classes = list(PRIORITY_MIX)
    class_weights = list(PRIORITY_MIX.values())

    trace: "list[tuple[float, GatewayRequest]]" = []
    offset = 0.0
    in_burst = 0
    # Session state: (tenant, priority, remaining ladder of supports).
    session_tenant = ""
    session_priority = PRIORITY_CLASSES[1]
    ladder: list[int] = []
    while len(trace) < cfg.requests:
        if not ladder:
            session_tenant = rng.choices(tenant_names, tenant_popularity)[0]
            session_priority = rng.choices(classes, class_weights)[0]
            # A descending walk: start somewhere on the menu, take up to
            # three steps down it (iterative refinement).
            start = rng.randrange(len(menu))
            ladder = list(menu[start : start + 3])
        support = ladder.pop(0)
        deadline = (
            0.5
            if cfg.deadline_fraction > 0
            and rng.random() < cfg.deadline_fraction
            else None
        )
        request = GatewayRequest(
            request=MineRequest(
                db=db,
                support=support,
                tenant=session_tenant,
            ),
            priority=session_priority,
            deadline_seconds=deadline,
        )
        trace.append((offset, request))
        in_burst += 1
        if in_burst >= cfg.burst_length:
            offset += 0.05
            in_burst = 0
        else:
            offset += 0.001
    return trace


def bursts(
    trace: "list[tuple[float, GatewayRequest]]",
    gap_threshold_seconds: float,
) -> "list[list[GatewayRequest]]":
    """Split a trace into arrival bursts at gaps >= the threshold.

    The load bench submits one burst at a time (then drains), which is
    how contemporaneous requests end up queued together for
    cross-request batching without depending on real thread timing.
    """
    groups: "list[list[GatewayRequest]]" = []
    current: "list[GatewayRequest]" = []
    previous: float | None = None
    for offset, request in trace:
        if (
            previous is not None
            and offset - previous >= gap_threshold_seconds
            and current
        ):
            groups.append(current)
            current = []
        current.append(request)
        previous = offset
    if current:
        groups.append(current)
    return groups
