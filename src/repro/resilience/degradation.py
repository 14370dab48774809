"""Structured record of how a request was degraded, and why.

"Failure is not an error" runs through the whole stack — the sharded
engine falls back to serial, the warehouse serves a miss where
quarantined feedstock used to be, write-throughs degrade to memory-only,
a failed update patch re-mines cold. Each of those is the *right*
behavior, but an operator (and the acceptance tests) must be able to see
that it happened. A :class:`DegradationReport` is that audit trail: an
ordered chain of ``requested → served: reason`` steps accumulated as a
request descends the degradation ladder, returned on
:class:`~repro.service.MineResponse`, folded into ``ServiceStats`` and
printed by the CLI.

Reason strings are short machine-readable codes (``shard_failed``,
``merge_failed``, ``feedstock_quarantined``, ``warehouse_read_failed``,
``write_failed``, ``fup_insert_only``, ``update_failed``, plus the
gateway's admission-control codes ``queue_full``, ``load_shed``,
``deadline_expired`` and ``gateway_closed``) so they aggregate cleanly;
human detail belongs in logs and ``fallback_reason`` fields, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

# The reason codes emitted by the shipped hook sites. Not enforced —
# new sites may add codes — but tests and dashboards key off these.

#: The sharded engine's shard pass raised; the serial path answered.
REASON_SHARD_FAILED = "shard_failed"
#: The sharded engine's merge recount raised; the serial path answered.
REASON_MERGE_FAILED = "merge_failed"
REASON_FEEDSTOCK_QUARANTINED = "feedstock_quarantined"
REASON_WAREHOUSE_READ_FAILED = "warehouse_read_failed"
REASON_WRITE_FAILED = "write_failed"
#: Gateway admission control: the queue was full and the arrival was
#: turned away (no lower-priority work was available to shed).
REASON_QUEUE_FULL = "queue_full"
#: Gateway admission control: queued lower-priority work was dropped to
#: admit a higher-priority arrival under saturation.
REASON_LOAD_SHED = "load_shed"
#: A request's deadline elapsed while it sat in the gateway queue; the
#: gateway rejects it instead of mining stale work.
REASON_DEADLINE_EXPIRED = "deadline_expired"
#: The gateway shut down with the request still queued.
REASON_GATEWAY_CLOSED = "gateway_closed"
#: The update path was asked to FUP-patch a delta containing deletions
#: (or stale relative supports) — FUP is insert-only, so the request
#: degrades to a sound path instead of producing wrong supports.
REASON_FUP_INSERT_ONLY = "fup_insert_only"
#: An update-path patch failed mid-flight (fault, corrupt feedstock,
#: miner error); the request degrades to a clean scratch mine.
REASON_UPDATE_FAILED = "update_failed"


@dataclass(frozen=True)
class DegradationStep:
    """One rung down the ladder: what was asked for, what was served."""

    requested: str
    served: str
    reason: str

    def describe(self) -> str:
        return f"{self.requested}→{self.served}: {self.reason}"


class DegradationReport:
    """An ordered, append-only chain of degradation steps.

    Mutable by design: one report threads through planner and service
    for a single request, each hook appending the step it took.
    Not thread-safe — a report belongs to exactly one request.
    """

    def __init__(self, steps: tuple[DegradationStep, ...] = ()) -> None:
        self._steps: list[DegradationStep] = list(steps)

    def record(self, requested: str, served: str, reason: str) -> None:
        """Append one ``requested → served: reason`` step."""
        self._steps.append(DegradationStep(requested, served, reason))

    @property
    def steps(self) -> tuple[DegradationStep, ...]:
        return tuple(self._steps)

    @property
    def degraded(self) -> bool:
        """Whether anything was served below what was requested."""
        return bool(self._steps)

    def describe(self) -> str:
        """The whole chain as one line (empty string when undegraded)."""
        return "; ".join(step.describe() for step in self._steps)

    def reasons(self) -> list[str]:
        """The per-step ``requested→served: reason`` labels, in order."""
        return [step.describe() for step in self._steps]

    def __bool__(self) -> bool:
        return self.degraded

    def __len__(self) -> int:
        return len(self._steps)

    def __repr__(self) -> str:
        return f"DegradationReport({self.describe()!r})"
