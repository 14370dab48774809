"""Resilience primitives: fault injection, retries, breaker, degradation.

The platform vision of Section 2 — a long-running multi-user mining
service whose warehouse of prior patterns is the recycling feedstock —
only pays off if the service survives the failures long-running systems
actually see. This package is the shared vocabulary for that survival,
kept deliberately low in the layer diagram (it imports nothing above
:mod:`repro.errors` and :mod:`repro.metrics`, and is imported by
:mod:`repro.core`, :mod:`repro.parallel` and :mod:`repro.service`):

:mod:`repro.resilience.faults`
    A seeded, deterministic :class:`FaultInjector` with eight named fault
    points (``shard.crash``, ``shard.slow``, ``warehouse.read``,
    ``warehouse.write``, ``merge.count``, ``update.patch``,
    ``persist.write``, ``persist.rename``) — the
    chaos harness every resilience test is written against.
:mod:`repro.resilience.retry`
    :class:`RetryPolicy` (capped exponential backoff, deterministic
    jitter) and the three-state :class:`CircuitBreaker` that trips the
    parallel path to serial after consecutive whole-run fallbacks.
:mod:`repro.resilience.degradation`
    :class:`DegradationReport`, the structured ``requested → served:
    reason`` audit trail a request accumulates as it descends the
    degradation ladder.

:class:`ResilienceConfig` bundles the three so one argument threads them
through ``recycle_mine`` / ``execute_plan`` / ``MiningSession`` /
``MiningService``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.degradation import (
    REASON_CIRCUIT_OPEN,
    REASON_DEADLINE,
    REASON_DEADLINE_EXPIRED,
    REASON_FEEDSTOCK_QUARANTINED,
    REASON_FUP_INSERT_ONLY,
    REASON_GATEWAY_CLOSED,
    REASON_LOAD_SHED,
    REASON_MERGE_FAILED,
    REASON_QUEUE_FULL,
    REASON_SHARD_FAILED,
    REASON_UPDATE_FAILED,
    REASON_WAREHOUSE_READ_FAILED,
    REASON_WORKER_ERROR,
    REASON_WRITE_FAILED,
    DegradationReport,
    DegradationStep,
)
from repro.resilience.faults import (
    FAULT_POINTS,
    MERGE_COUNT,
    PERSIST_FAULT_POINTS,
    PERSIST_RENAME,
    PERSIST_WRITE,
    SHARD_CRASH,
    SHARD_SLOW,
    UPDATE_PATCH,
    WAREHOUSE_READ,
    WAREHOUSE_WRITE,
    FaultInjector,
    FaultRule,
    FiredFault,
)
from repro.resilience.retry import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RetryPolicy,
)


@dataclass(frozen=True)
class ResilienceConfig:
    """The resilience knobs a caller threads through the stack.

    All three are handed to every :class:`~repro.parallel.ParallelEngine`
    built on the caller's behalf; the engine consults ``breaker`` before
    each parallel attempt and feeds it the outcome. All three default to
    ``None`` (engine defaults apply; no injection; no breaker).
    """

    retry: RetryPolicy | None = None
    faults: FaultInjector | None = None
    breaker: CircuitBreaker | None = None


__all__ = [
    "CLOSED",
    "FAULT_POINTS",
    "HALF_OPEN",
    "MERGE_COUNT",
    "OPEN",
    "PERSIST_FAULT_POINTS",
    "PERSIST_RENAME",
    "PERSIST_WRITE",
    "REASON_CIRCUIT_OPEN",
    "REASON_DEADLINE",
    "REASON_DEADLINE_EXPIRED",
    "REASON_FEEDSTOCK_QUARANTINED",
    "REASON_FUP_INSERT_ONLY",
    "REASON_GATEWAY_CLOSED",
    "REASON_LOAD_SHED",
    "REASON_MERGE_FAILED",
    "REASON_QUEUE_FULL",
    "REASON_SHARD_FAILED",
    "REASON_UPDATE_FAILED",
    "REASON_WAREHOUSE_READ_FAILED",
    "REASON_WORKER_ERROR",
    "REASON_WRITE_FAILED",
    "SHARD_CRASH",
    "SHARD_SLOW",
    "UPDATE_PATCH",
    "WAREHOUSE_READ",
    "WAREHOUSE_WRITE",
    "CircuitBreaker",
    "DegradationReport",
    "DegradationStep",
    "FaultInjector",
    "FaultRule",
    "FiredFault",
    "ResilienceConfig",
    "RetryPolicy",
]
