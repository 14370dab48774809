"""Resilience primitives: fault injection and the degradation ladder.

The platform vision of Section 2 — a long-running multi-user mining
service whose warehouse of prior patterns is the recycling feedstock —
only pays off if the service survives the failures long-running systems
actually see. This package is the shared vocabulary for that survival,
kept deliberately low in the layer diagram (it imports nothing above
:mod:`repro.errors`, and is imported by :mod:`repro.core`,
:mod:`repro.durability`, :mod:`repro.service` and :mod:`repro.gateway`):

:mod:`repro.resilience.faults`
    A seeded, deterministic :class:`FaultInjector` with five named fault
    points (``warehouse.read``, ``warehouse.write``, ``update.patch``,
    ``persist.write``, ``persist.rename``) — the chaos harness every
    resilience test is written against. Each hook site takes the
    injector as its ``fault_injector`` argument.
:mod:`repro.resilience.degradation`
    :class:`DegradationReport`, the structured ``requested → served:
    reason`` audit trail a request accumulates as it descends the
    degradation ladder.
"""

from __future__ import annotations

from repro.resilience.degradation import (
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
    REASON_WRITE_FAILED,
    DegradationReport,
    DegradationStep,
)
from repro.resilience.faults import (
    FAULT_POINTS,
    PERSIST_FAULT_POINTS,
    PERSIST_RENAME,
    PERSIST_WRITE,
    UPDATE_PATCH,
    WAREHOUSE_READ,
    WAREHOUSE_WRITE,
    FaultInjector,
    FaultRule,
    FiredFault,
)

__all__ = [
    "FAULT_POINTS",
    "PERSIST_FAULT_POINTS",
    "PERSIST_RENAME",
    "PERSIST_WRITE",
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
    "REASON_WRITE_FAILED",
    "UPDATE_PATCH",
    "WAREHOUSE_READ",
    "WAREHOUSE_WRITE",
    "DegradationReport",
    "DegradationStep",
    "FaultInjector",
    "FaultRule",
    "FiredFault",
]
