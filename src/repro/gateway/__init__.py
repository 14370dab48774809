"""Async high-throughput gateway in front of the mining service.

The traffic-management layer between "millions of users" and the
:class:`~repro.service.MiningService` worker pool: priority queueing
with per-request deadlines, admission control with load shedding,
cross-request batching (one mine at the group-minimum support serves a
whole compatible cohort via ``filter_min_support``), and
deficit-round-robin tenant fairness. See ``docs/gateway.md``.

Layering: ``repro.gateway`` sits *above* ``repro.service`` and below
``repro.bench`` / the CLI; the service never imports it (gauges flow the
other way through ``ServiceStats.attach_gauges``).
"""

from repro.gateway.batching import BatchPlan, member_response, plan_batch
from repro.gateway.gateway import GatewayConfig, MiningGateway
from repro.gateway.queueing import PriorityRequestQueue, QueueEntry
from repro.gateway.request import (
    PRIORITY_BATCH,
    PRIORITY_CLASSES,
    PRIORITY_INTERACTIVE,
    PRIORITY_RANKS,
    PRIORITY_STANDARD,
    STATUS_EXPIRED,
    STATUS_REJECTED,
    STATUS_SERVED,
    STATUS_SHED,
    GatewayRequest,
    GatewayResponse,
)
from repro.gateway.stats import GatewayStats
from repro.gateway.traffic import (
    PRIORITY_MIX,
    TrafficConfig,
    bursts,
    synthesize_traffic,
)

__all__ = [
    "BatchPlan",
    "GatewayConfig",
    "GatewayRequest",
    "GatewayResponse",
    "GatewayStats",
    "MiningGateway",
    "PRIORITY_BATCH",
    "PRIORITY_CLASSES",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_MIX",
    "PRIORITY_RANKS",
    "PRIORITY_STANDARD",
    "PriorityRequestQueue",
    "QueueEntry",
    "STATUS_EXPIRED",
    "STATUS_REJECTED",
    "STATUS_SERVED",
    "STATUS_SHED",
    "TrafficConfig",
    "bursts",
    "member_response",
    "plan_batch",
    "synthesize_traffic",
]
