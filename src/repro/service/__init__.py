"""Multi-tenant mining service with a persistent pattern warehouse.

The shared-platform scenario of Section 2, as a subsystem: a
:class:`PatternWarehouse` shelves every tenant's support-level results
keyed by database fingerprint, and a :class:`MiningService` plans each
incoming request against it — filter a cached superset, FUP-patch a
chain ancestor's entry, or mine from scratch — with single-flight
coalescing for identical concurrent requests. :mod:`repro.service.workload` replays
JSON request traces through a service (the ``repro serve-batch`` CLI).
"""

from repro.service.service import (
    MineRequest,
    MineResponse,
    MiningService,
    ServiceStats,
)
from repro.service.warehouse import PatternWarehouse, WarehouseHit
from repro.service.workload import (
    DeltaOp,
    load_workload,
    load_workload_items,
    parse_workload,
    parse_workload_items,
    serve_workload,
)

__all__ = [
    "DeltaOp",
    "MineRequest",
    "MineResponse",
    "MiningService",
    "PatternWarehouse",
    "ServiceStats",
    "WarehouseHit",
    "load_workload",
    "load_workload_items",
    "parse_workload",
    "parse_workload_items",
    "serve_workload",
]
