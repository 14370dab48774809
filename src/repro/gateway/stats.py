"""Gateway observability: queue gauges, admission counters, class histograms.

:class:`GatewayStats` is the gateway's ledger, kept separate from
:class:`~repro.service.ServiceStats` because the two count different
things: the service counts *computations* (what the pool executed), the
gateway counts *submissions* (what tenants asked for — including the
batched members, shed work and expired requests the service never saw).
The gateway attaches its stats to the service's via
``ServiceStats.attach_gauges``, so one ``snapshot()`` still tells the
whole story without the service layer importing the gateway above it.

Two latency bases are tracked per priority class:

* **seconds** — wall-clock from enqueue to resolution. What an operator
  watches; machine-dependent, so benchmarks report it as advisory.
* **work** — the gateway's cumulative machine-independent work counter
  (``CostCounters.total_work`` summed over dispatched computations) at
  resolution time. Deterministic for a deterministic schedule, which is
  what lets CI gate "high-priority traffic finishes earlier under
  admission control" without trusting a shared runner's wall clock.

Both are fixed-size :class:`~repro.metrics.LatencyReservoir`\\ s, so a
long-running gateway's stats memory is bounded exactly like the
service's.
"""

from __future__ import annotations

import threading

from repro.metrics.reservoir import LatencyReservoir
from repro.gateway.request import (
    PRIORITY_CLASSES,
    STATUS_EXPIRED,
    STATUS_REJECTED,
    STATUS_SERVED,
    STATUS_SHED,
    GatewayResponse,
)


class GatewayStats:
    """Thread-safe aggregation of gateway outcomes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.served = 0
        self.shed = 0
        self.rejected = 0
        self.expired = 0
        self.failed = 0
        #: Dispatched batch plans (singletons included).
        self.batches = 0
        #: Plans that merged more than one request.
        self.merged_batches = 0
        #: Requests served as members of a multi-request batch.
        self.batched_requests = 0
        #: Cumulative machine-independent work dispatched (leader
        #: computations' ``total_work``; coalesced leaders charge 0).
        self.work_executed = 0
        self.queue_depth = 0
        self.queue_high_water = 0
        self._seconds: dict[str, LatencyReservoir] = {
            cls: LatencyReservoir() for cls in PRIORITY_CLASSES
        }
        self._work: dict[str, LatencyReservoir] = {
            cls: LatencyReservoir() for cls in PRIORITY_CLASSES
        }

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def record_failure(self) -> None:
        """A dispatched computation raised; its members got the exception."""
        with self._lock:
            self.failed += 1

    def record_batch(self, size: int, leader_work: int) -> None:
        """One plan dispatched: ``size`` requests on one computation."""
        with self._lock:
            self.batches += 1
            if size > 1:
                self.merged_batches += 1
                self.batched_requests += size
            self.work_executed += leader_work

    def record_outcome(self, response: GatewayResponse) -> None:
        with self._lock:
            if response.status == STATUS_SERVED:
                self.served += 1
            elif response.status == STATUS_SHED:
                self.shed += 1
            elif response.status == STATUS_REJECTED:
                self.rejected += 1
            elif response.status == STATUS_EXPIRED:
                self.expired += 1
            cls = response.priority
            if response.status == STATUS_SERVED and cls in self._seconds:
                latency = response.queue_seconds + (
                    response.response.elapsed_seconds
                    if response.response is not None
                    else 0.0
                )
                self._seconds[cls].add(latency)
                if response.served_at_work is not None:
                    self._work[cls].add(float(response.served_at_work))

    def note_queue_depth(self, depth: int, high_water: int) -> None:
        with self._lock:
            self.queue_depth = depth
            self.queue_high_water = max(self.queue_high_water, high_water)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def current_work(self) -> int:
        with self._lock:
            return self.work_executed

    def latency_quantile(self, priority: str, q: float) -> float:
        """Wall-clock q-quantile for one priority class (0.0 when empty)."""
        with self._lock:
            reservoir = self._seconds.get(priority)
            return reservoir.quantile(q) if reservoir is not None else 0.0

    def work_quantile(self, priority: str, q: float) -> float:
        """Machine-independent work-position q-quantile for one class."""
        with self._lock:
            reservoir = self._work.get(priority)
            return reservoir.quantile(q) if reservoir is not None else 0.0

    def gauges(self) -> dict[str, float]:
        """The gateway gauges merged into ``ServiceStats.snapshot()``."""
        with self._lock:
            gauges = {
                "gateway_submitted": float(self.submitted),
                "gateway_served": float(self.served),
                "gateway_shed": float(self.shed),
                "gateway_rejected": float(self.rejected),
                "gateway_expired": float(self.expired),
                "gateway_failed": float(self.failed),
                "gateway_batches": float(self.batches),
                "gateway_merged_batches": float(self.merged_batches),
                "gateway_batched_requests": float(self.batched_requests),
                "gateway_work_executed": float(self.work_executed),
                "gateway_queue_depth": float(self.queue_depth),
                "gateway_queue_high_water": float(self.queue_high_water),
            }
            for cls in PRIORITY_CLASSES:
                gauges[f"gateway_p50_{cls}_s"] = self._seconds[cls].quantile(0.50)
                gauges[f"gateway_p99_{cls}_s"] = self._seconds[cls].quantile(0.99)
            return gauges

    def snapshot(self) -> dict[str, float]:
        """Alias for :meth:`gauges` (symmetry with ``ServiceStats``)."""
        return self.gauges()
