"""The multi-tenant mining service.

:class:`MiningService` is the front door of the multi-user platform from
Section 2 of the paper: tenants submit :class:`MineRequest`s, a worker
pool executes them (a blocking :meth:`MiningService.execute` computes
on its caller's thread), and a shared :class:`PatternWarehouse` turns one
tenant's results into everyone else's feedstock. Each request is planned
with the same :mod:`repro.core.planner` decision the interactive
session uses — filter a cached superset, FUP-*update* a chain
ancestor's entry across an insert-only delta, or mine from scratch — so
the service never re-derives what the warehouse already paid for.

Three service-level mechanisms ride on top:

* **Single-flight coalescing.** Identical requests (same database
  fingerprint and absolute support) that are in flight at the same
  time share one underlying computation; followers
  attach to the leader's future instead of mining again. De-duplication
  happens at submit time in the caller's thread, so even requests that
  are still queued behind a busy pool coalesce. A leader that fails
  propagates its exception to every waiter, and the in-flight key is
  cleared first, so the next identical submit starts fresh.
* **A degradation ladder, not a cliff.** Every response carries a
  :class:`~repro.resilience.DegradationReport` naming each rung the
  request descended: a failed warehouse read degrades to a miss
  (``feedstock→miss: warehouse_read_failed``), a miss
  where quarantined feedstock used to be is named
  (``feedstock→mine: feedstock_quarantined``), and a warehouse that lost
  its disk keeps serving from memory (``warehouse→memory_only:
  write_failed``), and a failed update patch falls back to a clean
  mine (``update→mine: update_failed``). The service's
  ``fault_injector`` arms that patch's ``update.patch`` point.
* **Service statistics.** Every response is folded into a thread-safe
  :class:`ServiceStats`: per-path counts (filter hits / updates /
  misses), coalesced request count, underlying computation count,
  latency quantiles (p50/p95/p99 off a fixed-size reservoir, so a
  long-running service never grows stats memory without bound),
  and degraded-response counts by reason.

Requests do not choose the miner or the parallelism. Every request is
served in-process by the planner's serving kernel, ``eclat-bitset``,
and never recycled: on this kernel a cold mine beats MCP compression
plus the grouped kernel on every measured input (``docs/service.md``). A
request's ``jobs`` is validated but does not change how it is computed:
on these kernels the two-pass sharded scheme lost to one serial pass on
every measured input but one (``docs/parallel.md``), and only
``repro bench parallel-<dataset>`` still runs it. The registry's miners
all return the same pattern sets, so the choice changes cost, never the
answer. The paper's miner comparison stays available through
:func:`~repro.core.recycle.recycle_mine`,
:class:`~repro.core.session.MiningSession` and the CLI.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.planner import (
    PATH_FILTER,
    PATH_MINE,
    PATH_UPDATE,
    UPDATE_FUP,
    MiningPlan,
    execute_plan,
    plan_support_path,
    plan_update_path,
)
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.errors import ReproError
from repro.metrics.counters import CostCounters
from repro.metrics.reservoir import LatencyReservoir
from repro.mining.patterns import PatternSet
from repro.resilience import (
    REASON_FEEDSTOCK_QUARANTINED,
    REASON_WAREHOUSE_READ_FAILED,
    REASON_WRITE_FAILED,
    DegradationReport,
    FaultInjector,
)
from repro.service.warehouse import PatternWarehouse


@dataclass(frozen=True)
class MineRequest:
    """One tenant's mining request.

    ``support`` follows the library's one rule
    (:func:`~repro.data.transactions.absolute_support`): a float in
    ``(0, 1]`` is a relative fraction of the database (``1.0`` is every
    row); an int, or a float above 1, is an absolute count.

    ``version`` optionally places ``db`` in a
    :class:`~repro.data.versioned.VersionedDatabase` chain. A versioned
    request that misses the warehouse for its own fingerprint may still
    be served from a chain *ancestor*'s entry via the planner's update
    path; the version's database must be the request's database
    (validated at submit).

    ``jobs`` is accepted (an integer >= 1) for workload compatibility;
    the service computes every request in-process, so requests that
    differ only in ``jobs`` share one computation.
    """

    db: TransactionDatabase
    support: float | int
    tenant: str = "anonymous"
    jobs: int = 1
    version: VersionedDatabase | None = None

    def absolute_support(self) -> int:
        """The absolute threshold this request resolves to."""
        return self.db.relative_to_absolute(self.support)

    def version_fingerprint(self) -> str:
        """The fingerprint identifying this request's database *version*.

        Identical to ``db.fingerprint()`` (the version wraps the same
        database), but spelled through the chain when one is attached so
        version identity is explicit at call sites that must never mix
        versions (the gateway's ``batch_key``).
        """
        if self.version is not None:
            return self.version.fingerprint()
        return self.db.fingerprint()


@dataclass(frozen=True)
class MineResponse:
    """What the service did for one request and what it cost.

    ``counters`` belong to the underlying computation; a coalesced
    follower shares its leader's counters (the work was paid once), which
    is why aggregate accounting should sum over non-coalesced responses.
    ``degradation`` names every rung of the ladder the computation
    descended (empty when the request was served exactly as asked).
    """

    tenant: str
    path: str  # "filter" | "mine" | "update"
    absolute_support: int
    feedstock_support: int | None
    patterns: PatternSet
    coalesced: bool
    elapsed_seconds: float
    counters: CostCounters
    degradation: DegradationReport = field(default_factory=DegradationReport)
    #: Update-path detail: which patch engine ran (always "fup" here),
    #: and the delta distance to the ancestor whose entry was patched.
    update_mode: str | None = None
    feedstock_distance: int = 0

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)


@dataclass(frozen=True)
class _Computation:
    """The shared result of one underlying (leader) execution."""

    path: str
    absolute_support: int
    feedstock_support: int | None
    patterns: PatternSet
    counters: CostCounters
    elapsed_seconds: float
    degradation: DegradationReport = field(default_factory=DegradationReport)
    update_mode: str | None = None
    feedstock_distance: int = 0


class ServiceStats:
    """Thread-safe aggregation of responses into service-level numbers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.filter_hits = 0
        self.updates = 0
        self.misses = 0
        self.coalesced = 0
        self.computations = 0
        self.mine_runs = 0
        self.update_runs = 0
        self.degraded = 0
        #: Version-chain traffic: deltas applied through the service and
        #: chains registered with the warehouse.
        self.deltas_applied = 0
        self.versions_registered = 0
        self._degradation_reasons: dict[str, int] = {}
        self._latencies = LatencyReservoir()
        self._warehouse: PatternWarehouse | None = None
        self._gauge_sources: list[object] = []

    def attach_warehouse(self, warehouse: PatternWarehouse) -> None:
        """Surface warehouse storage gauges in :meth:`snapshot`."""
        self._warehouse = warehouse

    def attach_gauges(self, source: object) -> None:
        """Merge an external gauge source into :meth:`snapshot`.

        ``source`` is anything with a ``gauges() -> dict[str, float]``
        method. The gateway attaches its :class:`~repro.gateway.stats.
        GatewayStats` here, so one snapshot carries the request ledger,
        the warehouse economics and the queue's live state without the
        service layer importing the gateway above it.
        """
        self._gauge_sources.append(source)

    def record(self, response: MineResponse) -> None:
        with self._lock:
            self.requests += 1
            if response.path == "filter":
                self.filter_hits += 1
            elif response.path == "update":
                self.updates += 1
            else:
                self.misses += 1
            if response.coalesced:
                self.coalesced += 1
            else:
                self.computations += 1
                if response.path == "mine":
                    self.mine_runs += 1
                elif response.path == "update":
                    self.update_runs += 1
            if response.degradation.degraded:
                self.degraded += 1
                for label in response.degradation.reasons():
                    self._degradation_reasons[label] = (
                        self._degradation_reasons.get(label, 0) + 1
                    )
            self._latencies.add(response.elapsed_seconds)

    def record_delta_applied(self) -> None:
        """Count one database delta applied through the service."""
        with self._lock:
            self.deltas_applied += 1

    def record_version_registered(self) -> None:
        """Count one version chain registered with the warehouse."""
        with self._lock:
            self.versions_registered += 1

    def latency_quantile(self, q: float) -> float:
        """The q-quantile (0 < q <= 1) of recorded latencies (0.0 if none).

        Read off a fixed-size :class:`~repro.metrics.LatencyReservoir`
        — exact while the service has seen fewer observations than the
        reservoir holds, a uniform sample after.
        """
        with self._lock:
            return self._latencies.quantile(q)

    def path_rates(self) -> dict[str, float]:
        """Per-path (and degraded) request fractions, safe on an empty window.

        A fresh service (or an all-coalesced window, where every request
        rode a leader) must report rates without dividing by zero — each
        rate is defined as 0.0 when no requests have been recorded. The
        ``degraded`` rate counts responses whose ladder has at least one
        step, whatever path ultimately served them.
        """
        with self._lock:
            if self.requests == 0:
                return {
                    "filter": 0.0,
                    "update": 0.0,
                    "mine": 0.0,
                    "degraded": 0.0,
                }
            return {
                "filter": self.filter_hits / self.requests,
                "update": self.updates / self.requests,
                "mine": self.misses / self.requests,
                "degraded": self.degraded / self.requests,
            }

    def degradation_summary(self) -> dict[str, int]:
        """Counts per ``requested→served: reason`` label, most common first."""
        with self._lock:
            return dict(
                sorted(
                    self._degradation_reasons.items(),
                    key=lambda item: (-item[1], item[0]),
                )
            )

    def snapshot(self) -> dict[str, float]:
        """All aggregates as a plain dict (latencies as p50/p95/p99)."""
        p50 = self.latency_quantile(0.50)
        p95 = self.latency_quantile(0.95)
        p99 = self.latency_quantile(0.99)
        rates = self.path_rates()
        warehouse_gauges = self._warehouse_snapshot()
        external_gauges: dict[str, float] = {}
        for source in list(self._gauge_sources):
            external_gauges.update(source.gauges())
        with self._lock:
            return {
                "requests": self.requests,
                "filter_hits": self.filter_hits,
                "updates": self.updates,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "computations": self.computations,
                "mine_runs": self.mine_runs,
                "update_runs": self.update_runs,
                "degraded": self.degraded,
                "deltas_applied": self.deltas_applied,
                "versions_registered": self.versions_registered,
                "filter_rate": rates["filter"],
                "update_rate": rates["update"],
                "mine_rate": rates["mine"],
                "degraded_rate": rates["degraded"],
                "latency_p50_s": p50,
                "latency_p95_s": p95,
                "latency_p99_s": p99,
                **warehouse_gauges,
                **external_gauges,
            }

    def _warehouse_snapshot(self) -> dict[str, float]:
        """Storage gauges from the attached warehouse (empty when none).

        Called outside the stats lock — the warehouse has its own — and
        merged into :meth:`snapshot` so one dict carries both the request
        ledger and the condensation economics behind it.
        """
        if self._warehouse is None:
            return {}
        stats = self._warehouse.stats()
        return {
            "warehouse_entries": float(stats["entries"]),
            "warehouse_stored_bytes": float(stats["stored_bytes"]),
            "warehouse_resident_bytes": float(stats["resident_bytes"]),
            "warehouse_full_bytes": float(stats["full_bytes"]),
            "warehouse_condensed_entries": float(stats["condensed_entries"]),
            "warehouse_pressure_condensations": float(
                stats["pressure_condensations"]
            ),
            "warehouse_futile_condensations": float(
                stats["futile_condensations"]
            ),
            "warehouse_promotions": float(stats["promotions"]),
            "warehouse_condensation_ratio": self._warehouse.condensation_ratio(),
            "recovered_entries": float(stats["recovered_entries"]),
            "recovered_chains": float(stats["recovered_chains"]),
            "gc_dropped_chains": float(stats["gc_dropped_chains"]),
            "gc_collapsed_hops": float(stats["gc_collapsed_hops"]),
        }


class MiningService:
    """A concurrent, warehouse-backed mining service.

    Parameters
    ----------
    warehouse:
        The shared pattern store; ``None`` disables caching entirely
        (every non-coalesced request mines from scratch — the "cold"
        baseline the benchmarks compare against).
    max_workers:
        Worker-pool width for submitted requests. A leader arriving
        through :meth:`execute` runs on the calling thread instead.
    fault_injector:
        Handed to :func:`~repro.core.planner.execute_plan`, where it arms
        the update patch (``update.patch``).
    """

    def __init__(
        self,
        warehouse: PatternWarehouse | None = None,
        max_workers: int = 4,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if max_workers < 1:
            raise ReproError(f"max_workers must be >= 1, got {max_workers}")
        self.warehouse = warehouse
        self.faults = fault_injector
        self.stats = ServiceStats()
        if warehouse is not None:
            self.stats.attach_warehouse(warehouse)
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-mining"
        )
        self._inflight: dict[tuple[str, int], Future] = {}
        self._inflight_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------
    def submit(self, request: MineRequest) -> "Future[MineResponse]":
        """Enqueue a request; returns a future resolving to its response.

        Coalescing happens here, synchronously: if an identical request
        is already in flight the returned future simply wraps the
        leader's computation.
        """
        key, absolute, leader, coalesced = self._admit(request)
        response = self._await_response(request, leader, coalesced)
        if not coalesced:
            self._executor.submit(self._run_leader, key, request, absolute, leader)
        return response

    def execute(self, request: MineRequest) -> MineResponse:
        """Submit and wait: the blocking single-request entry point.

        A request that leads its computation runs it on the calling
        thread, which would otherwise only wait for a pool thread: the
        work stays on the caller's CPU instead of moving to whichever
        CPU the woken pool thread lands on. Such a leader builds and
        records its own response before its computation resolves for
        any follower; only a follower waits on a response future.
        """
        key, absolute, leader, coalesced = self._admit(request)
        if coalesced:
            return self._await_response(request, leader, True).result()
        computation = self._lead(key, request, absolute, leader)
        response = self._response(
            request, computation, False, computation.elapsed_seconds
        )
        self.stats.record(response)
        self._resolve(key, leader, computation)
        return response

    def _admit(
        self, request: MineRequest
    ) -> tuple[tuple[str, int], int, "Future[_Computation]", bool]:
        """Validate and coalesce ``request``: its coalescing key, its
        absolute support, the leader future of its computation, and
        whether it joined a computation already in flight (``False``
        when the caller leads and must compute it)."""
        if self._closed:
            raise ReproError("service is closed")
        if request.jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {request.jobs}")
        if request.version is not None:
            if request.version.fingerprint() != request.db.fingerprint():
                raise ReproError(
                    "request.version wraps a different database than "
                    "request.db — the chain and the payload must agree"
                )
            # Persist the chain's hops so a restarted service can
            # rebuild it and still reach warehoused ancestors.
            self._record_chain(request.version)
        absolute = request.absolute_support()
        key = (request.db.fingerprint(), absolute)
        with self._inflight_lock:
            leader = self._inflight.get(key)
            if leader is not None:
                return key, absolute, leader, True
            leader = Future()
            self._inflight[key] = leader
        return key, absolute, leader, False

    def _await_response(
        self,
        request: MineRequest,
        leader: "Future[_Computation]",
        coalesced: bool,
    ) -> "Future[MineResponse]":
        """The response future of a request that waits on ``leader``: a
        coalesced follower, or any request sent through :meth:`submit`.
        It records the response when the computation resolves."""
        submitted = time.perf_counter()
        response_future: "Future[MineResponse]" = Future()

        def _deliver(done: "Future[_Computation]") -> None:
            error = done.exception()
            if error is not None:
                response_future.set_exception(error)
                return
            computation = done.result()
            response = self._response(
                request,
                computation,
                coalesced,
                time.perf_counter() - submitted
                if coalesced
                else computation.elapsed_seconds,
            )
            self.stats.record(response)
            response_future.set_result(response)

        leader.add_done_callback(_deliver)
        return response_future

    @staticmethod
    def _response(
        request: MineRequest,
        computation: _Computation,
        coalesced: bool,
        elapsed_seconds: float,
    ) -> MineResponse:
        """``request``'s response from the computation that served it."""
        return MineResponse(
            tenant=request.tenant,
            path=computation.path,
            absolute_support=computation.absolute_support,
            feedstock_support=computation.feedstock_support,
            patterns=computation.patterns,
            coalesced=coalesced,
            elapsed_seconds=elapsed_seconds,
            counters=computation.counters,
            degradation=computation.degradation,
            update_mode=computation.update_mode,
            feedstock_distance=computation.feedstock_distance,
        )

    def execute_many(self, requests: list[MineRequest]) -> list[MineResponse]:
        """Submit every request up front, then gather in request order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # version-chain operations
    # ------------------------------------------------------------------
    def apply_delta(
        self, version: VersionedDatabase, delta: DatabaseDelta
    ) -> VersionedDatabase:
        """Advance a tenant's database chain by one delta.

        Returns the child version; its hop is recorded with the
        warehouse (a durable chain record when disk-backed), so even a
        restarted service can serve the new fingerprint from the
        parent's warehoused patterns through the update path.
        """
        child = version.apply(delta)
        self.register_version(child)
        self.stats.record_delta_applied()
        return child

    def register_version(self, version: VersionedDatabase) -> None:
        """Record a version chain's hops with the warehouse."""
        self._record_chain(version)
        self.stats.record_version_registered()

    def _record_chain(self, version: VersionedDatabase) -> None:
        if self.warehouse is not None:
            self.warehouse.record_version(version)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Finish in-flight work and shut the pool down."""
        self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_leader(
        self,
        key: tuple[str, int],
        request: MineRequest,
        absolute: int,
        leader: "Future[_Computation]",
    ) -> None:
        """Compute a submitted leader on a pool thread and resolve it.

        A failure has reached every waiter through ``leader`` by the
        time it ends this pool task.
        """
        self._resolve(key, leader, self._lead(key, request, absolute, leader))

    def _lead(
        self,
        key: tuple[str, int],
        request: MineRequest,
        absolute: int,
        leader: "Future[_Computation]",
    ) -> _Computation:
        """Run the leader's computation; a failure reaches every waiter
        through ``leader`` and is re-raised to the caller."""
        try:
            return self._compute(key[0], request, absolute)
        except BaseException as exc:  # propagate to every waiter
            # Clear the in-flight entry *before* failing the future, so
            # a retry submitted by any waiter starts a fresh leader
            # instead of re-attaching to this corpse.
            with self._inflight_lock:
                self._inflight.pop(key, None)
            leader.set_exception(exc)
            raise

    def _resolve(
        self,
        key: tuple[str, int],
        leader: "Future[_Computation]",
        computation: _Computation,
    ) -> None:
        """Hand ``computation`` to every waiter on ``leader``."""
        # Drop the in-flight entry *before* resolving the future: a new
        # identical request arriving after resolution must start a fresh
        # computation (it will typically hit the warehouse instead).
        with self._inflight_lock:
            self._inflight.pop(key, None)
        leader.set_result(computation)

    def _find_feedstock(
        self,
        fingerprint: str,
        absolute: int,
        degradation: DegradationReport,
        version: VersionedDatabase | None = None,
    ):
        """Consult the warehouse, degrading read failures to a miss.

        A versioned request searches the whole chain in one lookup —
        nearest warehoused ancestor first — so a brand-new version whose
        parent is warehoused still comes back a (distance > 0) hit
        instead of a cold miss.
        """
        if self.warehouse is None:
            return None
        try:
            if version is not None:
                hit = self.warehouse.ancestor_feedstock(
                    fingerprint, absolute, lineage=version.lineage()
                )
            else:
                hit = self.warehouse.best_feedstock(fingerprint, absolute)
        except ReproError:
            # An injected (or genuine) read failure: the feedstock is
            # unavailable, not poisoned — serve a miss and keep going.
            degradation.record("feedstock", "miss", REASON_WAREHOUSE_READ_FAILED)
            return None
        if hit is None and self.warehouse.has_quarantined(fingerprint):
            # Not a cold miss: this database *had* stored patterns, and
            # they were quarantined at load. Name the real reason.
            degradation.record("feedstock", "mine", REASON_FEEDSTOCK_QUARANTINED)
        return hit

    def _compute(
        self, fingerprint: str, request: MineRequest, absolute: int
    ) -> _Computation:
        counters = CostCounters()
        degradation = DegradationReport()
        started = time.perf_counter()
        version = request.version
        if version is None and self.warehouse is not None:
            # An unversioned request may be a post-restart resubmit of a
            # database whose chain was persisted before the crash.
            # Rebuilding it from durable chain records re-opens the
            # update path instead of mining the new version cold.
            version = self.warehouse.restore_version(request.db)
        hit = self._find_feedstock(fingerprint, absolute, degradation, version=version)
        if hit is not None and hit.distance > 0:
            plan = self._plan_from_ancestor(request, absolute, hit, version)
        else:
            plan = plan_support_path(
                absolute,
                hit.feedstock if hit is not None else None,
                hit.absolute_support if hit is not None else None,
            )
        patterns = execute_plan(
            plan,
            request.db,
            absolute,
            counters=counters,
            fault_injector=self.faults,
            degradation=degradation,
        )
        if self.warehouse is not None and plan.path != PATH_FILTER:
            # Filter results are cheap derivations of an existing entry;
            # storing them would only dilute the byte budget. Mined and
            # patched sets are new capital — shelve them.
            was_memory_only = self.warehouse.memory_only_reason is not None
            self.warehouse.put(
                fingerprint, absolute, patterns, n_transactions=len(request.db)
            )
            if not was_memory_only and self.warehouse.memory_only_reason:
                degradation.record("warehouse", "memory_only", REASON_WRITE_FAILED)
        elapsed = time.perf_counter() - started
        return _Computation(
            path=plan.path,
            absolute_support=absolute,
            feedstock_support=plan.feedstock_support,
            patterns=patterns,
            counters=counters,
            elapsed_seconds=elapsed,
            degradation=degradation,
            update_mode=plan.update_mode,
            feedstock_distance=plan.distance,
        )

    def _plan_from_ancestor(
        self,
        request: MineRequest,
        absolute: int,
        hit,
        version: VersionedDatabase,
    ) -> MiningPlan:
        """Turn an ancestor warehouse hit into an FUP update or a mine.

        ``version`` is the chain the feedstock lookup walked — the
        request's own, or one rebuilt from durable chain records for an
        unversioned post-restart request — so it holds the ancestor and
        the exact delta is reconstructible. Only an FUP patch is served:
        any other update (a delta with deletions, churn past the cutoff)
        mines cold, which beats recycling the ancestor's patterns on the
        serving kernel.
        """
        ancestor = version.ancestor(hit.fingerprint)
        plan = plan_update_path(
            absolute,
            hit.feedstock,
            hit.absolute_support,
            ancestor.db,
            version.delta_from(ancestor),
            len(request.db),
            ancestor_fingerprint=hit.fingerprint,
            distance=hit.distance,
        )
        if plan.path == PATH_UPDATE and plan.update_mode != UPDATE_FUP:
            return MiningPlan(PATH_MINE)
        return plan
