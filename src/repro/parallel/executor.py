"""The process-pool engine driving the two-pass partition scheme.

One parallel run is: Phase 1 once in the calling process (compression is
cheap and produces the :class:`~repro.core.groups.GroupedDatabase` the
:class:`~repro.parallel.sharding.ShardPlanner` splits), then one
:class:`ShardTask` per shard shipped to a ``ProcessPoolExecutor`` worker,
then the merge pass (:mod:`repro.parallel.merge`) back in the caller.

Every payload that crosses the process boundary is deliberately boring:
a :class:`ShardTask` pickles down to plain tuples (the shard rebuilds its
database and masks lazily on the far side), and a worker answers with a
plain dict of tuples — patterns as ``((items...), support)`` pairs and
its :class:`~repro.metrics.counters.CostCounters` as a name→int dict,
rebuilt and merged via ``CostCounters.merge`` on return.

Inside a worker the existing planner trichotomy applies: a shard that
arrives with feedstock (sliced per shard fingerprint by the caller's
``shard_feedstock`` hook) runs :func:`~repro.core.planner.plan_support_path` /
``execute_plan`` — filter, recycle or mine, whichever is cheapest and
sound *for that shard* — while a shard without feedstock mines its slice
of the grouped database directly with the chosen recycling miner (the
groups were compressed once, globally) or a baseline miner when there was
nothing to recycle.

Failure is not an error, and it is handled *per shard* before it is
handled per run: a crashed or timed-out shard is retried individually
with capped exponential backoff and deterministic jitter
(:class:`~repro.resilience.RetryPolicy`), budgeted by attempts and by
the engine's wall-clock deadline. Only when a shard exhausts that budget
(or the whole pass misses its deadline) does the engine fall back to the
equivalent in-process path — salvaging the counters of every shard that
*did* finish (recorded under ``parallel_wasted_work``), recording
``parallel_fallbacks``, the reason on the outcome, and a
``parallel→serial`` step on the outcome's
:class:`~repro.resilience.DegradationReport` — so a parallel call can
never produce worse results than a serial one, only, at worst, the same
results later. A :class:`~repro.resilience.FaultInjector` can be armed
on the engine to exercise exactly these paths (``shard.crash``,
``shard.slow``, ``merge.count``) deterministically.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle
import time
from concurrent.futures import ALL_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.compression import CompressionResult, compress
from repro.core.groups import GroupedDatabase
from repro.core.planner import (
    PATH_FILTER,
    PATH_MINE,
    PATH_RECYCLE,
    execute_plan,
    plan_support_path,
    resolve_baseline_algorithm,
    resolve_recycling_algorithm,
)
from repro.data.io import canonical_pattern_rows
from repro.data.patterns import NDI_RULE_DEPTH, CondensedPatternSet, PatternSet
from repro.data.transactions import TransactionDatabase
from repro.errors import ParallelError, ReproError
from repro.metrics.counters import CostCounters
from repro.mining.registry import get_miner
from repro.parallel.merge import MergeResult, merge_shard_patterns
from repro.parallel.sharding import Shard, ShardPlanner
from repro.resilience import (
    MERGE_COUNT,
    REASON_CIRCUIT_OPEN,
    REASON_DEADLINE,
    REASON_MERGE_FAILED,
    REASON_SHARD_FAILED,
    REASON_WORKER_ERROR,
    SHARD_CRASH,
    SHARD_SLOW,
    CircuitBreaker,
    DegradationReport,
    FaultInjector,
    ResilienceConfig,
    RetryPolicy,
)

#: Serialized pattern set: ((sorted items...), support) pairs.
PatternRows = tuple[tuple[tuple[int, ...], int], ...]

#: Optional per-shard feedstock source: (fingerprint, local_support) ->
#: (patterns, absolute_support) or None, where patterns may be a plain
#: or condensed set, e.g. a ``PatternWarehouse.best_feedstock`` lookup.
ShardFeedstockFn = Callable[
    [str, int], "tuple[PatternSet | CondensedPatternSet, int] | None"
]

#: Optional sink for fresh shard results: (fingerprint, local_support,
#: patterns), e.g. ``PatternWarehouse.put``.
ShardResultFn = Callable[[str, int, PatternSet], None]


def patterns_to_rows(patterns: PatternSet) -> PatternRows:
    """A pickle-friendly rendering of a pattern set, in canonical order."""
    return tuple(canonical_pattern_rows(patterns))


def rows_to_patterns(rows: Iterable[tuple[tuple[int, ...], int]]) -> PatternSet:
    """Inverse of :func:`patterns_to_rows`."""
    patterns = PatternSet()
    for items, support in rows:
        patterns.add(frozenset(items), support)
    return patterns


def counters_from_dict(values: dict[str, int]) -> CostCounters:
    """Rebuild a worker's counters from its name→int wire form."""
    counters = CostCounters()
    for name, amount in values.items():
        counters.add(name, amount)
    return counters


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs, in pickle-friendly form.

    Exactly one of three modes applies, mirroring the planner trichotomy:
    ``feedstock`` present → the worker runs the full filter/recycle/mine
    plan against its shard database; ``scratch`` → baseline mining (the
    global run had nothing to recycle); otherwise the shard groups *are*
    the compressed database and the recycling miner consumes them
    directly. ``fail`` makes the worker raise (a crash, injected by the
    ``shard.crash`` fault point); ``delay_seconds`` makes it sleep first
    (a straggler, injected by ``shard.slow``). ``algorithm=None`` is
    resolved per mode by the planner: ``eclat-bitset`` for mines, the
    grouped bitset kernel for recycles.
    """

    shard: Shard
    local_support: int
    algorithm: str | None = None
    strategy: str = "mcp"
    single_group_shortcut: bool = True
    feedstock: PatternRows | None = None
    feedstock_support: int | None = None
    #: Representation of the feedstock rows: ``full`` means they are the
    #: complete frequent set; ``closed``/``ndi`` means they are condensed
    #: entries, which the worker rehydrates into a
    #: :class:`~repro.data.patterns.CondensedPatternSet` so its planner
    #: stays sound (a filter over condensed entries must expand).
    feedstock_repr: str = "full"
    feedstock_n: int | None = None
    feedstock_ndi_depth: int = NDI_RULE_DEPTH
    scratch: bool = False
    fail: bool = False
    delay_seconds: float = 0.0


def run_shard_task(task: ShardTask) -> dict[str, object]:
    """Mine one shard at its scaled local support (runs in a worker).

    Top-level (picklable by reference) and returning only plain data, so
    it works identically under ``ProcessPoolExecutor`` and the inline
    executor the property tests use.
    """
    if task.fail:
        raise ParallelError(f"injected failure in shard {task.shard.index}")
    counters = CostCounters()
    started = time.perf_counter()
    if task.delay_seconds > 0:
        time.sleep(task.delay_seconds)
    shard = task.shard
    if task.feedstock is not None:
        feedstock: PatternSet | CondensedPatternSet
        if task.feedstock_repr != "full":
            assert task.feedstock_support is not None
            feedstock = CondensedPatternSet(
                task.feedstock_repr,
                {frozenset(items): support for items, support in task.feedstock},
                task.feedstock_support,
                n_transactions=task.feedstock_n,
                ndi_depth=task.feedstock_ndi_depth,
            )
        else:
            feedstock = rows_to_patterns(task.feedstock)
        plan = plan_support_path(
            task.local_support, feedstock, task.feedstock_support
        )
        patterns = execute_plan(
            plan,
            shard.database(),
            task.local_support,
            algorithm=task.algorithm,
            strategy=task.strategy,
            counters=counters,
        )
        path = plan.path
    elif task.scratch:
        name = resolve_baseline_algorithm(task.algorithm)
        patterns = get_miner(name, kind="baseline").mine(
            shard.database(), task.local_support, counters
        )
        path = PATH_MINE
    else:
        spec = get_miner(
            resolve_recycling_algorithm(task.algorithm), kind="recycling"
        )
        kwargs: dict[str, object] = {}
        if "single_group_shortcut" in inspect.signature(spec.fn).parameters:
            kwargs["single_group_shortcut"] = task.single_group_shortcut
        patterns = spec.fn(shard.grouped(), task.local_support, counters, **kwargs)
        path = PATH_RECYCLE
    elapsed = time.perf_counter() - started
    return {
        "index": shard.index,
        "fingerprint": shard.fingerprint(),
        "path": path,
        "local_support": task.local_support,
        "tuple_count": shard.tuple_count,
        "elapsed_seconds": elapsed,
        "patterns": patterns_to_rows(patterns),
        "counters": counters.as_dict(),
    }


class ShardPassError(ParallelError):
    """The shard pass failed as a whole (after per-shard retries).

    Carries everything the engine needs to degrade gracefully: the
    results of every shard that *did* complete (their counters are
    salvaged into the fallback run's accounting), per-shard attempt
    counts, and a short machine-readable reason code for the
    degradation report.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str,
        completed: list[dict[str, object]],
        attempts: dict[int, int],
    ) -> None:
        super().__init__(message)
        self.code = code
        self.completed = completed
        self.attempts = attempts


@dataclass(frozen=True)
class ShardOutcome:
    """One worker's report, as the caller keeps it."""

    index: int
    fingerprint: str
    path: str
    local_support: int
    tuple_count: int
    elapsed_seconds: float
    pattern_count: int
    attempts: int = 1


@dataclass(frozen=True)
class ParallelOutcome:
    """Everything a parallel run produced, for reporting and testing.

    ``patterns`` is always the exact global answer. ``jobs`` is the
    effective shard count actually mined (1 when the engine short-
    circuited to the in-process path); ``fallback`` records that workers
    were attempted but failed and the serial path answered instead, with
    the machine-readable chain on ``degradation``.
    ``critical_path_seconds`` models the wall-clock of an ideally
    parallel execution: Phase 1 + the slowest shard + the merge — the
    number a single-core host can still report honestly.
    """

    patterns: PatternSet
    path: str
    requested_jobs: int
    jobs: int
    shards: tuple[ShardOutcome, ...] = ()
    merge: MergeResult | None = None
    compression: CompressionResult | None = None
    fallback: bool = False
    fallback_reason: str | None = None
    elapsed_seconds: float = 0.0
    critical_path_seconds: float = 0.0
    degradation: DegradationReport = field(default_factory=DegradationReport)


class ParallelEngine:
    """Shard → mine → merge, with a serial fallback that cannot lose.

    Parameters
    ----------
    jobs:
        Worker process count requested (the planner may produce fewer
        shards on small inputs).
    timeout_seconds:
        Wall-clock deadline for the whole shard pass, retries and
        backoff sleeps included; missing it triggers the in-process
        fallback.
    executor:
        ``"process"`` (real ``ProcessPoolExecutor``) or ``"inline"``
        (same tasks, same pickling round-trip, run sequentially in this
        process — what the equivalence tests use to cover the worker
        code path cheaply).
    shard_feedstock / on_shard_result:
        Warehouse hooks: slice recycling feedstock per shard fingerprint
        going out, bank fresh per-shard results coming back.
    retry_policy:
        Per-shard retry budget (attempts + backoff); the default retries
        each failed shard up to twice before the engine gives up on the
        parallel pass. ``RetryPolicy(max_attempts=1)`` disables retries.
    fault_injector:
        Optional :class:`~repro.resilience.FaultInjector`; the engine
        evaluates ``shard.crash`` and ``shard.slow`` once per shard
        *attempt* (so an ``on_calls=(1,)`` crash is healed by the first
        retry) and fires ``merge.count`` once per merge pass.
    breaker:
        Optional :class:`~repro.resilience.CircuitBreaker` guarding the
        parallel pass: while it is open a ``jobs > 1`` run goes straight
        to the serial path (counted as ``parallel_circuit_skips``), and
        every attempted run records its success or fallback on it.

    ``algorithm`` on :meth:`mine` / :meth:`recycle_mine` is a registry
    name, or ``None`` (the default) for the planner's default kernels, on
    the shards and on the serial fallback alike.

    :attr:`last_outcome` holds the outcome of the most recent run, so a
    caller that hands the engine down a call chain can read back how the
    run was served.
    """

    def __init__(
        self,
        jobs: int,
        *,
        timeout_seconds: float | None = None,
        executor: str = "process",
        shard_feedstock: ShardFeedstockFn | None = None,
        on_shard_result: ShardResultFn | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if jobs < 1:
            raise ParallelError(f"jobs must be >= 1, got {jobs}")
        if executor not in ("process", "inline"):
            raise ParallelError(
                f"unknown executor {executor!r} (known: process, inline)"
            )
        self.jobs = jobs
        self.timeout_seconds = timeout_seconds
        self.executor = executor
        self.shard_feedstock = shard_feedstock
        self.on_shard_result = on_shard_result
        self.retry_policy = retry_policy or RetryPolicy()
        self.faults = fault_injector
        self.breaker = breaker
        self.last_outcome: ParallelOutcome | None = None

    @classmethod
    def from_resilience(
        cls, jobs: int, resilience: ResilienceConfig | None, **kwargs
    ) -> "ParallelEngine":
        """An engine with ``resilience``'s retry budget, faults and breaker."""
        resilience = resilience or ResilienceConfig()
        return cls(
            jobs,
            retry_policy=resilience.retry,
            fault_injector=resilience.faults,
            breaker=resilience.breaker,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def recycle_mine(
        self,
        db: TransactionDatabase,
        old_patterns: PatternSet,
        min_support: int,
        algorithm: str | None = None,
        strategy: str = "mcp",
        counters: CostCounters | None = None,
        single_group_shortcut: bool = True,
    ) -> ParallelOutcome:
        """Parallel Phase 2: compress once, mine shards, merge exactly."""
        started = time.perf_counter()
        if isinstance(old_patterns, CondensedPatternSet):
            # Phase 1 only needs genuine frequent patterns with exact
            # supports to claim compression groups — the condensed
            # entries qualify directly, no expansion required.
            old_patterns = old_patterns.entry_patterns()
        compression = compress(db, old_patterns, strategy, counters)
        phase1 = time.perf_counter() - started

        def serial() -> PatternSet:
            spec = get_miner(
                resolve_recycling_algorithm(algorithm), kind="recycling"
            )
            return spec.mine(compression.compressed, min_support, counters)

        return self._run(
            grouped=compression.compressed,
            min_support=min_support,
            algorithm=algorithm,
            strategy=strategy,
            single_group_shortcut=single_group_shortcut,
            scratch=False,
            counters=counters,
            serial=serial,
            path=PATH_RECYCLE,
            compression=compression,
            started=started,
            phase1_seconds=phase1,
        )

    def mine(
        self,
        db: TransactionDatabase,
        min_support: int,
        algorithm: str | None = None,
        strategy: str = "mcp",
        counters: CostCounters | None = None,
    ) -> ParallelOutcome:
        """Parallel from-scratch mining (no feedstock, one residual group)."""
        started = time.perf_counter()
        grouped = GroupedDatabase.from_database(db)

        def serial() -> PatternSet:
            name = resolve_baseline_algorithm(algorithm)
            return get_miner(name, kind="baseline").mine(
                db, min_support, counters
            )

        return self._run(
            grouped=grouped,
            min_support=min_support,
            algorithm=algorithm,
            strategy=strategy,
            single_group_shortcut=True,
            scratch=True,
            counters=counters,
            serial=serial,
            path=PATH_MINE,
            compression=None,
            started=started,
            phase1_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # the shared shard → mine → merge pipeline
    # ------------------------------------------------------------------
    def _run(
        self,
        *,
        grouped: GroupedDatabase,
        min_support: int,
        algorithm: str | None,
        strategy: str,
        single_group_shortcut: bool,
        scratch: bool,
        counters: CostCounters | None,
        serial: Callable[[], PatternSet],
        path: str,
        compression: CompressionResult | None,
        started: float,
        phase1_seconds: float,
    ) -> ParallelOutcome:
        """The shard pass behind the circuit breaker; records the outcome."""
        guarded = self.jobs > 1 and self.breaker is not None
        if guarded and not self.breaker.allow():
            # An open breaker demotes the run to the serial path without
            # spinning up (and re-crashing) worker processes.
            if counters is not None:
                counters.add("parallel_circuit_skips")
            degradation = DegradationReport()
            degradation.record("parallel", "serial", REASON_CIRCUIT_OPEN)
            outcome = self._serial_outcome(
                serial, path, compression, started, degradation=degradation
            )
        else:
            outcome = self._shard_and_merge(
                grouped=grouped,
                min_support=min_support,
                algorithm=algorithm,
                strategy=strategy,
                single_group_shortcut=single_group_shortcut,
                scratch=scratch,
                counters=counters,
                serial=serial,
                path=path,
                compression=compression,
                started=started,
                phase1_seconds=phase1_seconds,
            )
            if guarded:
                if outcome.fallback:
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()
        self.last_outcome = outcome
        return outcome

    def _serial_outcome(
        self,
        serial: Callable[[], PatternSet],
        path: str,
        compression: CompressionResult | None,
        started: float,
        degradation: DegradationReport | None = None,
        fallback_reason: str | None = None,
    ) -> ParallelOutcome:
        """Answer in-process; ``fallback_reason`` marks a failed shard pass."""
        patterns = serial()
        elapsed = time.perf_counter() - started
        return ParallelOutcome(
            patterns=patterns,
            path=path,
            requested_jobs=self.jobs,
            jobs=1,
            compression=compression,
            fallback=fallback_reason is not None,
            fallback_reason=fallback_reason,
            elapsed_seconds=elapsed,
            critical_path_seconds=elapsed,
            degradation=degradation or DegradationReport(),
        )

    def _shard_and_merge(
        self,
        *,
        grouped: GroupedDatabase,
        min_support: int,
        algorithm: str | None,
        strategy: str,
        single_group_shortcut: bool,
        scratch: bool,
        counters: CostCounters | None,
        serial: Callable[[], PatternSet],
        path: str,
        compression: CompressionResult | None,
        started: float,
        phase1_seconds: float,
    ) -> ParallelOutcome:
        total = grouped.tuple_count()
        plan = None
        if self.jobs > 1 and total >= max(2, self.jobs):
            plan = ShardPlanner(self.jobs).plan(grouped)
        if plan is None or plan.effective_jobs <= 1:
            return self._serial_outcome(serial, path, compression, started)

        tasks = []
        for shard in plan.shards:
            local = plan.local_support(shard, min_support)
            feedstock_rows: PatternRows | None = None
            feedstock_support: int | None = None
            feedstock_repr = "full"
            feedstock_n: int | None = None
            feedstock_ndi_depth = NDI_RULE_DEPTH
            if self.shard_feedstock is not None:
                hit = self.shard_feedstock(shard.fingerprint(), local)
                if hit is not None:
                    # patterns_to_rows serializes whatever items() yields
                    # — for a condensed set that is its entries, so the
                    # wire payload stays condensed too.
                    feedstock_rows = patterns_to_rows(hit[0])
                    feedstock_support = hit[1]
                    if isinstance(hit[0], CondensedPatternSet):
                        feedstock_repr = hit[0].representation
                        feedstock_n = hit[0].n_transactions
                        feedstock_ndi_depth = hit[0].ndi_depth
            tasks.append(
                ShardTask(
                    shard=shard,
                    local_support=local,
                    algorithm=algorithm,
                    strategy=strategy,
                    single_group_shortcut=single_group_shortcut,
                    feedstock=feedstock_rows,
                    feedstock_support=feedstock_support,
                    feedstock_repr=feedstock_repr,
                    feedstock_n=feedstock_n,
                    feedstock_ndi_depth=feedstock_ndi_depth,
                    scratch=scratch,
                )
            )

        attempts: dict[int, int] = {}
        try:
            results = self._execute(tasks, attempts)
        except ShardPassError as exc:
            return self._fall_back(
                serial=serial,
                counters=counters,
                path=path,
                compression=compression,
                started=started,
                reason=f"{type(exc).__name__}: {exc}",
                code=exc.code,
                completed=exc.completed,
                attempts=exc.attempts,
            )
        except Exception as exc:
            # Non-library failures (a worker pool that cannot spawn, a
            # pickling surprise) degrade the same way.
            return self._fall_back(
                serial=serial,
                counters=counters,
                path=path,
                compression=compression,
                started=started,
                reason=f"{type(exc).__name__}: {exc}",
                code=REASON_WORKER_ERROR,
                completed=[],
                attempts=attempts,
            )

        try:
            if self.faults is not None:
                # The merge pass's exact recount is the last place a
                # parallel run can go wrong; injectable like the rest.
                self.faults.fire(MERGE_COUNT, detail="merge pass")
            merge_started = time.perf_counter()
            shard_patterns = [rows_to_patterns(r["patterns"]) for r in results]
            merge = merge_shard_patterns(
                shard_patterns, grouped, min_support, counters
            )
        except Exception as exc:
            # A merge failure (injected or real) after the shards
            # finished: all shard results are wasted, but their counters
            # are still real cost — salvage them.
            return self._fall_back(
                serial=serial,
                counters=counters,
                path=path,
                compression=compression,
                started=started,
                reason=f"{type(exc).__name__}: {exc}",
                code=REASON_MERGE_FAILED,
                completed=results,
                attempts=attempts,
            )
        merge_seconds = time.perf_counter() - merge_started

        outcomes = []
        for result, patterns in zip(results, shard_patterns):
            outcomes.append(
                ShardOutcome(
                    index=result["index"],
                    fingerprint=result["fingerprint"],
                    path=result["path"],
                    local_support=result["local_support"],
                    tuple_count=result["tuple_count"],
                    elapsed_seconds=result["elapsed_seconds"],
                    pattern_count=len(patterns),
                    attempts=attempts.get(result["index"], 1),
                )
            )
            if counters is not None:
                counters.merge(counters_from_dict(result["counters"]))
            if self.on_shard_result is not None and result["path"] != PATH_FILTER:
                self.on_shard_result(
                    result["fingerprint"], result["local_support"], patterns
                )
        if counters is not None:
            counters.add("parallel_runs")
            counters.add("parallel_shards", len(outcomes))
            counters.add("parallel_shard_attempts", sum(attempts.values()))
            retries = sum(attempts.values()) - len(outcomes)
            if retries > 0:
                counters.add("parallel_shard_retries", retries)

        elapsed = time.perf_counter() - started
        slowest = max(o.elapsed_seconds for o in outcomes)
        return ParallelOutcome(
            patterns=merge.patterns,
            path=path,
            requested_jobs=self.jobs,
            jobs=len(outcomes),
            shards=tuple(sorted(outcomes, key=lambda o: o.index)),
            merge=merge,
            compression=compression,
            elapsed_seconds=elapsed,
            critical_path_seconds=phase1_seconds + slowest + merge_seconds,
        )

    def _fall_back(
        self,
        *,
        serial: Callable[[], PatternSet],
        counters: CostCounters | None,
        path: str,
        compression: CompressionResult | None,
        started: float,
        reason: str,
        code: str,
        completed: list[dict[str, object]],
        attempts: dict[int, int],
    ) -> ParallelOutcome:
        """Serve serially after a failed shard pass, salvaging what ran.

        Shards that completed before the pass died did real work; their
        counters are merged into the run's accounting (the cost was
        paid) and the total is also recorded under
        ``parallel_wasted_work`` so the waste is visible as waste.
        """
        if counters is not None:
            wasted = CostCounters()
            for result in completed:
                wasted.merge(counters_from_dict(result["counters"]))
            if completed:
                counters.merge(wasted)
                counters.add("parallel_wasted_work", wasted.total_work())
                counters.add("parallel_wasted_shards", len(completed))
            if attempts:
                counters.add("parallel_shard_attempts", sum(attempts.values()))
            counters.add("parallel_fallbacks")
        degradation = DegradationReport()
        degradation.record("parallel", "serial", code)
        return self._serial_outcome(
            serial,
            path,
            compression,
            started,
            degradation=degradation,
            fallback_reason=reason,
        )

    # ------------------------------------------------------------------
    # executors
    # ------------------------------------------------------------------
    def _arm(self, task: ShardTask) -> ShardTask:
        """Apply this attempt's fault schedule to a task.

        Evaluated once per shard *attempt*, so a ``shard.crash`` armed
        ``on_calls=(1,)`` fails the first attempt and heals on retry —
        the transient-crash scenario the retry path exists for.
        """
        if self.faults is None:
            return task
        fail = self.faults.evaluate(SHARD_CRASH) is not None
        slow = self.faults.evaluate(SHARD_SLOW)
        delay = slow.delay_seconds if slow is not None else 0.0
        if fail == task.fail and delay == task.delay_seconds:
            return task
        return dataclasses.replace(task, fail=fail, delay_seconds=delay)

    def _execute(
        self, tasks: list[ShardTask], attempts: dict[int, int]
    ) -> list[dict[str, object]]:
        """Run every task to completion, retrying shards individually.

        ``attempts`` is filled in-place (shard index → attempts used) so
        the caller can account for retries whether the pass succeeds or
        dies mid-way. Raises :class:`ShardPassError` — carrying the
        completed results — when a shard exhausts its retry budget or
        the wall-clock deadline passes.
        """
        for task in tasks:
            attempts[task.shard.index] = 0
        if self.executor == "inline":
            return self._execute_inline(tasks, attempts)
        return self._execute_process(tasks, attempts)

    def _deadline(self, start: float) -> float | None:
        if self.timeout_seconds is None:
            return None
        return start + self.timeout_seconds

    def _execute_inline(
        self, tasks: list[ShardTask], attempts: dict[int, int]
    ) -> list[dict[str, object]]:
        # Same worker function, same pickling round-trip, no processes —
        # the cheap way to exercise the exact shard code path (and the
        # retry/deadline machinery) deterministically.
        start = time.monotonic()
        deadline = self._deadline(start)
        completed: list[dict[str, object]] = []
        for task in tasks:
            index = task.shard.index
            while True:
                if deadline is not None and time.monotonic() >= deadline:
                    raise ShardPassError(
                        f"shard pass missed its {self.timeout_seconds}s "
                        f"deadline ({len(tasks) - len(completed)} of "
                        f"{len(tasks)} shards unfinished)",
                        code=REASON_DEADLINE,
                        completed=completed,
                        attempts=attempts,
                    )
                attempts[index] += 1
                armed = self._arm(task)
                try:
                    result = run_shard_task(pickle.loads(pickle.dumps(armed)))
                except ReproError as exc:
                    self._budget_retry(
                        index, attempts, exc, deadline, completed, len(tasks)
                    )
                    continue
                completed.append(result)
                break
        return completed

    def _execute_process(
        self, tasks: list[ShardTask], attempts: dict[int, int]
    ) -> list[dict[str, object]]:
        start = time.monotonic()
        deadline = self._deadline(start)
        completed: dict[int, dict[str, object]] = {}
        pending = list(tasks)
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(tasks)))
        missed = False
        try:
            while pending:
                futures = {}
                for task in pending:
                    attempts[task.shard.index] += 1
                    futures[pool.submit(run_shard_task, self._arm(task))] = task
                remaining = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                done, not_done = wait(
                    futures, timeout=remaining, return_when=ALL_COMPLETED
                )
                results = list(completed.values())
                for future in done:
                    if future.exception() is None:
                        results.append(future.result())
                if not_done:
                    missed = True
                    raise ShardPassError(
                        f"shard pass missed its {self.timeout_seconds}s "
                        f"deadline ({len(not_done)} of {len(futures)} shards "
                        "unfinished)",
                        code=REASON_DEADLINE,
                        completed=results,
                        attempts=attempts,
                    )
                retry: list[ShardTask] = []
                failures: list[tuple[ShardTask, BaseException]] = []
                for future, task in futures.items():
                    error = future.exception()
                    if error is None:
                        completed[task.shard.index] = future.result()
                    else:
                        failures.append((task, error))
                results = list(completed.values())
                for task, error in sorted(
                    failures, key=lambda pair: pair[0].shard.index
                ):
                    index = task.shard.index
                    self._budget_retry(
                        index, attempts, error, deadline, results, len(tasks)
                    )
                    retry.append(task)
                pending = retry
        finally:
            # A missed deadline must not wait for the straggler: leaving
            # the pool without joining it is what makes timeout_seconds a
            # bound on the call, not on the slowest shard.
            pool.shutdown(wait=not missed, cancel_futures=missed)
        return [completed[task.shard.index] for task in tasks]

    def _budget_retry(
        self,
        index: int,
        attempts: dict[int, int],
        error: BaseException,
        deadline: float | None,
        completed: list[dict[str, object]],
        total: int,
    ) -> None:
        """Sleep the backoff before retrying shard ``index``, or give up.

        Raises :class:`ShardPassError` when the attempt budget is spent
        or the backoff sleep would cross the wall-clock deadline — the
        retry machinery never makes a run *slower* than its deadline.
        """
        used = attempts[index]
        if self.retry_policy.retries_remaining(used) == 0:
            raise ShardPassError(
                f"shard {index} failed after {used} attempt(s): {error}",
                code=REASON_SHARD_FAILED,
                completed=completed,
                attempts=attempts,
            )
        delay = self.retry_policy.backoff_delay(used, salt=index)
        if deadline is not None and time.monotonic() + delay >= deadline:
            raise ShardPassError(
                f"shard {index} retry backoff would cross the "
                f"{self.timeout_seconds}s deadline ({error})",
                code=REASON_DEADLINE,
                completed=completed,
                attempts=attempts,
            )
        if delay > 0:
            time.sleep(delay)
