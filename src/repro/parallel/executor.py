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

A worker mines its slice of the grouped database directly with the
chosen recycling miner (the groups were compressed once, globally), or
with a baseline miner when there was nothing to recycle.

Each shard gets one attempt. If the shard pass or the merge raises, the
engine answers once on the equivalent in-process path — salvaging the
counters of every shard that *did* finish (recorded under
``parallel_wasted_work``), recording ``parallel_fallbacks``, the reason
on the outcome, and a ``parallel→serial`` step on the outcome's
:class:`~repro.resilience.DegradationReport` — so a parallel call can
never produce worse results than a serial one, only, at worst, the same
results later.
"""

from __future__ import annotations

import inspect
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.compression import CompressionResult, compress
from repro.core.groups import GroupedDatabase
from repro.core.planner import PATH_MINE, PATH_RECYCLE, resolve_baseline_algorithm
from repro.core.recycle import resolve_recycling_algorithm
from repro.data.io import canonical_pattern_rows
from repro.data.patterns import CondensedPatternSet, PatternSet
from repro.data.transactions import TransactionDatabase
from repro.errors import ParallelError
from repro.metrics.counters import CostCounters
from repro.mining.registry import get_miner
from repro.parallel.merge import MergeResult, merge_shard_patterns
from repro.parallel.sharding import Shard, ShardPlanner
from repro.resilience import (
    REASON_MERGE_FAILED,
    REASON_SHARD_FAILED,
    DegradationReport,
)

#: Serialized pattern set: ((sorted items...), support) pairs.
PatternRows = tuple[tuple[tuple[int, ...], int], ...]


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

    ``scratch`` → baseline mining of the shard's rows (the global run had
    nothing to recycle); otherwise the shard groups *are* the compressed
    database and the recycling miner consumes them directly.
    ``algorithm=None`` is resolved per mode by the planner:
    ``eclat-bitset`` for mines, the grouped bitset kernel for recycles.
    """

    shard: Shard
    local_support: int
    algorithm: str | None = None
    single_group_shortcut: bool = True
    scratch: bool = False


def run_shard_task(task: ShardTask) -> dict[str, object]:
    """Mine one shard at its scaled local support (runs in a worker).

    Top-level (picklable by reference) and returning only plain data, so
    it works identically under ``ProcessPoolExecutor`` and the inline
    executor the property tests use.
    """
    counters = CostCounters()
    started = time.perf_counter()
    shard = task.shard
    if task.scratch:
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
    """A shard of the pass raised.

    Carries the results of every shard that *did* complete, so their
    counters are salvaged into the fallback run's accounting.
    """

    def __init__(self, message: str, completed: list[dict[str, object]]) -> None:
        super().__init__(message)
        self.completed = completed


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
    executor:
        ``"process"`` (real ``ProcessPoolExecutor``) or ``"inline"``
        (same tasks, same pickling round-trip, run sequentially in this
        process — what the equivalence tests use to cover the worker
        code path cheaply).

    ``algorithm`` on :meth:`mine` / :meth:`recycle_mine` is a registry
    name, or ``None`` (the default) for the planner's default kernels, on
    the shards and on the serial fallback alike.
    """

    def __init__(self, jobs: int, *, executor: str = "process") -> None:
        if jobs < 1:
            raise ParallelError(f"jobs must be >= 1, got {jobs}")
        if executor not in ("process", "inline"):
            raise ParallelError(
                f"unknown executor {executor!r} (known: process, inline)"
            )
        self.jobs = jobs
        self.executor = executor

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

        return self._shard_and_merge(
            grouped=compression.compressed,
            min_support=min_support,
            algorithm=algorithm,
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

        return self._shard_and_merge(
            grouped=grouped,
            min_support=min_support,
            algorithm=algorithm,
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

        tasks = [
            ShardTask(
                shard=shard,
                local_support=plan.local_support(shard, min_support),
                algorithm=algorithm,
                single_group_shortcut=single_group_shortcut,
                scratch=scratch,
            )
            for shard in plan.shards
        ]

        def fall_back(reason: str, code: str, completed) -> ParallelOutcome:
            return self._fall_back(
                serial=serial,
                counters=counters,
                path=path,
                compression=compression,
                started=started,
                reason=reason,
                code=code,
                completed=completed,
            )

        try:
            results = self._execute(tasks)
        except ShardPassError as exc:
            return fall_back(str(exc), REASON_SHARD_FAILED, exc.completed)

        try:
            merge_started = time.perf_counter()
            shard_patterns = [rows_to_patterns(r["patterns"]) for r in results]
            merge = merge_shard_patterns(
                shard_patterns, grouped, min_support, counters
            )
        except Exception as exc:
            # A merge failure after the shards finished: all shard
            # results are wasted, but their counters are still real cost
            # — salvage them.
            return fall_back(
                f"{type(exc).__name__}: {exc}", REASON_MERGE_FAILED, results
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
                )
            )
            if counters is not None:
                counters.merge(counters_from_dict(result["counters"]))
        if counters is not None:
            counters.add("parallel_runs")
            counters.add("parallel_shards", len(outcomes))

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
    def _execute(self, tasks: list[ShardTask]) -> list[dict[str, object]]:
        """Run every task once, in shard order.

        Raises :class:`ShardPassError` — carrying the completed results —
        when any shard raises, or when the worker pool itself fails.
        """
        completed: list[dict[str, object]] = []
        try:
            if self.executor == "inline":
                # Same worker function, same pickling round-trip, no
                # processes — the cheap way to exercise the exact shard
                # code path deterministically.
                for task in tasks:
                    completed.append(
                        run_shard_task(pickle.loads(pickle.dumps(task)))
                    )
                return completed
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(tasks))
            ) as pool:
                futures = [pool.submit(run_shard_task, task) for task in tasks]
                failure: BaseException | None = None
                for future in futures:
                    error = future.exception()
                    if error is None:
                        completed.append(future.result())
                    elif failure is None:
                        failure = error
                if failure is not None:
                    raise failure
                return completed
        except Exception as exc:
            raise ShardPassError(f"{type(exc).__name__}: {exc}", completed) from exc
