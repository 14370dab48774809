"""Sharded parallel mining: the two-pass partition scheme over groups.

The subsystem in three modules, one per pass boundary:

:mod:`repro.parallel.sharding`
    Splitting a :class:`~repro.core.groups.GroupedDatabase` group-wise
    into balanced shards, and the sound local-support scaling rule.
:mod:`repro.parallel.executor`
    The :class:`ParallelEngine`: pickle-friendly shard tasks, a
    ``ProcessPoolExecutor`` worker pool, per-worker cost counters merged
    on return, and the one-shot fallback to the serial path when a shard
    or the merge raises.
:mod:`repro.parallel.merge`
    The second pass: candidate union, Apriori + tight-candidate-bound
    budgeting, and the exact global recount over the grouped database.

The engine sits above :mod:`repro.core`, whose miners it runs inside
workers. No library or CLI entry point reaches it: the serial serving
kernel beat it on every measured input but one (``docs/parallel.md``,
"Verdict"), and the only caller left is ``benchmarks/bench_parallel.py``
(through :func:`repro.bench.experiments.parallel_speedup_rows`), which
records that negative result.
"""

from repro.parallel.executor import (
    ParallelEngine,
    ParallelOutcome,
    ShardOutcome,
    ShardTask,
    run_shard_task,
)
from repro.parallel.merge import (
    MergeResult,
    count_pattern_support,
    merge_shard_patterns,
    tight_candidate_bound,
    union_candidates,
)
from repro.parallel.sharding import (
    Shard,
    ShardPlan,
    ShardPlanner,
    scale_local_support,
)

__all__ = [
    "MergeResult",
    "ParallelEngine",
    "ParallelOutcome",
    "Shard",
    "ShardOutcome",
    "ShardPlan",
    "ShardPlanner",
    "ShardTask",
    "count_pattern_support",
    "merge_shard_patterns",
    "run_shard_task",
    "scale_local_support",
    "tight_candidate_bound",
    "union_candidates",
]
