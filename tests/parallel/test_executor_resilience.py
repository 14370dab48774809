"""Engine fallback: a shard or the merge raises, the serial path answers.

Each shard gets one attempt. The failures are planted by monkeypatching
the worker function and the merge under the inline executor, which
calls both through the executor module.
"""

from __future__ import annotations

import repro.parallel.executor as executor
from repro.data.transactions import TransactionDatabase
from repro.errors import ParallelError
from repro.metrics.counters import CostCounters
from repro.mining.bruteforce import mine_bruteforce
from repro.parallel import ParallelEngine
from repro.resilience import REASON_MERGE_FAILED, REASON_SHARD_FAILED

SUPPORT = 3


def db() -> TransactionDatabase:
    return TransactionDatabase(
        [
            [1, 2, 3],
            [1, 2, 3],
            [1, 2],
            [2, 3],
            [1, 3],
            [4, 5],
            [4, 5, 1],
            [2, 3, 4],
            [1, 2, 4],
            [3, 4, 5],
        ]
    )


def expected() -> object:
    return mine_bruteforce(db(), SUPPORT)


class TestShardFailure:
    def test_completed_shard_counters_salvaged_on_later_failure(self, monkeypatch):
        """Work finished before the pass died is merged into the fallback
        accounting and surfaced as parallel_wasted_work."""
        real = executor.run_shard_task

        def crash_after_first(task):
            if task.shard.index > 0:
                raise ParallelError(f"shard {task.shard.index} crashed")
            return real(task)

        monkeypatch.setattr(executor, "run_shard_task", crash_after_first)
        counters = CostCounters()
        outcome = ParallelEngine(2, executor="inline").mine(
            db(), SUPPORT, counters=counters
        )
        assert outcome.fallback
        assert outcome.patterns == expected()
        assert outcome.degradation.reasons() == [
            f"parallel→serial: {REASON_SHARD_FAILED}"
        ]
        snap = counters.as_dict()
        assert snap["parallel_wasted_shards"] == 1
        assert snap["parallel_wasted_work"] > 0
        assert snap["parallel_fallbacks"] == 1


class TestMergeFault:
    def test_merge_count_fault_falls_back_and_salvages_all_shards(
        self, monkeypatch
    ):
        def broken_merge(*_args, **_kwargs):
            raise ParallelError("merge recount failed")

        monkeypatch.setattr(executor, "merge_shard_patterns", broken_merge)
        counters = CostCounters()
        outcome = ParallelEngine(2, executor="inline").mine(
            db(), SUPPORT, counters=counters
        )
        assert outcome.fallback
        assert outcome.patterns == expected()
        assert outcome.degradation.reasons() == [
            f"parallel→serial: {REASON_MERGE_FAILED}"
        ]
        snap = counters.as_dict()
        assert snap["parallel_wasted_shards"] == 2  # every shard finished
