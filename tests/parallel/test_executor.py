"""Engine unit tests: worker modes, fallback, real processes."""

from __future__ import annotations

import pickle

import pytest

import repro.parallel.executor as executor
from repro.core.compression import compress
from repro.core.planner import PATH_MINE, PATH_RECYCLE
from repro.data.transactions import TransactionDatabase
from repro.errors import ParallelError
from repro.metrics.counters import CostCounters
from repro.mining.bruteforce import mine_bruteforce
from repro.parallel import (
    ParallelEngine,
    ShardPlanner,
    ShardTask,
    run_shard_task,
)
from repro.parallel.executor import patterns_to_rows, rows_to_patterns
from repro.resilience import REASON_SHARD_FAILED


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


def one_shard(jobs: int = 2):
    database = db()
    patterns = mine_bruteforce(database, 4)
    grouped = compress(database, patterns, "mcp").compressed
    return ShardPlanner(jobs).plan(grouped).shards[0]


class TestPatternRows:
    def test_round_trip(self):
        patterns = mine_bruteforce(db(), 2)
        assert rows_to_patterns(patterns_to_rows(patterns)) == patterns

    def test_rows_are_sorted_canonically(self):
        rows = patterns_to_rows(mine_bruteforce(db(), 2))
        assert rows == tuple(sorted(rows))


class TestRunShardTask:
    def test_recycle_mode_mines_the_shard_groups(self):
        shard = one_shard()
        result = run_shard_task(ShardTask(shard=shard, local_support=2))
        assert result["path"] == PATH_RECYCLE
        patterns = rows_to_patterns(result["patterns"])
        assert patterns == mine_bruteforce(shard.database(), 2)

    def test_scratch_mode_uses_a_baseline_miner(self):
        shard = one_shard()
        result = run_shard_task(
            ShardTask(shard=shard, local_support=2, scratch=True)
        )
        assert result["path"] == PATH_MINE
        patterns = rows_to_patterns(result["patterns"])
        assert patterns == mine_bruteforce(shard.database(), 2)

    def test_task_survives_pickling(self):
        shard = one_shard()
        task = ShardTask(shard=shard, local_support=2)
        clone = pickle.loads(pickle.dumps(task))
        assert run_shard_task(clone)["patterns"] == run_shard_task(task)["patterns"]


class TestParallelEngine:
    def test_requires_positive_jobs(self):
        with pytest.raises(ParallelError):
            ParallelEngine(0)

    def test_constructor_takes_only_jobs_and_executor(self):
        import inspect

        assert list(inspect.signature(ParallelEngine).parameters) == [
            "jobs",
            "executor",
        ]

    def test_unknown_executor_rejected(self):
        with pytest.raises(ParallelError):
            ParallelEngine(2, executor="threads")

    def test_jobs_one_short_circuits(self):
        database = db()
        old = mine_bruteforce(database, 4)
        outcome = ParallelEngine(1).recycle_mine(database, old, 2)
        assert outcome.jobs == 1 and not outcome.shards and not outcome.fallback
        assert outcome.patterns == mine_bruteforce(database, 2)

    def test_inline_recycle_matches_reference(self):
        database = db()
        old = mine_bruteforce(database, 4)
        outcome = ParallelEngine(3, executor="inline").recycle_mine(
            database, old, 2
        )
        assert outcome.jobs == 3
        assert outcome.patterns == mine_bruteforce(database, 2)
        assert outcome.merge is not None
        assert outcome.critical_path_seconds <= outcome.elapsed_seconds

    def test_process_pool_matches_reference(self):
        database = db()
        old = mine_bruteforce(database, 4)
        outcome = ParallelEngine(2, executor="process").recycle_mine(
            database, old, 2
        )
        assert outcome.jobs == 2 and not outcome.fallback
        assert outcome.patterns == mine_bruteforce(database, 2)

    def test_scratch_mine_matches_reference(self):
        database = db()
        outcome = ParallelEngine(3, executor="inline").mine(database, 2)
        assert outcome.jobs == 3
        assert outcome.patterns == mine_bruteforce(database, 2)

    def test_crash_falls_back_to_serial(self, monkeypatch):
        def crash(task):
            raise ParallelError(f"injected failure in shard {task.shard.index}")

        monkeypatch.setattr(executor, "run_shard_task", crash)
        database = db()
        old = mine_bruteforce(database, 4)
        counters = CostCounters()
        outcome = ParallelEngine(2, executor="inline").recycle_mine(
            database, old, 2, counters=counters
        )
        assert outcome.fallback
        assert "injected failure" in outcome.fallback_reason
        assert outcome.jobs == 1
        assert outcome.patterns == mine_bruteforce(database, 2)
        assert outcome.degradation.reasons() == [
            f"parallel→serial: {REASON_SHARD_FAILED}"
        ]
        assert counters.as_dict()["parallel_fallbacks"] == 1

    def test_worker_counters_are_merged(self):
        database = db()
        old = mine_bruteforce(database, 4)
        counters = CostCounters()
        outcome = ParallelEngine(2, executor="inline").recycle_mine(
            database, old, 2, counters=counters
        )
        recorded = counters.as_dict()
        assert recorded["parallel_runs"] == 1
        assert recorded["parallel_shards"] == outcome.jobs
        assert counters.total_work() > 0
