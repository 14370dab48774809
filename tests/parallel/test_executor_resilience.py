"""Engine resilience: per-shard retries, deadlines, injected chaos.

These tests drive the retry/backoff/deadline machinery through the
injector's named fault points rather than monkeypatching internals, so
they exercise exactly the code paths a production failure takes.
"""

from __future__ import annotations

import time

import pytest

from repro.data.transactions import TransactionDatabase
from repro.metrics.counters import CostCounters
from repro.mining.bruteforce import mine_bruteforce
from repro.parallel import ParallelEngine
from repro.resilience import (
    MERGE_COUNT,
    REASON_CIRCUIT_OPEN,
    REASON_DEADLINE,
    REASON_MERGE_FAILED,
    REASON_SHARD_FAILED,
    SHARD_CRASH,
    SHARD_SLOW,
    CircuitBreaker,
    FaultInjector,
    RetryPolicy,
)

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


def fast_retry(max_attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=max_attempts,
        base_delay_seconds=0.0,
        max_delay_seconds=0.0,
        jitter_fraction=0.0,
    )


def expected() -> object:
    return mine_bruteforce(db(), SUPPORT)


class TestRetryHealsTransientCrash:
    def test_inline_crash_on_first_attempt_is_retried_not_fallen_back(self):
        faults = FaultInjector().inject(SHARD_CRASH, on_calls=(1,))
        counters = CostCounters()
        engine = ParallelEngine(
            2,
            executor="inline",
            retry_policy=fast_retry(),
            fault_injector=faults,
        )
        outcome = engine.mine(db(), SUPPORT, counters=counters)
        assert not outcome.fallback
        assert outcome.patterns == expected()
        assert not outcome.degradation.degraded
        assert faults.fired(SHARD_CRASH) == 1
        # One shard took two attempts; the rest took one.
        assert sorted(s.attempts for s in outcome.shards)[-1] == 2
        snap = counters.as_dict()
        assert snap["parallel_shard_retries"] == 1
        assert snap["parallel_shard_attempts"] == len(outcome.shards) + 1
        assert snap.get("parallel_fallbacks", 0) == 0

    def test_process_crash_on_first_attempt_is_retried_not_fallen_back(self):
        faults = FaultInjector().inject(SHARD_CRASH, on_calls=(1,))
        engine = ParallelEngine(
            2, retry_policy=fast_retry(), fault_injector=faults
        )
        outcome = engine.mine(db(), SUPPORT)
        assert not outcome.fallback
        assert outcome.patterns == expected()
        assert faults.fired(SHARD_CRASH) == 1


class TestRetryBudgetExhaustion:
    def test_persistent_crash_exhausts_attempts_then_falls_back(self):
        faults = FaultInjector().inject(SHARD_CRASH, probability=1.0)
        counters = CostCounters()
        engine = ParallelEngine(
            2,
            executor="inline",
            retry_policy=fast_retry(max_attempts=2),
            fault_injector=faults,
        )
        outcome = engine.mine(db(), SUPPORT, counters=counters)
        assert outcome.fallback
        assert outcome.patterns == expected()  # serial answer, never worse
        assert outcome.degradation.reasons() == [
            f"parallel→serial: {REASON_SHARD_FAILED}"
        ]
        assert counters.as_dict()["parallel_fallbacks"] == 1

    def test_completed_shard_counters_salvaged_on_later_failure(self):
        """Satellite: work finished before the pass died is merged into
        the fallback accounting and surfaced as parallel_wasted_work."""
        # Shard 0 succeeds (call 1); every later attempt crashes.
        faults = FaultInjector().inject(
            SHARD_CRASH, on_calls=(2, 3, 4, 5, 6)
        )
        counters = CostCounters()
        engine = ParallelEngine(
            2,
            executor="inline",
            retry_policy=fast_retry(max_attempts=2),
            fault_injector=faults,
        )
        outcome = engine.mine(db(), SUPPORT, counters=counters)
        assert outcome.fallback
        assert outcome.patterns == expected()
        snap = counters.as_dict()
        assert snap["parallel_wasted_shards"] == 1
        assert snap["parallel_wasted_work"] > 0
        # shard 0: 1 attempt; shard 1: 2 attempts, both crashed.
        assert snap["parallel_shard_attempts"] == 3


class TestDeadline:
    def test_inline_slow_shard_blows_the_real_timeout_path(self):
        """Satellite: timeout_seconds is exercised by an injected
        straggler, not by monkeypatching the clock."""
        faults = FaultInjector().inject(
            SHARD_SLOW, probability=1.0, delay_seconds=0.2
        )
        counters = CostCounters()
        engine = ParallelEngine(
            2,
            executor="inline",
            timeout_seconds=0.15,
            retry_policy=fast_retry(),
            fault_injector=faults,
        )
        outcome = engine.mine(db(), SUPPORT, counters=counters)
        assert outcome.fallback
        assert "deadline" in outcome.fallback_reason
        assert outcome.patterns == expected()
        assert outcome.degradation.reasons() == [
            f"parallel→serial: {REASON_DEADLINE}"
        ]

    def test_process_slow_shard_blows_the_real_timeout_path(self):
        faults = FaultInjector().inject(
            SHARD_SLOW, probability=1.0, delay_seconds=1.0
        )
        engine = ParallelEngine(
            2,
            timeout_seconds=0.2,
            retry_policy=fast_retry(),
            fault_injector=faults,
        )
        outcome = engine.mine(db(), SUPPORT)
        assert outcome.fallback
        assert "deadline" in outcome.fallback_reason
        assert outcome.patterns == expected()

    def test_process_deadline_bounds_the_call_not_the_straggler(self):
        """A missed deadline returns the serial answer without waiting
        for the straggler's worker to finish its sleep."""
        faults = FaultInjector().inject(
            SHARD_SLOW, probability=1.0, delay_seconds=1.0
        )
        engine = ParallelEngine(
            2,
            timeout_seconds=0.2,
            retry_policy=fast_retry(),
            fault_injector=faults,
        )
        started = time.perf_counter()
        outcome = engine.mine(db(), SUPPORT)
        elapsed = time.perf_counter() - started
        assert outcome.fallback
        assert outcome.degradation.reasons() == [
            f"parallel→serial: {REASON_DEADLINE}"
        ]
        assert outcome.patterns == expected()
        assert elapsed < 0.8

    def test_slow_fault_within_deadline_just_runs_slower(self):
        faults = FaultInjector().inject(
            SHARD_SLOW, on_calls=(1,), delay_seconds=0.05
        )
        engine = ParallelEngine(
            2,
            executor="inline",
            timeout_seconds=30.0,
            retry_policy=fast_retry(),
            fault_injector=faults,
        )
        outcome = engine.mine(db(), SUPPORT)
        assert not outcome.fallback
        assert outcome.patterns == expected()
        slowest = max(s.elapsed_seconds for s in outcome.shards)
        assert slowest >= 0.05  # the sleep is charged to the shard


class TestMergeFault:
    def test_merge_count_fault_falls_back_and_salvages_all_shards(self):
        faults = FaultInjector().inject(MERGE_COUNT, on_calls=(1,))
        counters = CostCounters()
        engine = ParallelEngine(
            2, executor="inline", fault_injector=faults
        )
        outcome = engine.mine(db(), SUPPORT, counters=counters)
        assert outcome.fallback
        assert outcome.patterns == expected()
        assert outcome.degradation.reasons() == [
            f"parallel→serial: {REASON_MERGE_FAILED}"
        ]
        snap = counters.as_dict()
        assert snap["parallel_wasted_shards"] == 2  # every shard finished


class TestFaultFreeBaseline:
    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_unarmed_injector_changes_nothing(self, executor):
        armed = ParallelEngine(
            2, executor=executor, fault_injector=FaultInjector()
        ).mine(db(), SUPPORT)
        bare = ParallelEngine(2, executor=executor).mine(db(), SUPPORT)
        assert armed.patterns == bare.patterns == expected()
        assert not armed.fallback and not bare.fallback


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    """The breaker guards the engine's shard pass; it trips on whole-run
    fallbacks, never on per-shard retries that heal."""

    @staticmethod
    def crashing_engine(breaker: CircuitBreaker, faults=None) -> ParallelEngine:
        return ParallelEngine(
            2,
            executor="inline",
            retry_policy=fast_retry(max_attempts=1),
            fault_injector=faults,
            breaker=breaker,
        )

    def test_trips_after_consecutive_fallbacks(self):
        """Two fallbacks trip the breaker; the next run goes serial with
        a circuit_open step and never reaches a shard."""
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_seconds=60.0, clock=FakeClock()
        )
        faults = FaultInjector().inject(SHARD_CRASH, probability=1.0)
        engine = self.crashing_engine(breaker, faults)
        for _ in range(2):
            outcome = engine.mine(db(), SUPPORT)
            assert outcome.fallback
            assert outcome.degradation.reasons() == [
                f"parallel→serial: {REASON_SHARD_FAILED}"
            ]
        assert breaker.state == "open" and breaker.trips == 1
        fired = faults.fired(SHARD_CRASH)
        counters = CostCounters()
        tripped = engine.mine(db(), SUPPORT, counters=counters)
        assert not tripped.fallback  # never attempted
        assert tripped.jobs == 1 and not tripped.shards
        assert tripped.degradation.reasons() == [
            f"parallel→serial: {REASON_CIRCUIT_OPEN}"
        ]
        assert tripped.patterns == expected()
        assert counters.as_dict()["parallel_circuit_skips"] == 1
        assert faults.fired(SHARD_CRASH) == fired

    def test_half_open_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=30.0, clock=clock
        )
        crash = FaultInjector().inject(SHARD_CRASH, probability=1.0)
        assert self.crashing_engine(breaker, crash).mine(db(), SUPPORT).fallback
        assert breaker.state == "open"
        clock.now = 30.0  # cooldown over: one half-open trial is allowed
        trial = self.crashing_engine(breaker).mine(db(), SUPPORT)
        assert not trial.fallback and trial.jobs == 2
        assert trial.patterns == expected()
        assert breaker.state == "closed"
