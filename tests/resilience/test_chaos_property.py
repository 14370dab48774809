"""Acceptance property: faults change the path, never the patterns.

For every recycling miner × compression strategy × injected fault
profile — a shard crash on attempt 1, a slow shard blowing the engine
deadline, corrupt warehouse feedstock — the final pattern set is
identical to the fault-free serial run, and the
:class:`~repro.resilience.DegradationReport` names the path actually
taken.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import QuestParams, quest_database
from repro.data.transactions import TransactionDatabase
from repro.mining.registry import get_miner, miner_names
from repro.parallel import ParallelEngine
from repro.resilience import (
    REASON_DEADLINE,
    REASON_FEEDSTOCK_QUARANTINED,
    SHARD_CRASH,
    SHARD_SLOW,
    FaultInjector,
    RetryPolicy,
)
from repro.service import MineRequest, MiningService, PatternWarehouse

RECYCLING = sorted(miner_names("recycling"))
STRATEGIES = ("mcp", "mlp")
PROFILES = ("crash_attempt_1", "slow_under_deadline", "corrupt_feedstock")

OLD_SUPPORT = 10
NEW_SUPPORT = 5

FAST_RETRY = RetryPolicy(
    max_attempts=3,
    base_delay_seconds=0.0,
    max_delay_seconds=0.0,
    jitter_fraction=0.0,
)


def make_db(seed: int) -> TransactionDatabase:
    return quest_database(
        QuestParams(n_transactions=60, n_items=20, avg_transaction_length=5),
        seed=seed,
    )


def serial_answer(db: TransactionDatabase, support: int):
    """The fault-free serial ground truth every chaos run must match."""
    return get_miner("hmine", kind="baseline").mine(db, support)


def run_crash_attempt_1(db, algorithm, strategy, old_patterns):
    faults = FaultInjector().inject(SHARD_CRASH, on_calls=(1,))
    engine = ParallelEngine(
        2, executor="inline", retry_policy=FAST_RETRY, fault_injector=faults
    )
    outcome = engine.recycle_mine(
        db, old_patterns, NEW_SUPPORT, algorithm=algorithm, strategy=strategy
    )
    # The retry healed the transient crash: parallel served, no ladder.
    if outcome.jobs > 1:
        assert not outcome.fallback
        assert not outcome.degradation.degraded
        assert faults.fired(SHARD_CRASH) == 1
    return outcome.patterns, outcome.degradation


def run_slow_under_deadline(db, algorithm, strategy, old_patterns):
    faults = FaultInjector().inject(
        SHARD_SLOW, probability=1.0, delay_seconds=0.2
    )
    engine = ParallelEngine(
        2,
        executor="inline",
        timeout_seconds=0.1,
        retry_policy=FAST_RETRY,
        fault_injector=faults,
    )
    outcome = engine.recycle_mine(
        db, old_patterns, NEW_SUPPORT, algorithm=algorithm, strategy=strategy
    )
    # Every shard sleeps past the deadline: the serial fallback answers
    # and the ladder names the deadline.
    if outcome.jobs > 1 or outcome.fallback:
        assert outcome.fallback
        assert outcome.degradation.reasons() == [
            f"parallel→serial: {REASON_DEADLINE}"
        ]
    return outcome.patterns, outcome.degradation


def run_corrupt_feedstock(db, algorithm, strategy, old_patterns):
    # The service serves every request with its one kernel, so only the
    # engine profiles vary ``algorithm`` and ``strategy``.
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        fingerprint = db.fingerprint()
        seeded = PatternWarehouse(directory=directory)
        seeded.put(fingerprint, OLD_SUPPORT, old_patterns)
        path = directory / f"{fingerprint}-{OLD_SUPPORT}.patterns"
        # Torn write: the tail of the body is lost, so the checksum in
        # the (intact) header no longer matches.
        path.write_text(path.read_text()[:-5])
        warehouse = PatternWarehouse(directory=directory)
        assert warehouse.has_quarantined(fingerprint)
        with MiningService(warehouse=warehouse) as service:
            response = service.execute(MineRequest(db=db, support=NEW_SUPPORT))
        # The miss where feedstock used to be is named.
        assert response.path == "mine"
        assert response.degradation.reasons() == [
            f"feedstock→mine: {REASON_FEEDSTOCK_QUARANTINED}"
        ]
        return response.patterns, response.degradation


RUNNERS = {
    "crash_attempt_1": run_crash_attempt_1,
    "slow_under_deadline": run_slow_under_deadline,
    "corrupt_feedstock": run_corrupt_feedstock,
}


@settings(max_examples=25, deadline=None)
@given(
    algorithm=st.sampled_from(RECYCLING),
    strategy=st.sampled_from(STRATEGIES),
    profile=st.sampled_from(PROFILES),
    seed=st.integers(min_value=0, max_value=3),
)
def test_fault_profiles_never_change_the_answer(algorithm, strategy, profile, seed):
    db = make_db(seed)
    expected = serial_answer(db, NEW_SUPPORT)
    old_patterns = serial_answer(db, OLD_SUPPORT)
    if len(old_patterns) == 0:
        return  # nothing to recycle at this seed; vacuous
    patterns, degradation = RUNNERS[profile](
        db, algorithm, strategy, old_patterns
    )
    assert patterns == expected
    assert isinstance(degradation.describe(), str)
