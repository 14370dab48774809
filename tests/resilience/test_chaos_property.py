"""Acceptance property: faults change the path, never the patterns.

For corrupt warehouse feedstock (a torn entry file) under any database
seed, the served pattern set is identical to the fault-free serial run,
and the :class:`~repro.resilience.DegradationReport` names the path
actually taken.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import QuestParams, quest_database
from repro.data.transactions import TransactionDatabase
from repro.mining.registry import get_miner
from repro.resilience import REASON_FEEDSTOCK_QUARANTINED
from repro.service import MineRequest, MiningService, PatternWarehouse

PROFILES = ("corrupt_feedstock",)

OLD_SUPPORT = 10
NEW_SUPPORT = 5


def make_db(seed: int) -> TransactionDatabase:
    return quest_database(
        QuestParams(n_transactions=60, n_items=20, avg_transaction_length=5),
        seed=seed,
    )


def serial_answer(db: TransactionDatabase, support: int):
    """The fault-free serial ground truth every chaos run must match."""
    return get_miner("hmine", kind="baseline").mine(db, support)


def run_corrupt_feedstock(db, old_patterns):
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


RUNNERS = {"corrupt_feedstock": run_corrupt_feedstock}


@settings(max_examples=25, deadline=None)
@given(
    profile=st.sampled_from(PROFILES),
    seed=st.integers(min_value=0, max_value=3),
)
def test_fault_profiles_never_change_the_answer(profile, seed):
    db = make_db(seed)
    expected = serial_answer(db, NEW_SUPPORT)
    old_patterns = serial_answer(db, OLD_SUPPORT)
    if len(old_patterns) == 0:
        return  # nothing to recycle at this seed; vacuous
    patterns, degradation = RUNNERS[profile](db, old_patterns)
    assert patterns == expected
    assert isinstance(degradation.describe(), str)
