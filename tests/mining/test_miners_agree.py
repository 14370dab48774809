"""Cross-validation: all baseline miners agree with brute force.

This is the substrate half of the correctness story (the recycling half
lives in tests/core/test_recycle_equivalence.py): five independent
implementations — level-wise, vertical, hyper-structure, prefix-tree and
lexicographic-tree — must produce identical (pattern, support) sets on
randomized and property-generated databases.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import random_database
from repro.data.transactions import TransactionDatabase
from repro.mining.bruteforce import mine_bruteforce
from repro.mining.registry import get_miner, miner_names

transactions_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=6),
    min_size=1,
    max_size=20,
)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("min_support", [1, 2, 4])
def test_all_miners_match_bruteforce_randomized(seed, min_support):
    db = random_database(
        n_transactions=25, n_items=9, max_transaction_length=7, seed=seed
    )
    reference = mine_bruteforce(db, min_support)
    for name in miner_names("baseline"):
        miner = get_miner(name).fn
        assert miner(db, min_support) == reference, f"{name} diverged (seed={seed})"


@given(transactions=transactions_strategy, min_support=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_all_miners_match_bruteforce_property(transactions, min_support):
    db = TransactionDatabase(transactions)
    reference = mine_bruteforce(db, min_support)
    for name in miner_names("baseline"):
        miner = get_miner(name).fn
        assert miner(db, min_support) == reference, f"{name} diverged"


@given(transactions=transactions_strategy)
@settings(max_examples=30, deadline=None)
def test_support_monotone_in_threshold(transactions):
    """Raising the threshold filters, never changes, supports."""
    db = TransactionDatabase(transactions)
    low = get_miner("hmine").fn(db, 1)
    high = get_miner("hmine").fn(db, 2)
    assert high == low.filter_min_support(2)


@given(transactions=transactions_strategy)
@settings(max_examples=30, deadline=None)
def test_apriori_property_subsets_frequent(transactions):
    """Every subset of a frequent pattern is frequent with >= support."""
    db = TransactionDatabase(transactions)
    patterns = get_miner("fpgrowth").fn(db, 2)
    for items, support in patterns.items():
        for drop in items:
            subset = items - {drop}
            if subset:
                assert patterns.support(subset) >= support


@given(transactions=transactions_strategy)
@settings(max_examples=30, deadline=None)
def test_reported_supports_are_true_supports(transactions):
    """Each miner's support must equal an independent containment count."""
    db = TransactionDatabase(transactions)
    patterns = get_miner("treeprojection").fn(db, 2)
    for items, support in patterns.items():
        assert db.support(items) == support
