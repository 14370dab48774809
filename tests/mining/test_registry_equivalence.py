"""Hypothesis property: every registry entry mines the identical PatternSet.

The correctness invariant behind the whole benchmark suite, stated once
over random databases: for any database and threshold, every baseline
miner (python and bitset implementations alike) and every recycling
miner (over the compressed database) produces exactly the same pattern
set.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import compress
from repro.data.transactions import TransactionDatabase
from repro.mining.bruteforce import mine_bruteforce
from repro.mining.registry import iter_miners

databases = st.lists(
    st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=5),
    min_size=0,
    max_size=8,
).map(TransactionDatabase)


@settings(max_examples=40, deadline=None)
@given(db=databases, min_support=st.integers(min_value=1, max_value=3))
def test_every_baseline_matches_the_oracle(db, min_support):
    expected = mine_bruteforce(db, min_support)
    for spec in iter_miners("baseline"):
        assert spec.mine(db, min_support) == expected, spec.name


@settings(max_examples=40, deadline=None)
@given(
    db=databases,
    min_support=st.integers(min_value=1, max_value=2),
    slack=st.integers(min_value=0, max_value=2),
    strategy=st.sampled_from(["mcp", "mlp"]),
)
def test_every_recycler_matches_the_oracle(db, min_support, slack, strategy):
    """Recycling never changes the answer, whichever strategy claims."""
    old_patterns = mine_bruteforce(db, min_support + slack)
    if len(old_patterns) == 0:
        return  # nothing to recycle; compress() rejects empty pattern sets
    expected = mine_bruteforce(db, min_support)
    compressed = compress(db, old_patterns, strategy).compressed
    for spec in iter_miners("recycling"):
        assert spec.mine(compressed, min_support) == expected, spec.name
