"""Property tests for PatternSet's derived closed view.

The view is definitional — a wrong implementation silently corrupts
downstream analyses — so it is tested against a direct restatement of
its definition over hypothesis-generated pattern sets.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.transactions import TransactionDatabase
from repro.mining.bruteforce import mine_bruteforce

transactions_strategy = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=5),
    min_size=1,
    max_size=15,
)


@given(transactions=transactions_strategy, min_support=st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_closed_matches_definition(transactions, min_support):
    db = TransactionDatabase(transactions)
    patterns = mine_bruteforce(db, min_support)
    closed = patterns.closed()
    for candidate, support in patterns.items():
        has_equal_support_superset = any(
            candidate < other and other_support == support
            for other, other_support in patterns.items()
        )
        assert (candidate in closed) == (not has_equal_support_superset)


@given(transactions=transactions_strategy, min_support=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_closed_patterns_reconstruct_all_supports(transactions, min_support):
    """The closed set is a lossless summary: any frequent pattern's
    support is the max support among its closed supersets."""
    db = TransactionDatabase(transactions)
    patterns = mine_bruteforce(db, min_support)
    closed = patterns.closed()
    for candidate, support in patterns.items():
        reconstructed = max(
            (s for p, s in closed.items() if candidate <= p), default=None
        )
        assert reconstructed == support
