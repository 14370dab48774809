"""The serving kernel's ``tie_free`` verdict.

``mine_eclat_bitset`` reports ``PatternSet.tie_free`` True only when no
pattern in its answer has an extension of equal support, which makes
every pattern closed: the warehouse then skips a closed condensation
that could not shrink the set. The property holds the verdict to both
halves of that claim over small random databases, and the pinned
regression is a tie that no node sees as a perfect extension.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.patterns import CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.metrics.counters import CostCounters
from repro.mining.eclat import mine_eclat, mine_eclat_bitset

databases = st.lists(
    st.lists(st.integers(min_value=0, max_value=5), max_size=5, unique=True),
    max_size=9,
).map(TransactionDatabase)


def _has_tie(patterns) -> bool:
    """Whether some X and X ∪ {i} in ``patterns`` share a support."""
    supports = patterns.as_dict()
    return any(
        supports.get(items - {item}) == support
        for items, support in supports.items()
        if len(items) > 1
        for item in items
    )


@settings(max_examples=200, deadline=None)
@given(db=databases, min_support=st.integers(min_value=1, max_value=3))
def test_verdict_is_sound_and_complete(db, min_support):
    patterns = mine_eclat_bitset(db, min_support)
    if patterns.tie_free:
        closed = CondensedPatternSet.condense(patterns, min_support, "closed")
        assert len(closed) == len(patterns)
    if _has_tie(patterns):
        assert not patterns.tie_free
    else:
        # Complete too: every tie-free answer is recognised.
        assert patterns.tie_free


def test_backward_tie_is_not_tie_free():
    """{2, 3} has the tidset of {1, 2, 3}, but item 1 precedes both in
    the search order, so no node meets it as a perfect extension: only
    the two leaves' equal tidsets reveal the tie."""
    db = TransactionDatabase([[1, 2, 3], [1, 2], [1, 3], [2], [3], [2], [3]])
    counters = CostCounters()
    patterns = mine_eclat_bitset(db, 1, counters)
    assert counters.as_dict()["tidset_intersections"] == 4
    assert patterns.support({2, 3}) == patterns.support({1, 2, 3}) == 1
    assert not patterns.tie_free


def test_tie_free_answer_is_flagged():
    db = TransactionDatabase([[1, 2], [1], [1], [2, 3], [3], [3], [3]])
    patterns = mine_eclat_bitset(db, 1)
    assert patterns.tie_free


def test_the_verdict_is_never_inherited():
    db = TransactionDatabase([[1, 2], [1], [1], [2, 3], [3], [3], [3]])
    patterns = mine_eclat_bitset(db, 1)
    assert patterns.tie_free
    assert not mine_eclat(db, 1).tie_free  # the python backend never proves
    assert not patterns.filter_min_support(1).tie_free
    assert not patterns.filter(lambda items, support: True).tie_free
