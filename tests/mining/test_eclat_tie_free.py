"""The serving kernel's ``tie_free`` verdict.

``mine_eclat_bitset`` reports ``PatternSet.tie_free`` True only when no
pattern in its answer has an extension of equal support, which makes
every pattern closed: the warehouse then skips a closed condensation
that could not shrink the set. The property holds the verdict to both
halves of that claim over small random databases, half of them with a
planted tie that no node sees as a perfect extension (the pinned
regression's shape), so a kernel that checks perfect extensions only
fails the property too.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.patterns import CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.metrics.counters import CostCounters
from repro.mining.apriori import mine_apriori
from repro.mining.eclat import mine_eclat_bitset

rows = st.lists(
    st.lists(st.integers(min_value=0, max_value=5), max_size=5, unique=True),
    max_size=9,
)

# {7, 8} has the tidset of {6, 7, 8}, but 6 comes first in the search
# order (least support), so no node meets the tie as a perfect
# extension. The items are outside the drawn range, so the tie survives
# any random rows next to it.
BACKWARD_TIE = [[6, 7, 8], [6, 7], [6, 8], [7], [8], [7], [8]]


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
@given(
    random_rows=rows,
    plant=st.booleans(),
    min_support=st.integers(min_value=1, max_value=3),
)
def test_verdict_is_sound_and_complete(random_rows, plant, min_support):
    # The planted block repeats ``min_support`` times, so the tie is frequent.
    planted = BACKWARD_TIE * min_support if plant else []
    db = TransactionDatabase(random_rows + planted)
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
    the two leaves' equal tidsets reveal the tie. Both leaves are lone
    children ({1, 2, 3} of node {1, 2}, {2, 3} of node {2}), which the
    search emits without a call of their own, so this also pins the
    leaf check on that path."""
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
    assert not mine_apriori(db, 1).tie_free  # only the Eclat kernel proves
    assert not patterns.filter_min_support(1).tie_free
    assert not patterns.filter(lambda items, support: True).tie_free
