"""Eclat's perfect-extension pruning: same answer, pinned cost.

An item whose intersection with a node leaves the node's support
unchanged is a perfect extension: it leaves the node's candidates and
every pattern below the node is emitted with and without it. The
property below builds databases where such items are common (duplicated
item columns, an item present in every row), so perfect extensions nest
and are inherited down the tree, and holds the search to the
brute-force oracle. The pinned counts are machine-independent, so CI
can check them.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import DATASETS
from repro.data.transactions import TransactionDatabase
from repro.metrics.counters import CostCounters
from repro.mining.bruteforce import mine_bruteforce
from repro.mining.eclat import mine_eclat_bitset

#: An item no base row holds; present in every row when ``universal``.
EVERYWHERE = 99


@st.composite
def tied_databases(draw) -> TransactionDatabase:
    """Rows over items 0-4, where each item in ``duplicated`` drags
    ``copies`` clone columns (10 + item, 20 + item, ...) along."""
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=4), max_size=4, unique=True),
            max_size=8,
        )
    )
    duplicated = draw(st.sets(st.integers(min_value=0, max_value=4)))
    copies = draw(st.integers(min_value=1, max_value=2))
    universal = draw(st.booleans())
    return TransactionDatabase(
        [
            row
            + [10 * k + item for item in row if item in duplicated for k in range(1, copies + 1)]
            + ([EVERYWHERE] if universal else [])
            for row in rows
        ]
    )


@settings(max_examples=60, deadline=None)
@given(db=tied_databases(), min_support=st.integers(min_value=1, max_value=4))
def test_pruned_eclat_matches_the_oracle(db, min_support):
    assert mine_eclat_bitset(db, min_support) == mine_bruteforce(db, min_support)


def _mine_counted(db, min_support):
    counters = CostCounters()
    result = mine_eclat_bitset(db, min_support, counters)
    return result, counters.as_dict()["tidset_intersections"]


def _dense_db() -> TransactionDatabase:
    return DATASETS["connect4"].load(31)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_identical_items_cost_one_intersection_per_pair(k):
    # Three rows hold all k items, one holds none: every item is a
    # perfect extension of each item before it.
    db = TransactionDatabase([list(range(k))] * 3 + [[k]])
    result, intersections = _mine_counted(db, 2)
    assert intersections == k * (k - 1) // 2
    assert len(result) == 2**k - 1
    assert set(result.items()) == {(p, 3) for p in result}


def test_connect4_intersections_are_pinned():
    """Seed 31 at xi 0.93: 45 intersections (502 without the pruning)."""
    db = _dense_db()
    result, intersections = _mine_counted(db, math.ceil(0.93 * len(db)))
    assert (len(result), intersections) == (511, 45)
