"""The Eclat search's emission paths, pinned on fixed databases.

``_search`` writes each node's patterns straight into a dict, emits a
node's lone child (the single candidate left after narrowing) without
recursing, and checks one aggregate: the number of patterns emitted
must equal the number held. A tie between two lone-child leaves is
pinned by ``test_eclat_tie_free.py::test_backward_tie_is_not_tie_free``.
"""

from __future__ import annotations

import pytest

from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.metrics.counters import CostCounters
from repro.mining.bruteforce import mine_bruteforce
from repro.mining.eclat import _search, mine_eclat_bitset


def test_lone_child_joins_every_subset_of_inherited_perfect_extensions():
    """Search order 1, 4, 2, 3. Node {1} (support 3) has the perfect
    extensions 2 and 3 and one other candidate, 4, at support 2: the
    lone child {1, 4} is emitted with all 2^2 subsets of (2, 3)."""
    db = TransactionDatabase(
        [[1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3], [2], [3], [4], [2, 3, 4]]
    )
    counters = CostCounters()
    patterns = mine_eclat_bitset(db, 2, counters)
    assert patterns == mine_bruteforce(db, 2)
    below_child = {
        items: support for items, support in patterns.items()
        if {1, 4} <= items
    }
    assert below_child == {
        frozenset({1, 4}): 2,
        frozenset({1, 2, 4}): 2,
        frozenset({1, 3, 4}): 2,
        frozenset({1, 2, 3, 4}): 2,
    }
    assert counters.patterns_emitted == len(patterns)


def test_repeated_root_item_trips_the_aggregate_guard():
    """Item 1 twice among the roots is emitted three times at the same
    support, which no per-pattern support check would notice."""
    db = TransactionDatabase([[1, 2], [1]])
    root = (1, db.encoded().bitmap_for_item(1), 2)
    with pytest.raises(MiningError, match="emitted 3 patterns but 1 are distinct"):
        _search(db, [root, root], 1, None)
