"""Tests for the FUP incremental baseline."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.fup import fup_applicable, fup_update, fup_update_delta
from repro.data.synthetic import random_database
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta
from repro.errors import MiningError
from repro.mining.apriori import mine_apriori
from repro.mining.bruteforce import mine_bruteforce


def grown(old_db, increment):
    return TransactionDatabase(
        list(old_db.transactions) + list(increment.transactions)
    )


class TestFUPCorrectness:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_remining_same_relative_support(self, seed):
        old_db = random_database(30, 8, 6, seed=seed)
        increment = random_database(10, 8, 6, seed=seed + 100)
        total = grown(old_db, increment)
        # Keep the relative threshold constant: 10% of each size.
        xi_old = max(1, len(old_db) // 10)
        xi_new = max(1, len(total) // 10)
        old_patterns = mine_apriori(old_db, xi_old)
        updated = fup_update(old_db, increment, old_patterns, xi_new)
        assert updated == mine_apriori(total, xi_new)

    def test_pattern_frequent_only_after_increment(self):
        """A newcomer concentrated in the increment must be found."""
        old_db = TransactionDatabase([[1, 2]] * 8 + [[3]] * 2)
        increment = TransactionDatabase([[4, 5]] * 6)
        old_patterns = mine_apriori(old_db, 2)
        updated = fup_update(old_db, increment, old_patterns, 4)
        assert updated.support({4, 5}) == 6
        assert updated == mine_apriori(grown(old_db, increment), 4)

    def test_old_winner_that_loses(self):
        """An old frequent pattern diluted below threshold must drop."""
        old_db = TransactionDatabase([[1, 2]] * 3 + [[9]] * 2)
        increment = TransactionDatabase([[7, 8]] * 15)
        old_patterns = mine_apriori(old_db, 3)
        assert {1, 2} in old_patterns
        updated = fup_update(old_db, increment, old_patterns, 6)
        assert {1, 2} not in updated
        assert updated == mine_apriori(grown(old_db, increment), 6)

    def test_empty_increment(self):
        old_db = random_database(20, 6, 5, seed=1)
        increment = TransactionDatabase([])
        old_patterns = mine_apriori(old_db, 2)
        assert fup_update(old_db, increment, old_patterns, 2) == old_patterns

    @pytest.mark.parametrize("appended", [[], [[1, 2], [2, 4]]], ids=["empty", "rows"])
    def test_feedstock_is_read_in_place_and_never_shared(self, appended):
        old_db = random_database(20, 6, 5, seed=1)
        increment = TransactionDatabase(appended)
        old_patterns = mine_apriori(old_db, 2)
        before = old_patterns.as_dict()
        updated = fup_update(old_db, increment, old_patterns, 2)
        assert old_patterns.as_dict() == before
        assert updated == mine_apriori(grown(old_db, increment), 2)
        # Writing to the answer must not reach the feedstock.
        updated.add({99}, 1)
        assert {99} not in old_patterns
        assert old_patterns.as_dict() == before

    def test_invalid_support_rejected(self, tiny_db):
        from repro.mining.patterns import PatternSet

        with pytest.raises(MiningError):
            fup_update(tiny_db, tiny_db, PatternSet(), 0)


class TestFUPEfficiencyContract:
    def test_winner_counting_scans_increment_only(self):
        """Winners must not trigger old-database rescans: the tuple-scan
        count stays well below |old| * levels."""
        from repro.metrics.counters import CostCounters

        old_db = TransactionDatabase([[1, 2, 3]] * 50)
        increment = TransactionDatabase([[1, 2, 3]] * 5)
        old_patterns = mine_apriori(old_db, 25)
        counters = CostCounters()
        fup_update(old_db, increment, old_patterns, 27, counters)
        # 3 levels of winners x 5 increment tuples plus level-1 newcomer
        # handling; nothing close to 50-tuple old-db scans per level.
        assert counters.tuple_scans < 50

    def test_old_database_untouched_when_no_newcomer_clears_the_bar(self):
        """Item 9 is a newcomer seen once, under the increment bar of 2:
        the increment rows are read once and the old database is never
        encoded."""
        from repro.metrics.counters import CostCounters

        old_db = TransactionDatabase([[1, 2, 3]] * 50)
        increment = TransactionDatabase([[1, 2, 3]] * 4 + [[9]])
        old_patterns = mine_apriori(old_db, 25)
        counters = CostCounters()
        updated = fup_update(old_db, increment, old_patterns, 27, counters)
        assert updated == mine_apriori(grown(old_db, increment), 27)
        assert old_db._encoded is None
        assert counters.tuple_scans == len(increment)


@given(
    old_transactions=st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=5), min_size=4, max_size=20
    ),
    new_transactions=st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=5), min_size=0, max_size=10
    ),
    relative=st.sampled_from([0.2, 0.34, 0.5]),
)
@settings(max_examples=50, deadline=None)
def test_fup_equals_remine_property(old_transactions, new_transactions, relative):
    old_db = TransactionDatabase(old_transactions)
    increment = TransactionDatabase(new_transactions)
    total = grown(old_db, increment)
    xi_old = max(1, int(relative * len(old_db)))
    xi_new = max(1, int(relative * len(total)))
    # FUP's precondition: the old run must be at least as permissive
    # relative to the old database.
    if xi_old / len(old_db) > xi_new / len(total):
        xi_old = max(1, int(xi_new * len(old_db) / len(total)))
    old_patterns = mine_bruteforce(old_db, xi_old)
    assert fup_update(old_db, increment, old_patterns, xi_new) == mine_bruteforce(
        total, xi_new
    )


# Two items outside the drawn range, so the planted pattern's old
# support is exactly what the strategy puts there.
PLANTED = (8, 9)


@st.composite
def absolute_support_updates(draw):
    """An old database, an insert-only delta and ``(xi_old, xi_new)`` at
    absolute supports that :func:`fup_applicable` admits.

    The old database holds :data:`PLANTED` in exactly ``xi_old - 1``
    rows, so it is a non-winner one short of the old bar, and the
    increment holds it once: the boundary case that makes it frequent at
    ``xi_new == xi_old``.
    """
    rows = st.lists(st.integers(0, 6), min_size=1, max_size=5)
    old_rows = draw(st.lists(rows, min_size=4, max_size=20))
    xi_old = draw(st.integers(1, len(old_rows)))
    xi_new = xi_old + draw(st.integers(0, 2))
    old_rows += [list(PLANTED)] * (xi_old - 1)
    appends = draw(st.lists(rows, min_size=0, max_size=8))
    if draw(st.booleans()):
        appends.append([*PLANTED, *draw(rows)])
    delta = DatabaseDelta.append(appends)
    assume(fup_applicable(delta, xi_old, xi_new, len(old_rows)))
    return TransactionDatabase(old_rows), delta, xi_old, xi_new


@given(absolute_support_updates())
@settings(max_examples=80, deadline=None)
def test_fup_equals_remine_at_absolute_support(update):
    old_db, delta, xi_old, xi_new = update
    old_patterns = mine_bruteforce(old_db, xi_old)
    assert fup_update_delta(old_db, delta, old_patterns, xi_new) == mine_bruteforce(
        delta.apply(old_db), xi_new
    )
