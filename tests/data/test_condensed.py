"""Tests for the condensed pattern representations (full / closed).

The contract under test: a :class:`CondensedPatternSet` is a *lossless*
stand-in for the full frequent set — ``expand()`` reconstructs it bit
for bit, and ``filter_min_support`` commutes with expansion.
"""

from __future__ import annotations

import pytest

from repro.data.patterns import REPRESENTATIONS, CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.mining.hmine import mine_hmine


@pytest.fixture
def db():
    # Items 3 and 4 only ever occur inside full {1,2,3,4} rows, so whole
    # swaths of the frequent set share one support and collapse onto the
    # closed patterns {1,2} and {1,2,3,4}.
    return TransactionDatabase([[1, 2, 3, 4]] * 4 + [[1, 2]] * 4)


@pytest.fixture
def full(db):
    return mine_hmine(db, 4)


class TestCondense:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_expand_round_trips(self, db, full, representation):
        condensed = CondensedPatternSet.condense(
            full, 4, representation, n_transactions=len(db)
        )
        assert condensed.expand() == full

    def test_closed_is_smaller_on_dense_data(self, db, full):
        condensed = CondensedPatternSet.condense(
            full, 4, "closed", n_transactions=len(db)
        )
        assert len(condensed) < len(full)

    def test_unknown_representation_rejected(self, full):
        # "ndi" (non-derivable itemsets) was a representation once.
        for representation in ("lossy", "ndi"):
            with pytest.raises(MiningError, match="representation"):
                CondensedPatternSet.condense(full, 4, representation)
            with pytest.raises(MiningError, match="representation"):
                CondensedPatternSet(representation, {}, 4, n_transactions=8)

    def test_empty_set_condenses_to_empty(self, db, full):
        empty = full.filter_min_support(10**6)
        for representation in REPRESENTATIONS:
            condensed = CondensedPatternSet.condense(
                empty, 10**6, representation, n_transactions=len(db)
            )
            assert len(condensed) == 0
            assert len(condensed.expand()) == 0


class TestQueries:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_filter_commutes_with_expansion(self, db, full, representation):
        condensed = CondensedPatternSet.condense(
            full, 4, representation, n_transactions=len(db)
        )
        for threshold in (4, 5, 8, 9):
            assert (
                condensed.filter_min_support(threshold).expand()
                == full.filter_min_support(threshold)
            )

    def test_condensation_ratio_gauge(self, db, full):
        condensed = CondensedPatternSet.condense(
            full, 4, "closed", n_transactions=len(db)
        )
        assert condensed.condensation_ratio() == len(full) / len(condensed)
        assert condensed.known_expanded_count() == len(full)

    def test_entry_patterns_are_exact_subset(self, db, full):
        condensed = CondensedPatternSet.condense(
            full, 4, "closed", n_transactions=len(db)
        )
        entries = condensed.entry_patterns()
        for items, support in entries.items():
            assert full.support(items) == support


class TestPickling:
    def test_pickle_round_trip_drops_caches(self, db, full):
        import pickle

        condensed = CondensedPatternSet.condense(
            full, 4, "closed", n_transactions=len(db)
        )
        condensed.expand()  # populate the cache
        clone = pickle.loads(pickle.dumps(condensed))
        assert clone == condensed
        assert clone.expand() == full
