"""Tests for recycling across database change (incremental mining).

The incremental miner is ``recycle_mine`` itself: the old patterns are
only compression vocabulary, so the database they were mined on may
have grown, shrunk or shifted. Changes are ``DatabaseDelta`` batches,
which keep the tids of surviving transactions.
"""

from __future__ import annotations

import pytest

from repro.core.recycle import recycle_mine
from repro.data.synthetic import quest_database, QuestParams
from repro.data.versioned import DatabaseDelta
from repro.errors import DataError, RecycleError
from repro.mining.apriori import mine_apriori
from repro.mining.hmine import mine_hmine
from repro.mining.patterns import PatternSet


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=120, n_items=30, avg_transaction_length=6), seed=4
    )


def appended(db, transactions):
    return DatabaseDelta.append(transactions).apply(db)


def deleted(db, tids):
    return DatabaseDelta.delete(tids).apply(db)


class TestGrownDatabase:
    def test_insertions_recycled_exactly(self, db):
        old_patterns = mine_hmine(db, 12)
        grown = appended(db, [[1, 2, 3], [2, 3, 4], [1, 2, 3, 4]])
        result = recycle_mine(grown, old_patterns, 10)
        assert result == mine_hmine(grown, 10)

    def test_large_growth_with_distribution_shift(self, db):
        """Incremental techniques struggle when the delta is drastic;
        recycling must stay exact regardless."""
        old_patterns = mine_hmine(db, 12)
        shifted = quest_database(
            QuestParams(n_transactions=120, n_items=30, avg_transaction_length=6),
            seed=99,
        )
        grown = appended(db, shifted.transactions)
        result = recycle_mine(grown, old_patterns, 15)
        assert result == mine_hmine(grown, 15)


class TestShrunkDatabase:
    def test_deletions_recycled_exactly(self, db):
        """Existing incremental techniques 'become awkward when the data
        set reduces' (Section 6) — recycling does not care."""
        old_patterns = mine_hmine(db, 12)
        shrunk = deleted(db, range(0, 60))
        result = recycle_mine(shrunk, old_patterns, 6)
        assert result == mine_hmine(shrunk, 6)

    def test_unknown_tid_rejected(self, db):
        with pytest.raises(DataError, match="unknown tids"):
            deleted(db, [10_000])

    def test_deletion_keeps_remaining_tids(self, db):
        shrunk = deleted(db, [0, 2])
        assert shrunk.tids == tuple(tid for tid in db.tids if tid not in (0, 2))
        assert len(shrunk) == len(db) - 2


class TestBothChanged:
    def test_constraint_and_data_change_together(self, db):
        """Section 2 extension case (2): constraints and database both
        change between iterations."""
        old_patterns = mine_hmine(db, 15)
        changed = DatabaseDelta(appends=[[5, 6, 7]] * 10, deletes=range(20)).apply(db)
        result = recycle_mine(changed, old_patterns, 4)
        assert result == mine_apriori(changed, 4)

    def test_empty_old_patterns_rejected(self, db):
        with pytest.raises(RecycleError, match="no patterns to recycle"):
            recycle_mine(db, PatternSet(), 5)

    @pytest.mark.parametrize(
        "algorithm", ["naive", "hmine", "fpgrowth", "treeprojection", "eclat-bitset"]
    )
    def test_all_algorithms(self, db, algorithm):
        old_patterns = mine_hmine(db, 12)
        grown = appended(db, [[1, 2, 3]] * 5)
        result = recycle_mine(grown, old_patterns, 8, algorithm=algorithm)
        assert result == mine_hmine(grown, 8)
