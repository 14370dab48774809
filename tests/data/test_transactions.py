"""Unit tests for TransactionDatabase."""

from __future__ import annotations

import pytest

from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta
from repro.errors import DataError


class TestConstruction:
    def test_normalizes_sorting_and_duplicates(self):
        db = TransactionDatabase([[3, 1, 2, 1]])
        assert db[0] == (1, 2, 3)

    def test_default_tids_are_positions(self):
        db = TransactionDatabase([[1], [2], [3]])
        assert db.tids == (0, 1, 2)

    def test_explicit_tids(self):
        db = TransactionDatabase([[1], [2]], tids=[100, 200])
        assert db.tids == (100, 200)

    def test_tid_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            TransactionDatabase([[1], [2]], tids=[100])

    @pytest.mark.parametrize("tids", [[0, 0], ["a", 1], [-1, 1], [True, 1], [0.0, 1]])
    def test_tids_must_be_unique_non_negative_ints(self, tids):
        with pytest.raises(DataError, match="unique non-negative ints"):
            TransactionDatabase([[1], [2]], tids=tids)

    def test_negative_items_rejected(self):
        with pytest.raises(DataError):
            TransactionDatabase([[-1, 2]])

    def test_non_integer_items_rejected(self):
        with pytest.raises(DataError):
            TransactionDatabase([["a", "b"]])

    @pytest.mark.parametrize("rows", [[[1, None]], [[1, "a"]], [5], [[True, 2]]])
    @pytest.mark.parametrize(
        "build", [TransactionDatabase, DatabaseDelta.append], ids=["db", "delta"]
    )
    def test_malformed_rows_raise_data_error(self, build, rows):
        with pytest.raises(DataError, match="bad items"):
            build(rows)

    @pytest.mark.parametrize("tids", [[True], [[0]], ["0"]])
    def test_malformed_delete_tids_raise_data_error(self, tids):
        with pytest.raises(DataError, match="deleted tids"):
            DatabaseDelta.delete(tids)

    def test_empty_database(self):
        db = TransactionDatabase([])
        assert len(db) == 0
        assert db.average_length() == 0.0
        assert db.items() == set()

    def test_empty_transactions_are_kept(self):
        db = TransactionDatabase([[], [1]])
        assert len(db) == 2
        assert db[0] == ()


class TestStatistics:
    def test_item_supports(self, tiny_db):
        supports = tiny_db.item_supports()
        assert supports[1] == 2
        assert supports[2] == 3
        assert supports[3] == 3

    def test_item_supports_cached(self, tiny_db):
        assert tiny_db.item_supports() is tiny_db.item_supports()

    def test_average_length(self, tiny_db):
        assert tiny_db.average_length() == pytest.approx((3 + 2 + 2 + 1) / 4)

    def test_total_items(self, tiny_db):
        assert tiny_db.total_items() == 8

    def test_total_items_equals_the_row_sum(self):
        base = TransactionDatabase([[1, 2, 3], [2, 3], [4], [1, 4, 5]])
        # Deleting tids 2 and 3 removes every row holding item 4 or 5,
        # so the child's patched supports drop both items.
        delta = DatabaseDelta(appends=((2, 6), (6,)), deletes=frozenset({2, 3}))
        child = delta.apply(base)
        for db in (base, child, TransactionDatabase([])):
            assert db.total_items() == sum(len(tx) for tx in db)
        assert (base.total_items(), child.total_items()) == (9, 8)

    def test_item_count(self, tiny_db):
        assert tiny_db.item_count() == 3

    def test_support_of_itemset(self, tiny_db):
        assert tiny_db.support({1, 2}) == 2
        assert tiny_db.support({2, 3}) == 2
        assert tiny_db.support({1, 3}) == 1
        assert tiny_db.support({1, 2, 3}) == 1

    def test_support_of_empty_itemset_is_db_size(self, tiny_db):
        assert tiny_db.support(()) == len(tiny_db)

    def test_paper_example_supports(self, paper_db):
        # Example 1's F-list at xi = 2: d:2, f:3, g:3, a:3, e:4, c:4.
        supports = paper_db.item_supports()
        assert supports[4] == 2   # d
        assert supports[6] == 3   # f
        assert supports[7] == 3   # g
        assert supports[1] == 3   # a
        assert supports[5] == 4   # e
        assert supports[3] == 4   # c


class TestDerivedDatabases:
    def test_sample(self, tiny_db):
        sampled = tiny_db.sample([0, 2])
        assert sampled.transactions == ((1, 2, 3), (2, 3))

    def test_sample_rejects_repeated_positions(self, tiny_db):
        with pytest.raises(DataError, match="unique"):
            tiny_db.sample([0, 0])


class TestRelativeSupport:
    def test_fraction_rounds_up(self):
        db = TransactionDatabase([[1]] * 10)
        assert db.relative_to_absolute(0.25) == 3

    def test_absolute_passthrough(self, tiny_db):
        assert tiny_db.relative_to_absolute(3) == 3

    def test_nonpositive_rejected(self, tiny_db):
        with pytest.raises(DataError):
            tiny_db.relative_to_absolute(0)

    @pytest.mark.parametrize("support", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, tiny_db, support):
        with pytest.raises(DataError, match="finite"):
            tiny_db.relative_to_absolute(support)

    def test_minimum_is_one(self):
        db = TransactionDatabase([[1]])
        assert db.relative_to_absolute(0.0001) == 1

    def test_float_one_means_every_transaction(self):
        # 1.0 is the 100% relative threshold, not an absolute count of 1.
        db = TransactionDatabase([[1]] * 10)
        assert db.relative_to_absolute(1.0) == 10

    def test_int_one_means_absolute_count_one(self):
        db = TransactionDatabase([[1]] * 10)
        assert db.relative_to_absolute(1) == 1


class TestEquality:
    def test_equal_databases(self):
        assert TransactionDatabase([[1, 2]]) == TransactionDatabase([[2, 1]])

    def test_different_tids_not_equal(self):
        assert TransactionDatabase([[1]], tids=[5]) != TransactionDatabase([[1]])

    def test_hashable(self):
        assert len({TransactionDatabase([[1]]), TransactionDatabase([[1]])}) == 1
