"""Unit tests for the F-list (Definition 3.1)."""

from __future__ import annotations

import pytest

from repro.errors import MiningError
from repro.mining.flist import FList


class TestFList:
    def test_paper_flist_order(self, paper_db):
        """Definition 3.1's example: <d:2, f:3, g:3, a:3, e:4, c:4>.

        The paper breaks support ties arbitrarily; this library breaks
        them by item id for determinism, so a (=1) precedes f and g, and
        c (=3) precedes e — same supports, same semantics.
        """
        flist = FList.from_database(paper_db, min_support=2)
        assert flist.order == (4, 1, 6, 7, 3, 5)  # d a f g c e
        assert [flist.support(i) for i in flist.order] == [2, 3, 3, 3, 4, 4]

    def test_infrequent_items_excluded(self, paper_db):
        flist = FList.from_database(paper_db, min_support=2)
        for item in (2, 8, 9):  # b, h, i each occur once
            assert item not in flist

    def test_ranks(self, paper_db):
        flist = FList.from_database(paper_db, min_support=2)
        assert flist.rank(4) == 0
        assert flist.rank(3) == 4
        assert flist.rank(5) == 5

    def test_rank_of_infrequent_raises(self, paper_db):
        flist = FList.from_database(paper_db, min_support=2)
        with pytest.raises(MiningError):
            flist.rank(2)

    def test_sort_items_matches_table2_column4(self, paper_db):
        """Table 2: outlying items {a,d,e} order to (d, a, e); b drops."""
        flist = FList.from_database(paper_db, min_support=2)
        assert flist.sort_items([1, 4, 5]) == [4, 1, 5]
        assert flist.sort_items([2, 4]) == [4]
        assert flist.sort_items([]) == []

    def test_min_support_below_one_rejected(self):
        with pytest.raises(MiningError):
            FList.from_supports({1: 5}, min_support=0)

    def test_duplicate_items_rejected(self):
        with pytest.raises(MiningError):
            FList([1, 1], {1: 3})

    def test_ties_broken_by_item_id(self):
        flist = FList.from_supports({9: 3, 2: 3, 5: 3}, min_support=2)
        assert flist.order == (2, 5, 9)
