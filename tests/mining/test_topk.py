"""Tests for top-k frequent pattern mining."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.mining.bruteforce import mine_bruteforce
from repro.mining.topk import mine_top_k, top_k_by_probe


class TestMineTopK:
    def test_paper_example(self, paper_db):
        patterns, threshold = mine_top_k(paper_db, k=3)
        assert len(patterns) >= 3
        assert all(s >= threshold for _p, s in patterns.items())
        # No larger threshold admits 3 patterns.
        richer = mine_bruteforce(paper_db, threshold + 1)
        assert len(richer) < 3 or threshold == len(paper_db)

    def test_threshold_is_maximal(self, paper_db):
        for k in (1, 5, 11, 25):
            patterns, threshold = mine_top_k(paper_db, k=k)
            assert len(patterns) >= k
            if threshold < len(paper_db):
                above = mine_bruteforce(paper_db, threshold + 1)
                assert len(above) < k

    def test_too_many_requested(self):
        db = TransactionDatabase([[1], [2]])
        with pytest.raises(MiningError, match="fewer than k"):
            mine_top_k(db, k=100)

    def test_invalid_parameters(self, paper_db):
        with pytest.raises(MiningError):
            mine_top_k(paper_db, k=0)


class TestProbeSearch:
    def test_ties_at_threshold_all_returned(self):
        db = TransactionDatabase([[1, 2]] * 4)
        patterns, threshold = mine_top_k(db, k=2)
        assert threshold == 4
        assert len(patterns) == 3  # {1}, {2}, {1,2} all tie at 4

    @given(
        transactions=st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=4),
            min_size=1,
            max_size=15,
        ),
        k=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_threshold_maximality_property(self, transactions, k):
        db = TransactionDatabase(transactions)
        try:
            patterns, threshold = mine_top_k(db, k=k)
        except MiningError:
            assert len(mine_bruteforce(db, 1)) < k
            return
        assert len(patterns) >= k
        if threshold < len(db):
            assert len(mine_bruteforce(db, threshold + 1)) < k

    def test_probe_contract_violation_k(self):
        with pytest.raises(MiningError):
            top_k_by_probe(lambda s: None, 0, 10)
