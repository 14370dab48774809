"""Per-miner unit tests: each baseline against pinned and oracle results."""

from __future__ import annotations

import pytest

from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.metrics.counters import CostCounters
from repro.mining.apriori import mine_apriori
from repro.mining.bruteforce import mine_bruteforce
from repro.mining.eclat import mine_eclat_bitset
from repro.mining.fptree import mine_fpgrowth
from repro.mining.hmine import build_hstruct, mine_hmine
from repro.mining.flist import FList
from repro.mining.registry import get_miner, miner_names
from repro.mining.treeprojection import mine_treeprojection

ALL_MINERS = miner_names("baseline")


@pytest.mark.parametrize("name", ALL_MINERS)
class TestEveryMiner:
    def test_paper_example_at_xi3(self, name, paper_db, paper_old_patterns):
        """Example 1: the pattern set at xi_old = 3, exactly."""
        assert get_miner(name).fn(paper_db, 3) == paper_old_patterns

    def test_empty_database(self, name):
        assert len(get_miner(name).fn(TransactionDatabase([]), 1)) == 0

    def test_no_frequent_items(self, name, tiny_db):
        assert len(get_miner(name).fn(tiny_db, 10)) == 0

    def test_min_support_one_counts_everything(self, name):
        db = TransactionDatabase([[1, 2], [2, 3]])
        patterns = get_miner(name).fn(db, 1)
        assert patterns.support({1}) == 1
        assert patterns.support({2}) == 2
        assert patterns.support({1, 2}) == 1
        assert {1, 3} not in patterns

    def test_invalid_support_rejected(self, name, tiny_db):
        with pytest.raises(MiningError):
            get_miner(name).fn(tiny_db, 0)

    def test_counters_populated(self, name, paper_db):
        counters = CostCounters()
        get_miner(name).fn(paper_db, 2, counters)
        assert counters.patterns_emitted > 0
        assert counters.tuple_scans > 0

    def test_identical_transactions(self, name):
        db = TransactionDatabase([[1, 2, 3]] * 5)
        patterns = get_miner(name).fn(db, 5)
        assert len(patterns) == 7  # all non-empty subsets of {1,2,3}
        assert all(s == 5 for _p, s in patterns.items())

    def test_singleton_transactions(self, name):
        db = TransactionDatabase([[1], [1], [2]])
        patterns = get_miner(name).fn(db, 2)
        assert patterns.as_dict() == {frozenset({1}): 2}


class TestBruteForce:
    def test_matches_manual_counts(self, tiny_db):
        patterns = mine_bruteforce(tiny_db, 2)
        assert patterns.support({2, 3}) == 2
        assert {1, 3} not in patterns

    def test_rejects_long_transactions(self):
        db = TransactionDatabase([list(range(25))])
        with pytest.raises(MiningError, match="brute-force limit"):
            mine_bruteforce(db, 1)


class TestHMineInternals:
    def test_hstruct_projects_onto_flist(self, paper_db):
        flist = FList.from_database(paper_db, 2)
        hstruct = build_hstruct(paper_db, flist)
        # Tuple 200 (b,c,d,f,g) loses b and orders as d,f,g,c.
        assert (4, 6, 7, 3) in hstruct
        assert all(tx for tx in hstruct)

    def test_projection_counter(self, paper_db):
        counters = CostCounters()
        mine_hmine(paper_db, 2, counters)
        assert counters.projections > 0


class TestAlgorithmSpecificCounters:
    def test_eclat_counts_intersections(self, paper_db):
        counters = CostCounters()
        mine_eclat_bitset(paper_db, 2, counters)
        assert counters.as_dict()["tidset_intersections"] > 0

    def test_treeprojection_counts_matrix_updates(self, paper_db):
        counters = CostCounters()
        mine_treeprojection(paper_db, 2, counters)
        assert counters.as_dict()["matrix_updates"] > 0

    def test_fpgrowth_uses_single_path_shortcut(self):
        db = TransactionDatabase([[1, 2, 3, 4]] * 4)
        counters = CostCounters()
        mine_fpgrowth(db, 2, counters)
        assert counters.as_dict()["single_path_shortcuts"] >= 1


class TestAprioriDetails:
    def test_level_wise_prune(self):
        # {1,2} and {1,3} frequent but {2,3} not -> {1,2,3} never counted.
        db = TransactionDatabase([[1, 2], [1, 2], [1, 3], [1, 3], [2], [3]])
        patterns = mine_apriori(db, 2)
        assert {1, 2} in patterns
        assert {1, 3} in patterns
        assert {1, 2, 3} not in patterns
