"""Tests for the shared filter/recycle/mine planner."""

from __future__ import annotations

import pytest

from repro.core.planner import (
    PATH_FILTER,
    PATH_MINE,
    PATH_RECYCLE,
    SERVING_BASELINE,
    UPDATE_FUP,
    UPDATE_RECYCLE,
    execute_plan,
    plan_support_path,
    plan_update_path,
    resolve_baseline_algorithm,
)
from repro.core.recycle import resolve_recycling_algorithm
from repro.data.synthetic import QuestParams, quest_database
from repro.data.versioned import DatabaseDelta
from repro.errors import RecycleError
from repro.mining.fptree import mine_fpgrowth
from repro.mining.hmine import mine_hmine
from repro.mining.patterns import PatternSet
from repro.mining.registry import get_miner


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=120, n_items=30, avg_transaction_length=5), seed=4
    )


class TestPlanning:
    def test_no_feedstock_mines(self):
        assert plan_support_path(10, None, None).path == PATH_MINE

    def test_equal_or_higher_support_filters(self, db):
        feedstock = mine_hmine(db, 8)
        assert plan_support_path(8, feedstock, 8).path == PATH_FILTER
        assert plan_support_path(12, feedstock, 8).path == PATH_FILTER

    def test_lower_support_recycles(self, db):
        feedstock = mine_hmine(db, 8)
        plan = plan_support_path(5, feedstock, 8)
        assert plan.path == PATH_RECYCLE
        assert plan.feedstock is feedstock
        assert plan.feedstock_support == 8

    def test_empty_feedstock_mines(self):
        assert plan_support_path(5, PatternSet(), 200).path == PATH_MINE

    def test_empty_feedstock_at_exact_support_filters_to_empty(self, db):
        """Feedstock mined at exactly the requested support, but empty:
        the equal-support rule wins, the plan filters, and the (correct)
        answer is the empty set — no remining."""
        barren_support = len(db) + 1
        feedstock = mine_hmine(db, barren_support)
        assert len(feedstock) == 0
        plan = plan_support_path(barren_support, feedstock, barren_support)
        assert plan.path == PATH_FILTER
        result = execute_plan(plan, db, barren_support)
        assert len(result) == 0
        assert result == mine_hmine(db, barren_support)


class TestExecution:
    @pytest.mark.parametrize("new_support", [4, 8, 15])
    def test_every_path_is_exact(self, db, new_support):
        feedstock = mine_hmine(db, 8)
        plan = plan_support_path(new_support, feedstock, 8)
        result = execute_plan(plan, db, new_support)
        assert result == mine_hmine(db, new_support)

    def test_mine_path_honors_algorithm(self, db):
        plan = plan_support_path(6, None, None)
        result = execute_plan(plan, db, 6, algorithm="eclat-bitset")
        assert result == mine_hmine(db, 6)


class TestServingKernel:
    """``algorithm=None`` (execute_plan's default) mines with the serving
    kernel; a recycle plan, which only the session builds, runs RP-Mine
    on the grouped bitset kernel."""

    def test_none_resolves_to_the_serving_pair(self):
        assert resolve_baseline_algorithm(None) == SERVING_BASELINE == "eclat-bitset"
        assert resolve_recycling_algorithm(None) == "naive"
        assert get_miner("naive", kind="recycling").needs_compressed

    @pytest.mark.parametrize(
        ("new_support", "path", "expected"),
        [
            (12, PATH_FILTER, []),
            (5, PATH_RECYCLE, [("recycling", "naive")]),
        ],
    )
    def test_support_paths(self, db, ran, new_support, path, expected):
        plan = plan_support_path(new_support, mine_fpgrowth(db, 8), 8)
        assert plan.path == path
        assert execute_plan(plan, db, new_support) == mine_fpgrowth(db, new_support)
        assert ran == expected

    def test_mine_path(self, db, ran):
        plan = plan_support_path(6, None, None)
        assert execute_plan(plan, db, 6) == mine_fpgrowth(db, 6)
        assert ran == [("baseline", SERVING_BASELINE)]

    @pytest.mark.parametrize(
        ("deletes", "mode", "expected"),
        [
            (0, UPDATE_FUP, []),
            (2, UPDATE_RECYCLE, [("recycling", "naive")]),
        ],
    )
    def test_update_paths(self, db, ran, deletes, mode, expected):
        delta = DatabaseDelta(
            appends=db.transactions[:4], deletes=frozenset(db.tids[:deletes])
        )
        new_db = delta.apply(db)
        plan = plan_update_path(
            8, mine_fpgrowth(db, 8), 8, db, delta, len(new_db)
        )
        assert plan.update_mode == mode
        assert execute_plan(plan, new_db, 8) == mine_fpgrowth(new_db, 8)
        assert ran == expected


class TestAlgorithmResolution:
    def test_naive_initializes_with_hmine(self):
        assert resolve_baseline_algorithm("naive") == "hmine"
        assert resolve_baseline_algorithm("fpgrowth") == "fpgrowth"

    def test_exact_recycling_match(self):
        assert resolve_recycling_algorithm("hmine") == "hmine"

    @pytest.mark.parametrize(
        "algorithm", ["eclat-bitset", "apriori", "bruteforce"]
    )
    def test_no_recycler_of_its_own_runs_rp_mine(self, algorithm):
        assert resolve_recycling_algorithm(algorithm) == "naive"

    @pytest.mark.parametrize("algorithm", ["bogus", "closed", "ndi", "eclat"])
    def test_neither_baseline_nor_recycler_raises(self, algorithm):
        with pytest.raises(RecycleError, match="unknown algorithm"):
            resolve_recycling_algorithm(algorithm)
