"""Unit tests for the planner's update path and its FUP gate."""

from __future__ import annotations

import pytest

from repro.core.fup import fup_applicable, fup_update_delta
from repro.core.planner import (
    PATH_FILTER,
    PATH_MINE,
    PATH_UPDATE,
    UPDATE_CHURN_CUTOFF,
    UPDATE_FUP,
    UPDATE_RECYCLE,
    execute_plan,
    plan_update_path,
)
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta
from repro.errors import MiningError
from repro.metrics.counters import CostCounters
from repro.mining.hmine import mine_hmine
from repro.resilience import (
    REASON_FUP_INSERT_ONLY,
    REASON_UPDATE_FAILED,
    UPDATE_PATCH,
    DegradationReport,
    FaultInjector,
)


@pytest.fixture
def db():
    return TransactionDatabase(
        [[1, 2, 3], [1, 2], [2, 3], [1, 3], [1, 2, 3], [4, 5], [1, 4]]
    )


def _setup(db, xi=2, appends=((1, 2),), deletes=()):
    old_patterns = mine_hmine(db, xi)
    delta = DatabaseDelta(appends=tuple(appends), deletes=frozenset(deletes))
    new_db = delta.apply(db)
    return old_patterns, delta, new_db


class TestPlanUpdatePath:
    def test_no_feedstock_or_no_ancestor_means_mine(self, db):
        delta = DatabaseDelta.append([[1]])
        assert plan_update_path(2, None, None, db, delta, 8).path == PATH_MINE
        patterns = mine_hmine(db, 2)
        assert plan_update_path(2, patterns, 2, None, delta, 8).path == PATH_MINE
        assert plan_update_path(2, patterns, 2, db, None, 8).path == PATH_MINE

    def test_empty_delta_falls_back_to_support_trichotomy(self, db):
        patterns = mine_hmine(db, 2)
        plan = plan_update_path(3, patterns, 2, db, DatabaseDelta(), len(db))
        assert plan.path == PATH_FILTER  # same db, higher support

    def test_churn_above_cutoff_remines(self, db):
        patterns = mine_hmine(db, 2)
        appends = tuple((1, 2) for _ in range(2 * len(db)))
        delta = DatabaseDelta.append(appends)
        new_size = len(db) + len(appends)
        assert len(appends) / new_size > UPDATE_CHURN_CUTOFF
        plan = plan_update_path(2, patterns, 2, db, delta, new_size)
        assert plan.path == PATH_MINE

    def test_small_insert_only_delta_picks_fup(self, db):
        patterns, delta, new_db = _setup(db)
        plan = plan_update_path(2, patterns, 2, db, delta, len(new_db))
        assert plan.path == PATH_UPDATE and plan.update_mode == UPDATE_FUP
        assert plan.delta is delta and plan.ancestor_db is db
        assert plan.distance == delta.size

    def test_deletion_delta_picks_recycle_mode(self, db):
        patterns, delta, new_db = _setup(db, deletes=(0,))
        plan = plan_update_path(2, patterns, 2, db, delta, len(new_db))
        assert plan.path == PATH_UPDATE and plan.update_mode == UPDATE_RECYCLE

    def test_update_plans_execute_bit_identically(self, db):
        for deletes in ((), (0, 5)):
            patterns, delta, new_db = _setup(db, deletes=deletes)
            plan = plan_update_path(2, patterns, 2, db, delta, len(new_db))
            assert plan.path == PATH_UPDATE
            assert execute_plan(plan, new_db, 2) == mine_hmine(new_db, 2)


class TestFupGate:
    def test_constant_absolute_support_growth_is_admitted(self):
        # The warehouse scenario: threshold fixed, tiny increment. The
        # textbook relative condition fails here; the exact bar admits it.
        delta = DatabaseDelta.append([[1, 2], [2, 3]])
        assert fup_applicable(delta, 100, 100, old_size=1000)

    def test_large_increment_at_constant_absolute_support_is_refused(self):
        delta = DatabaseDelta.append([(1, 2)] * 500)
        assert not fup_applicable(delta, 100, 100, old_size=1000)

    def test_deletions_and_support_drops_are_refused(self):
        assert not fup_applicable(DatabaseDelta.delete([0]), 100, 100, 1000)
        drop = DatabaseDelta.append([[1]])
        assert not fup_applicable(drop, 100, 50, 1000)

    def test_fup_update_delta_rejects_deletions_with_structured_reason(self, db):
        """Satellite: the refusal is an exception plus a machine-readable
        degradation step, not a silent wrong answer."""
        patterns = mine_hmine(db, 2)
        delta = DatabaseDelta.delete([0])
        degradation = DegradationReport()
        with pytest.raises(MiningError, match="insert"):
            fup_update_delta(db, delta, patterns, 2, degradation=degradation)
        assert degradation.degraded
        step = degradation.steps[-1]
        assert step.requested == "update" and step.served == "mine"
        assert step.reason == REASON_FUP_INSERT_ONLY


class TestUpdateFaultFallback:
    def test_crashed_patch_degrades_to_clean_scratch_mine(self, db):
        patterns, delta, new_db = _setup(db, deletes=(0,))
        plan = plan_update_path(2, patterns, 2, db, delta, len(new_db))
        assert plan.path == PATH_UPDATE
        faults = FaultInjector(seed=0)
        faults.inject(UPDATE_PATCH, probability=1.0)
        counters = CostCounters()
        degradation = DegradationReport()
        result = execute_plan(
            plan, new_db, 2,
            counters=counters,
            fault_injector=faults,
            degradation=degradation,
        )
        assert result == mine_hmine(new_db, 2)
        assert counters.as_dict().get("update_fallbacks") == 1
        step = degradation.steps[-1]
        assert step.requested == PATH_UPDATE and step.served == PATH_MINE
        assert step.reason == REASON_UPDATE_FAILED

    def test_slow_patch_still_serves_exactly(self, db):
        patterns, delta, new_db = _setup(db)
        plan = plan_update_path(2, patterns, 2, db, delta, len(new_db))
        faults = FaultInjector(seed=0)
        faults.inject(UPDATE_PATCH, probability=1.0, delay_seconds=0.001)
        result = execute_plan(plan, new_db, 2, fault_injector=faults)
        assert result == mine_hmine(new_db, 2)
