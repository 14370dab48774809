"""Tests for ConstraintSet evaluation and change classification."""

from __future__ import annotations

import pytest

from repro.constraints.base import ChangeKind, ConstraintContext
from repro.constraints.engine import ConstraintSet
from repro.constraints.support import (
    ItemsWithin,
    MaxLength,
    MinLength,
    MinSupport,
)
from repro.errors import ConstraintError

CONTEXT = ConstraintContext(db_size=100)


class TestConstruction:
    def test_requires_exactly_one_min_support(self):
        with pytest.raises(ConstraintError):
            ConstraintSet([MaxLength(3)])
        with pytest.raises(ConstraintError):
            ConstraintSet([MinSupport(2), MinSupport(3)])

    def test_min_support_shorthand(self):
        constraints = ConstraintSet.min_support(0.05)
        assert constraints.absolute_support(100) == 5

    def test_others_excludes_support(self):
        constraints = ConstraintSet.of(MinSupport(2), MaxLength(3))
        assert len(constraints.others()) == 1
        assert isinstance(constraints.others()[0], MaxLength)


class TestEvaluation:
    def test_conjunction(self):
        constraints = ConstraintSet.of(MinSupport(3), MaxLength(2))
        assert constraints.satisfied(frozenset({1, 2}), 5, CONTEXT)
        assert not constraints.satisfied(frozenset({1, 2, 3}), 5, CONTEXT)
        assert not constraints.satisfied(frozenset({1}), 2, CONTEXT)

    def test_filter_patterns(self, paper_old_patterns):
        constraints = ConstraintSet.of(MinSupport(3), MinLength(2))
        filtered = constraints.filter_patterns(paper_old_patterns, CONTEXT)
        assert len(filtered) == 6
        assert all(len(p) >= 2 for p in filtered)


class TestClassifyChange:
    def test_same(self):
        old = ConstraintSet.min_support(5)
        assert old.classify_change(ConstraintSet.min_support(5), 100) is ChangeKind.SAME

    def test_support_tightened_and_relaxed(self):
        old = ConstraintSet.min_support(5)
        assert old.classify_change(ConstraintSet.min_support(8), 100) is ChangeKind.TIGHTENED
        assert old.classify_change(ConstraintSet.min_support(3), 100) is ChangeKind.RELAXED

    def test_added_constraint_tightens(self):
        old = ConstraintSet.min_support(5)
        new = ConstraintSet.of(MinSupport(5), MaxLength(3))
        assert old.classify_change(new, 100) is ChangeKind.TIGHTENED

    def test_dropped_constraint_relaxes(self):
        old = ConstraintSet.of(MinSupport(5), MaxLength(3))
        new = ConstraintSet.min_support(5)
        assert old.classify_change(new, 100) is ChangeKind.RELAXED

    def test_mixed_changes_are_incomparable(self):
        old = ConstraintSet.of(MinSupport(5), MaxLength(3))
        new = ConstraintSet.of(MinSupport(3), MaxLength(2))  # relax + tighten
        assert old.classify_change(new, 100) is ChangeKind.INCOMPARABLE

    def test_multiple_constraints_all_tightened(self):
        old = ConstraintSet.of(MinSupport(5), ItemsWithin({1, 2, 3}))
        new = ConstraintSet.of(MinSupport(6), ItemsWithin({1, 2}))
        assert old.classify_change(new, 100) is ChangeKind.TIGHTENED

    def test_replaced_incomparable_constraint(self):
        old = ConstraintSet.of(MinSupport(5), ItemsWithin({1, 2}))
        new = ConstraintSet.of(MinSupport(5), ItemsWithin({3, 4}))
        # Disjoint allowed-sets: new constraint unmatched (tighten) + old
        # dropped (relax) -> incomparable.
        assert old.classify_change(new, 100) is ChangeKind.INCOMPARABLE


class TestFilterVsRemineSemantics:
    def test_tightened_filter_equals_remine(self, paper_db):
        """The Section 2 guarantee, end to end with non-support constraints."""
        from repro.mining.hmine import mine_hmine

        context = ConstraintContext(db_size=len(paper_db))
        old_constraints = ConstraintSet.min_support(2)
        old_result = mine_hmine(paper_db, 2)

        new_constraints = ConstraintSet.of(MinSupport(3), MaxLength(2))
        filtered = new_constraints.filter_patterns(old_result, context)
        remined = new_constraints.filter_patterns(mine_hmine(paper_db, 3), context)
        assert old_constraints.classify_change(new_constraints, len(paper_db)) is ChangeKind.TIGHTENED
        assert filtered == remined
