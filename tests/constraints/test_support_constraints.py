"""Unit tests for support / structural constraints and their comparisons."""

from __future__ import annotations

import pytest

from repro.constraints.base import Category, ChangeKind, ConstraintContext
from repro.constraints.support import (
    ItemsRequired,
    ItemsWithin,
    MaxLength,
    MaxSupport,
    MinLength,
    MinSupport,
)
from repro.errors import ConstraintError

CONTEXT = ConstraintContext(db_size=100)


class TestMinSupport:
    def test_absolute_threshold(self):
        constraint = MinSupport(5)
        assert constraint.satisfied(frozenset({1}), 5, CONTEXT)
        assert not constraint.satisfied(frozenset({1}), 4, CONTEXT)

    def test_relative_threshold_rounds_up(self):
        constraint = MinSupport(0.05)
        assert constraint.absolute(db_size=100) == 5
        assert constraint.absolute(db_size=101) == 6

    def test_category(self):
        assert MinSupport(2).is_anti_monotone()
        assert not MinSupport(2).is_monotone()

    def test_compare_tighten_and_relax(self):
        base = MinSupport(5)
        assert base.compare(MinSupport(7), 100) is ChangeKind.TIGHTENED
        assert base.compare(MinSupport(3), 100) is ChangeKind.RELAXED
        assert base.compare(MinSupport(5), 100) is ChangeKind.SAME
        assert base.compare(MaxSupport(5), 100) is ChangeKind.INCOMPARABLE

    def test_nonpositive_rejected(self):
        with pytest.raises(ConstraintError):
            MinSupport(0)


class TestMaxSupport:
    def test_satisfied(self):
        constraint = MaxSupport(10)
        assert constraint.satisfied(frozenset({1}), 10, CONTEXT)
        assert not constraint.satisfied(frozenset({1}), 11, CONTEXT)

    def test_monotone_category(self):
        assert MaxSupport(10).is_monotone()

    def test_compare_direction_inverted(self):
        # Lower max-support bound = fewer patterns = tightened.
        base = MaxSupport(10)
        assert base.compare(MaxSupport(5), 100) is ChangeKind.TIGHTENED
        assert base.compare(MaxSupport(20), 100) is ChangeKind.RELAXED


class TestLengths:
    def test_min_length(self):
        constraint = MinLength(2)
        assert constraint.satisfied(frozenset({1, 2}), 1, CONTEXT)
        assert not constraint.satisfied(frozenset({1}), 1, CONTEXT)
        assert Category.MONOTONE in constraint.categories

    def test_max_length(self):
        constraint = MaxLength(2)
        assert constraint.satisfied(frozenset({1, 2}), 1, CONTEXT)
        assert not constraint.satisfied(frozenset({1, 2, 3}), 1, CONTEXT)
        assert Category.ANTI_MONOTONE in constraint.categories

    def test_compare(self):
        assert MinLength(2).compare(MinLength(3), 100) is ChangeKind.TIGHTENED
        assert MaxLength(3).compare(MaxLength(2), 100) is ChangeKind.TIGHTENED
        assert MaxLength(3).compare(MaxLength(4), 100) is ChangeKind.RELAXED

    def test_invalid_rejected(self):
        with pytest.raises(ConstraintError):
            MinLength(0)
        with pytest.raises(ConstraintError):
            MaxLength(0)


class TestItemMembership:
    def test_items_within(self):
        constraint = ItemsWithin({1, 2, 3})
        assert constraint.satisfied(frozenset({1, 3}), 1, CONTEXT)
        assert not constraint.satisfied(frozenset({1, 4}), 1, CONTEXT)

    def test_items_required(self):
        constraint = ItemsRequired({1})
        assert constraint.satisfied(frozenset({1, 2}), 1, CONTEXT)
        assert not constraint.satisfied(frozenset({2}), 1, CONTEXT)

    def test_subset_comparisons(self):
        base = ItemsWithin({1, 2, 3})
        assert base.compare(ItemsWithin({1, 2}), 100) is ChangeKind.TIGHTENED
        assert base.compare(ItemsWithin({1, 2, 3, 4}), 100) is ChangeKind.RELAXED
        # Overlapping but incomparable item sets.
        assert base.compare(ItemsWithin({1, 9}), 100) is ChangeKind.INCOMPARABLE

    def test_required_comparisons(self):
        base = ItemsRequired({1})
        assert base.compare(ItemsRequired({1, 2}), 100) is ChangeKind.TIGHTENED
        assert ItemsRequired({1, 2}).compare(ItemsRequired({1}), 100) is ChangeKind.RELAXED

    def test_empty_sets_rejected(self):
        with pytest.raises(ConstraintError):
            ItemsWithin(set())
        with pytest.raises(ConstraintError):
            ItemsRequired(set())
