"""Unit + property tests for aggregate constraints and their categories."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.aggregate import AggregateConstraint
from repro.constraints.base import Category, ChangeKind, ConstraintContext
from repro.data.items import ItemTable
from repro.errors import ConstraintError


def make_context(prices: dict[int, float]) -> ConstraintContext:
    table = ItemTable()
    for item_id, price in prices.items():
        table.add(item_id, f"item{item_id}", price=price)
    return ConstraintContext(db_size=100, item_table=table)


CONTEXT = make_context({1: 10.0, 2: 20.0, 3: 30.0, 4: 5.0})


class TestEvaluation:
    def test_sum(self):
        constraint = AggregateConstraint("sum", "price", "<=", 35)
        assert constraint.satisfied(frozenset({1, 2}), 1, CONTEXT)
        assert not constraint.satisfied(frozenset({1, 2, 3}), 1, CONTEXT)

    def test_min(self):
        constraint = AggregateConstraint("min", "price", ">=", 10)
        assert constraint.satisfied(frozenset({1, 2}), 1, CONTEXT)
        assert not constraint.satisfied(frozenset({1, 4}), 1, CONTEXT)

    def test_max(self):
        constraint = AggregateConstraint("max", "price", "<=", 20)
        assert constraint.satisfied(frozenset({1, 2}), 1, CONTEXT)
        assert not constraint.satisfied(frozenset({3}), 1, CONTEXT)

    def test_avg(self):
        constraint = AggregateConstraint("avg", "price", ">=", 15)
        assert constraint.satisfied(frozenset({1, 2}), 1, CONTEXT)
        assert not constraint.satisfied(frozenset({1, 4}), 1, CONTEXT)

    def test_missing_attribute_fails_constraint(self):
        context = make_context({1: 10.0})
        constraint = AggregateConstraint("sum", "price", "<=", 1000)
        assert not constraint.satisfied(frozenset({1, 99}), 1, context)

    def test_unknown_aggregate_or_op_rejected(self):
        with pytest.raises(ConstraintError):
            AggregateConstraint("median", "price", "<=", 10)
        with pytest.raises(ConstraintError):
            AggregateConstraint("sum", "price", "<", 10)


class TestCategories:
    @pytest.mark.parametrize(
        ("aggregate", "op", "expected"),
        [
            ("sum", "<=", Category.ANTI_MONOTONE),
            ("sum", ">=", Category.MONOTONE),
            ("min", "<=", Category.MONOTONE),
            ("min", ">=", Category.ANTI_MONOTONE),
            ("max", "<=", Category.ANTI_MONOTONE),
            ("max", ">=", Category.MONOTONE),
            ("avg", "<=", Category.CONVERTIBLE),
            ("avg", ">=", Category.CONVERTIBLE),
        ],
    )
    def test_classification_table(self, aggregate, op, expected):
        assert expected in AggregateConstraint(aggregate, "price", op, 10).categories


class TestCompare:
    def test_le_direction(self):
        base = AggregateConstraint("sum", "price", "<=", 100)
        assert base.compare(AggregateConstraint("sum", "price", "<=", 50), 100) is ChangeKind.TIGHTENED
        assert base.compare(AggregateConstraint("sum", "price", "<=", 200), 100) is ChangeKind.RELAXED

    def test_ge_direction(self):
        base = AggregateConstraint("min", "price", ">=", 10)
        assert base.compare(AggregateConstraint("min", "price", ">=", 20), 100) is ChangeKind.TIGHTENED
        assert base.compare(AggregateConstraint("min", "price", ">=", 5), 100) is ChangeKind.RELAXED

    def test_different_kinds_incomparable(self):
        base = AggregateConstraint("sum", "price", "<=", 100)
        assert base.compare(AggregateConstraint("max", "price", "<=", 100), 100) is ChangeKind.INCOMPARABLE
        assert base.compare(AggregateConstraint("sum", "weight", "<=", 100), 100) is ChangeKind.INCOMPARABLE


# Property tests: the categories must actually hold on random item sets.
price_table = {i: float(p) for i, p in enumerate([3, 7, 1, 9, 4, 8, 2, 6], start=1)}
PROPERTY_CONTEXT = make_context(price_table)
itemsets = st.frozensets(st.sampled_from(sorted(price_table)), min_size=1, max_size=6)


@given(items=itemsets, extra=st.sampled_from(sorted(price_table)), bound=st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_anti_monotone_constraints_closed_under_supersets_violation(items, extra, bound):
    """If an anti-monotone constraint fails on X it fails on X ∪ {y}."""
    for aggregate, op in (("sum", "<="), ("max", "<="), ("min", ">=")):
        constraint = AggregateConstraint(aggregate, "price", op, bound)
        if not constraint.satisfied(items, 1, PROPERTY_CONTEXT):
            assert not constraint.satisfied(items | {extra}, 1, PROPERTY_CONTEXT), (
                f"{aggregate} {op} {bound} not anti-monotone"
            )


@given(items=itemsets, extra=st.sampled_from(sorted(price_table)), bound=st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_monotone_constraints_closed_under_supersets_satisfaction(items, extra, bound):
    """If a monotone constraint holds on X it holds on X ∪ {y}."""
    for aggregate, op in (("sum", ">="), ("max", ">="), ("min", "<=")):
        constraint = AggregateConstraint(aggregate, "price", op, bound)
        if constraint.satisfied(items, 1, PROPERTY_CONTEXT):
            assert constraint.satisfied(items | {extra}, 1, PROPERTY_CONTEXT), (
                f"{aggregate} {op} {bound} not monotone"
            )
