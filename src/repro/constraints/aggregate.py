"""Aggregate constraints over item attributes.

These are the constraints that motivated the convertible/succinct
taxonomy: predicates like ``sum(X.price) <= 100`` or ``avg(X.weight) >=
3``. Classification follows Pei & Han's tables (assuming non-negative
attribute values for ``sum``):

=========  ====  =====================================
aggregate  op    category
=========  ====  =====================================
sum        <=    anti-monotone
sum        >=    monotone
min        <=    monotone, succinct
min        >=    anti-monotone, succinct
max        <=    anti-monotone, succinct
max        >=    monotone, succinct
avg        any   convertible
=========  ====  =====================================
"""

from __future__ import annotations

from repro.constraints.base import Category, ChangeKind, Constraint, ConstraintContext
from repro.errors import ConstraintError
from repro.mining.patterns import Pattern

_AGGREGATES = ("sum", "min", "max", "avg")
_OPS = ("<=", ">=")

_CATEGORY_TABLE: dict[tuple[str, str], frozenset[Category]] = {
    ("sum", "<="): frozenset({Category.ANTI_MONOTONE}),
    ("sum", ">="): frozenset({Category.MONOTONE}),
    ("min", "<="): frozenset({Category.MONOTONE, Category.SUCCINCT}),
    ("min", ">="): frozenset({Category.ANTI_MONOTONE, Category.SUCCINCT}),
    ("max", "<="): frozenset({Category.ANTI_MONOTONE, Category.SUCCINCT}),
    ("max", ">="): frozenset({Category.MONOTONE, Category.SUCCINCT}),
    ("avg", "<="): frozenset({Category.CONVERTIBLE}),
    ("avg", ">="): frozenset({Category.CONVERTIBLE}),
}


class AggregateConstraint(Constraint):
    """``agg(attribute over pattern) op value``.

    Items lacking the attribute fail the constraint outright — silently
    skipping them would make the aggregate lie.
    """

    def __init__(self, aggregate: str, attribute: str, op: str, value: float) -> None:
        if aggregate not in _AGGREGATES:
            raise ConstraintError(
                f"unknown aggregate {aggregate!r} (expected one of {_AGGREGATES})"
            )
        if op not in _OPS:
            raise ConstraintError(f"unknown op {op!r} (expected one of {_OPS})")
        self.aggregate = aggregate
        self.attribute = attribute
        self.op = op
        self.value = float(value)

    @property
    def categories(self) -> frozenset[Category]:
        return _CATEGORY_TABLE[(self.aggregate, self.op)]

    def _aggregate_value(self, pattern: Pattern, context: ConstraintContext) -> float | None:
        values = []
        for item_id in pattern:
            row = context.item_table.get(item_id)
            if row is None or self.attribute not in row.attributes:
                return None
            values.append(row.attributes[self.attribute])
        if not values:
            return None
        if self.aggregate == "sum":
            return sum(values)
        if self.aggregate == "min":
            return min(values)
        if self.aggregate == "max":
            return max(values)
        return sum(values) / len(values)

    def satisfied(self, pattern: Pattern, support: int, context: ConstraintContext) -> bool:
        value = self._aggregate_value(pattern, context)
        if value is None:
            return False
        return value <= self.value if self.op == "<=" else value >= self.value

    def compare(self, other: Constraint, db_size: int) -> ChangeKind:
        if (
            not isinstance(other, AggregateConstraint)
            or other.aggregate != self.aggregate
            or other.attribute != self.attribute
            or other.op != self.op
        ):
            return ChangeKind.INCOMPARABLE
        if other.value == self.value:
            return ChangeKind.SAME
        # For `<=` a smaller bound admits fewer patterns; for `>=` a
        # larger bound does.
        shrank = other.value < self.value if self.op == "<=" else other.value > self.value
        return ChangeKind.TIGHTENED if shrank else ChangeKind.RELAXED

    def __repr__(self) -> str:
        return f"AggregateConstraint({self.aggregate}({self.attribute}) {self.op} {self.value})"
