"""Support and structural (length / item-membership) constraints."""

from __future__ import annotations

import math

from repro.constraints.base import Category, ChangeKind, Constraint, ConstraintContext
from repro.data.transactions import (
    absolute_support,
    fraction_of_rows,
    is_relative_support,
)
from repro.errors import ConstraintError
from repro.mining.patterns import Pattern


def _bound_change(
    old: "MinSupport | MaxSupport",
    new: "MinSupport | MaxSupport",
    db_size: int,
    higher_is_tighter: bool,
) -> ChangeKind:
    """How ``new``'s support bound relates to ``old``'s, compared as
    absolute counts over ``db_size`` rows."""
    before, after = old.absolute(db_size), new.absolute(db_size)
    if after == before:
        return ChangeKind.SAME
    tightened = after > before if higher_is_tighter else after < before
    return ChangeKind.TIGHTENED if tightened else ChangeKind.RELAXED


class MinSupport(Constraint):
    """``sup(X) >= threshold`` — the essential anti-monotone constraint.

    ``threshold`` follows :func:`~repro.data.transactions.absolute_support`:
    a float in ``(0, 1]`` is relative (``1.0`` is every row) and resolves
    against the context's database size; an int, or a float above 1, is
    an absolute count. Both round up: ``MinSupport(2.5)`` needs 3 rows.
    """

    def __init__(self, threshold: float) -> None:
        if threshold <= 0:
            raise ConstraintError(f"min support must be positive, got {threshold}")
        self.threshold = threshold

    @property
    def categories(self) -> frozenset[Category]:
        return frozenset({Category.ANTI_MONOTONE})

    def absolute(self, db_size: int) -> int:
        """Resolve to an absolute count for a database of ``db_size``."""
        return absolute_support(self.threshold, db_size)

    def satisfied(self, pattern: Pattern, support: int, context: ConstraintContext) -> bool:
        return support >= self.absolute(context.db_size)

    def compare(self, other: Constraint, db_size: int) -> ChangeKind:
        if not isinstance(other, MinSupport):
            return ChangeKind.INCOMPARABLE
        return _bound_change(self, other, db_size, higher_is_tighter=True)

    def __repr__(self) -> str:
        return f"MinSupport({self.threshold})"


class MaxSupport(Constraint):
    """``sup(X) <= threshold`` — monotone (rare-pattern mining).

    ``threshold`` follows the same support rule as :class:`MinSupport`,
    except that it rounds *down*, a fraction and a fractional count alike
    (``MaxSupport(2.5)`` admits 2 rows): a max bound must not admit a
    support above it.
    """

    def __init__(self, threshold: float) -> None:
        if threshold <= 0:
            raise ConstraintError(f"max support must be positive, got {threshold}")
        self.threshold = threshold

    @property
    def categories(self) -> frozenset[Category]:
        return frozenset({Category.MONOTONE})

    def absolute(self, db_size: int) -> int:
        """Resolve to an absolute count for a database of ``db_size``."""
        if is_relative_support(self.threshold):
            return math.floor(fraction_of_rows(self.threshold, db_size))
        # The shared rule raises DataError for a count that is not finite.
        absolute_support(self.threshold, db_size)
        return math.floor(self.threshold)

    def satisfied(self, pattern: Pattern, support: int, context: ConstraintContext) -> bool:
        return support <= self.absolute(context.db_size)

    def compare(self, other: Constraint, db_size: int) -> ChangeKind:
        if not isinstance(other, MaxSupport):
            return ChangeKind.INCOMPARABLE
        return _bound_change(self, other, db_size, higher_is_tighter=False)

    def __repr__(self) -> str:
        return f"MaxSupport({self.threshold})"


class MinLength(Constraint):
    """``|X| >= n`` — monotone."""

    def __init__(self, length: int) -> None:
        if length < 1:
            raise ConstraintError(f"min length must be >= 1, got {length}")
        self.length = length

    @property
    def categories(self) -> frozenset[Category]:
        return frozenset({Category.MONOTONE, Category.SUCCINCT})

    def satisfied(self, pattern: Pattern, support: int, context: ConstraintContext) -> bool:
        return len(pattern) >= self.length

    def compare(self, other: Constraint, db_size: int) -> ChangeKind:
        if not isinstance(other, MinLength):
            return ChangeKind.INCOMPARABLE
        if other.length == self.length:
            return ChangeKind.SAME
        return ChangeKind.TIGHTENED if other.length > self.length else ChangeKind.RELAXED

    def __repr__(self) -> str:
        return f"MinLength({self.length})"


class MaxLength(Constraint):
    """``|X| <= n`` — anti-monotone."""

    def __init__(self, length: int) -> None:
        if length < 1:
            raise ConstraintError(f"max length must be >= 1, got {length}")
        self.length = length

    @property
    def categories(self) -> frozenset[Category]:
        return frozenset({Category.ANTI_MONOTONE, Category.SUCCINCT})

    def satisfied(self, pattern: Pattern, support: int, context: ConstraintContext) -> bool:
        return len(pattern) <= self.length

    def compare(self, other: Constraint, db_size: int) -> ChangeKind:
        if not isinstance(other, MaxLength):
            return ChangeKind.INCOMPARABLE
        if other.length == self.length:
            return ChangeKind.SAME
        return ChangeKind.TIGHTENED if other.length < self.length else ChangeKind.RELAXED

    def __repr__(self) -> str:
        return f"MaxLength({self.length})"


class ItemsWithin(Constraint):
    """``X ⊆ S`` — anti-monotone and succinct."""

    def __init__(self, allowed: frozenset[int] | set[int]) -> None:
        if not allowed:
            raise ConstraintError("ItemsWithin needs a non-empty item set")
        self.allowed = frozenset(allowed)

    @property
    def categories(self) -> frozenset[Category]:
        return frozenset({Category.ANTI_MONOTONE, Category.SUCCINCT})

    def satisfied(self, pattern: Pattern, support: int, context: ConstraintContext) -> bool:
        return pattern <= self.allowed

    def compare(self, other: Constraint, db_size: int) -> ChangeKind:
        if not isinstance(other, ItemsWithin):
            return ChangeKind.INCOMPARABLE
        if other.allowed == self.allowed:
            return ChangeKind.SAME
        if other.allowed < self.allowed:
            return ChangeKind.TIGHTENED
        if other.allowed > self.allowed:
            return ChangeKind.RELAXED
        return ChangeKind.INCOMPARABLE

    def __repr__(self) -> str:
        return f"ItemsWithin({sorted(self.allowed)})"


class ItemsRequired(Constraint):
    """``X ⊇ S`` — monotone and succinct."""

    def __init__(self, required: frozenset[int] | set[int]) -> None:
        if not required:
            raise ConstraintError("ItemsRequired needs a non-empty item set")
        self.required = frozenset(required)

    @property
    def categories(self) -> frozenset[Category]:
        return frozenset({Category.MONOTONE, Category.SUCCINCT})

    def satisfied(self, pattern: Pattern, support: int, context: ConstraintContext) -> bool:
        return pattern >= self.required

    def compare(self, other: Constraint, db_size: int) -> ChangeKind:
        if not isinstance(other, ItemsRequired):
            return ChangeKind.INCOMPARABLE
        if other.required == self.required:
            return ChangeKind.SAME
        if other.required > self.required:
            return ChangeKind.TIGHTENED
        if other.required < self.required:
            return ChangeKind.RELAXED
        return ChangeKind.INCOMPARABLE

    def __repr__(self) -> str:
        return f"ItemsRequired({sorted(self.required)})"
