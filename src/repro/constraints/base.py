"""Constraint framework foundations.

The paper situates recycling in *constrained* frequent-pattern mining:
users iterate, adjusting a set of constraints between runs. Four
constraint categories from the literature (anti-monotone, monotone,
succinct, convertible — [12, 14] in the paper) determine what a
constraint change means for recycling:

* when every changed constraint is **tightened**, the new answer is a
  filter over the old patterns (Section 2);
* any **relaxed** constraint forces re-mining — the recycling path.

A :class:`Constraint` therefore knows how to *evaluate* itself on a
pattern and how to *compare* itself against a replacement constraint of
the same kind.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.data.items import ItemTable
from repro.mining.patterns import Pattern


class Category(enum.Enum):
    """The classic constraint categories (paper Section 2)."""

    ANTI_MONOTONE = "anti-monotone"
    MONOTONE = "monotone"
    SUCCINCT = "succinct"
    CONVERTIBLE = "convertible"
    HARD = "hard"


class ChangeKind(enum.Enum):
    """How a constraint compares against its predecessor."""

    SAME = "same"
    TIGHTENED = "tightened"
    RELAXED = "relaxed"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ConstraintContext:
    """Everything a constraint may consult besides the pattern itself."""

    db_size: int
    item_table: ItemTable = field(default_factory=ItemTable)


class Constraint(ABC):
    """A predicate over (pattern, support) with category metadata."""

    @property
    @abstractmethod
    def categories(self) -> frozenset[Category]:
        """The categories this constraint belongs to."""

    @abstractmethod
    def satisfied(self, pattern: Pattern, support: int, context: ConstraintContext) -> bool:
        """True when the pattern meets this constraint."""

    @abstractmethod
    def compare(self, other: "Constraint", db_size: int) -> ChangeKind:
        """How ``other`` (the *new* constraint) relates to ``self``.

        ``TIGHTENED`` means every pattern satisfying ``other`` also
        satisfies ``self`` (solution space shrank); ``RELAXED`` the
        reverse; ``INCOMPARABLE`` when neither containment holds or the
        constraints are of different kinds. ``db_size`` is the database
        the constraints run over; support bounds compare as absolute
        counts on it.
        """

    def is_anti_monotone(self) -> bool:
        """Whether supersets of violating patterns also violate."""
        return Category.ANTI_MONOTONE in self.categories

    def is_monotone(self) -> bool:
        """Whether supersets of satisfying patterns also satisfy."""
        return Category.MONOTONE in self.categories
