"""The constraint set: evaluation and change classification.

:class:`ConstraintSet` is what a mining iteration runs under. Comparing
the new iteration's set against the previous one yields the decision the
paper's Section 2 describes:

* ``TIGHTENED`` (or ``SAME``) — the new answer is a filter over the old
  patterns; no mining needed;
* ``RELAXED`` or ``INCOMPARABLE`` — the solution space (possibly) grew;
  re-mine, recycling the old patterns through compression.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.constraints.base import ChangeKind, Constraint, ConstraintContext
from repro.constraints.support import MinSupport
from repro.errors import ConstraintError
from repro.mining.patterns import Pattern, PatternSet


class ConstraintSet:
    """An immutable conjunction of constraints.

    Exactly one :class:`MinSupport` is required — it is the essential
    constraint of frequent-pattern mining and the one the recycling
    machinery keys on.
    """

    def __init__(self, constraints: Iterable[Constraint]) -> None:
        self._constraints = tuple(constraints)
        supports = [c for c in self._constraints if isinstance(c, MinSupport)]
        if len(supports) != 1:
            raise ConstraintError(
                f"a ConstraintSet needs exactly one MinSupport, found {len(supports)}"
            )
        self._min_support = supports[0]

    @classmethod
    def of(cls, *constraints: Constraint) -> "ConstraintSet":
        """Variadic convenience constructor."""
        return cls(constraints)

    @classmethod
    def min_support(cls, threshold: float) -> "ConstraintSet":
        """The common case: support threshold only."""
        return cls((MinSupport(threshold),))

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __repr__(self) -> str:
        return f"ConstraintSet({list(self._constraints)!r})"

    def absolute_support(self, db_size: int) -> int:
        """The minimum support as an absolute count."""
        return self._min_support.absolute(db_size)

    def others(self) -> tuple[Constraint, ...]:
        """All constraints except the minimum support."""
        return tuple(c for c in self._constraints if c is not self._min_support)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def satisfied(self, pattern: Pattern, support: int, context: ConstraintContext) -> bool:
        """Conjunction over all member constraints."""
        return all(c.satisfied(pattern, support, context) for c in self._constraints)

    def filter_patterns(self, patterns: PatternSet, context: ConstraintContext) -> PatternSet:
        """Patterns from ``patterns`` satisfying every constraint."""
        return patterns.filter(
            lambda pattern, support: self.satisfied(pattern, support, context)
        )

    # ------------------------------------------------------------------
    # change classification
    # ------------------------------------------------------------------
    def classify_change(self, new: "ConstraintSet", db_size: int) -> ChangeKind:
        """How ``new`` relates to this (older) constraint set over a
        database of ``db_size`` rows (see :meth:`Constraint.compare`).

        Pairs up constraints greedily by best comparison result; then:

        * every new constraint tightens-or-equals a matched old one, and
          no old constraint was dropped -> ``TIGHTENED`` (or ``SAME``);
        * every new constraint relaxes-or-equals, and no new constraint
          was added -> ``RELAXED``;
        * otherwise -> ``INCOMPARABLE`` (treated like a relaxation by the
          session: re-mine with recycling, then filter).
        """
        old_constraints = list(self._constraints)
        verdicts: list[ChangeKind] = []
        unmatched_new = 0
        for new_constraint in new:
            match_kind: ChangeKind | None = None
            match_index: int | None = None
            for index, old_constraint in enumerate(old_constraints):
                kind = old_constraint.compare(new_constraint, db_size)
                if kind is ChangeKind.INCOMPARABLE:
                    continue
                if match_kind is None or kind is ChangeKind.SAME:
                    match_kind, match_index = kind, index
                    if kind is ChangeKind.SAME:
                        break
            if match_index is None:
                unmatched_new += 1
            else:
                old_constraints.pop(match_index)
                verdicts.append(match_kind)  # type: ignore[arg-type]
        dropped_old = len(old_constraints)

        tightened = any(v is ChangeKind.TIGHTENED for v in verdicts) or unmatched_new > 0
        relaxed = any(v is ChangeKind.RELAXED for v in verdicts) or dropped_old > 0
        if tightened and relaxed:
            return ChangeKind.INCOMPARABLE
        if tightened:
            return ChangeKind.TIGHTENED
        if relaxed:
            return ChangeKind.RELAXED
        return ChangeKind.SAME
