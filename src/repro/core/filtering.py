"""Support-only tightening: filter instead of mine (Section 2).

When the support threshold rises, the new answer is a subset of the old
patterns, so a single pass over the previous result suffices — "this
filtering process is sufficient because the set of new frequent patterns
is only a subset of the old set". A tightening of the other constraints
is filtered by :class:`~repro.core.session.MiningSession` itself, which
applies the new constraint set to its cached support patterns.
"""

from __future__ import annotations

from repro.constraints.engine import ConstraintSet
from repro.mining.patterns import PatternSet


def filter_min_support(patterns: PatternSet, db_size: int, new_threshold: float) -> PatternSet:
    """Support-only tightening: keep patterns at the raised threshold."""
    constraints = ConstraintSet.min_support(new_threshold)
    return patterns.filter_min_support(constraints.absolute_support(db_size))
