"""Tests for the tightened-constraints filter path (Section 2).

A support-only tightening is ``PatternSet.filter_min_support`` at the
threshold ``ConstraintSet.absolute_support`` resolves; any other
tightening is answered by ``MiningSession``, which filters its cached
support-level patterns and applies the new constraint set to them.
"""

from __future__ import annotations

from repro.constraints.engine import ConstraintSet
from repro.constraints.support import MaxLength, MinSupport
from repro.core.session import MiningSession
from repro.mining.apriori import mine_apriori


class TestFilterTightened:
    def test_equals_remining(self, paper_db):
        session = MiningSession(paper_db)
        session.mine(ConstraintSet.min_support(3))
        filtered = session.mine(ConstraintSet.min_support(4))
        assert session.history[-1].path == "filter"
        assert filtered == mine_apriori(paper_db, 4)

    def test_non_support_constraints_apply(self, paper_db):
        session = MiningSession(paper_db)
        session.mine(ConstraintSet.min_support(3))
        filtered = session.mine(ConstraintSet.of(MinSupport(3), MaxLength(1)))
        assert session.history[-1].path == "filter"
        assert len(filtered) == 5
        assert all(len(p) == 1 for p in filtered)


def filter_tightened(patterns, db_size, threshold):
    absolute = ConstraintSet.min_support(threshold).absolute_support(db_size)
    return patterns.filter_min_support(absolute)


class TestFilterMinSupport:
    def test_absolute(self, paper_db, paper_old_patterns):
        assert filter_tightened(paper_old_patterns, len(paper_db), 4) == mine_apriori(
            paper_db, 4
        )

    def test_relative(self, paper_db, paper_old_patterns):
        # 0.8 of 5 tuples -> absolute 4.
        assert filter_tightened(paper_old_patterns, len(paper_db), 0.8) == mine_apriori(
            paper_db, 4
        )
