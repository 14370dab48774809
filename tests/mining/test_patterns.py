"""Unit tests for PatternSet."""

from __future__ import annotations

import pytest

from repro.errors import MiningError
from repro.mining.patterns import PatternSet, pattern


class TestBasics:
    def test_add_and_support(self):
        ps = PatternSet()
        ps.add([1, 2], 5)
        assert ps.support({2, 1}) == 5
        assert {1, 2} in ps
        assert [1, 2] in ps
        assert len(ps) == 1

    def test_empty_pattern_rejected(self):
        with pytest.raises(MiningError, match="empty pattern"):
            PatternSet().add([], 1)

    def test_negative_support_rejected(self):
        with pytest.raises(MiningError, match="negative"):
            PatternSet().add([1], -1)

    def test_readd_same_support_ok(self):
        ps = PatternSet()
        ps.add([1], 3)
        ps.add([1], 3)
        assert len(ps) == 1

    def test_conflicting_support_rejected(self):
        ps = PatternSet()
        ps.add([1], 3)
        with pytest.raises(MiningError, match="conflicting"):
            ps.add([1], 4)

    def test_support_of_missing_pattern_raises(self):
        with pytest.raises(MiningError, match="not in set"):
            PatternSet().support({1})

    def test_get_default(self):
        assert PatternSet().get({1}) is None
        assert PatternSet().get({1}, 0) == 0

    def test_equality(self):
        a = PatternSet({pattern([1]): 2})
        b = PatternSet({frozenset({1}): 2})
        assert a == b
        b.add([2], 1)
        assert a != b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(PatternSet())


class TestStatistics:
    def test_max_length(self, paper_old_patterns):
        assert paper_old_patterns.max_length() == 3
        assert PatternSet().max_length() == 0

    def test_count_by_length(self, paper_old_patterns):
        histogram = paper_old_patterns.count_by_length()
        assert histogram == {1: 5, 2: 5, 3: 1}

    def test_sorted_patterns_deterministic(self, paper_old_patterns):
        listed = paper_old_patterns.sorted_patterns()
        assert listed == sorted(listed, key=lambda e: (len(e[0]), e[0]))
        assert len(listed) == len(paper_old_patterns)


class TestDerivedSets:
    def test_filter_min_support(self, paper_old_patterns):
        at_four = paper_old_patterns.filter_min_support(4)
        assert at_four.as_dict() == {frozenset({5}): 4, frozenset({3}): 4}

    def test_filter_is_the_tightening_path(self, paper_db, paper_old_patterns):
        """Raising support from 3 to 4 must equal re-mining at 4."""
        from repro.mining.apriori import mine_apriori

        assert paper_old_patterns.filter_min_support(4) == mine_apriori(paper_db, 4)

    @pytest.mark.parametrize("threshold", [0, 1, 3])
    def test_filter_at_or_below_the_minimum_is_an_independent_copy(
        self, paper_old_patterns, threshold
    ):
        """No support falls below the threshold (the lowest stored is 3):
        the filter keeps every pattern, in a set of its own."""
        before = paper_old_patterns.as_dict()
        kept = paper_old_patterns.filter_min_support(threshold)
        assert kept == paper_old_patterns and kept is not paper_old_patterns
        kept.add([98, 99], 1)
        assert paper_old_patterns.as_dict() == before
        assert frozenset({98, 99}) not in paper_old_patterns

    def test_maximal(self, paper_old_patterns):
        maximal = {tuple(sorted(p)) for p in paper_old_patterns.maximal()}
        # fgc covers f, g, c, fg, gc; ae covers a, e; ec covers e, c.
        assert maximal == {(3, 6, 7), (1, 5), (3, 5)}

    def test_closed_keeps_distinct_support_supersets(self):
        ps = PatternSet()
        ps.add([1], 3)
        ps.add([1, 2], 3)  # same support -> 1 not closed
        ps.add([3], 2)
        closed = ps.closed()
        assert {1, 2} in closed
        assert {3} in closed
        assert {1} not in closed

    def test_filter_predicate(self, paper_old_patterns):
        long_only = paper_old_patterns.filter(lambda p, s: len(p) >= 2)
        assert len(long_only) == 6
        assert all(len(p) >= 2 for p in long_only)
