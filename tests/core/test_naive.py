"""Tests for the naive RP-Mine algorithm (Figure 3) and group machinery.

RP-Mine is the grouped kernel ``mine_grouped``, registered as the
``naive`` recycler.
"""

from __future__ import annotations

import pytest

from repro.core.compression import compress
from repro.core.groups import Group, to_grouped
from repro.errors import MiningError
from repro.metrics.counters import CostCounters
from repro.mining.apriori import mine_apriori
from repro.storage.projection import (
    count_group_supports,
    mine_grouped,
    normalize_groups,
    project_groups,
)

A, B, C, D, E, F, G, H, I = 1, 2, 3, 4, 5, 6, 7, 8, 9


@pytest.fixture
def paper_compressed(paper_db, paper_old_patterns):
    return compress(paper_db, paper_old_patterns, "mcp").compressed


class TestPaperExample3:
    """Example 3 mines the compressed database of Table 2 at xi_new = 2."""

    def test_full_result_matches_uncompressed_mining(
        self, paper_db, paper_compressed
    ):
        assert mine_grouped(paper_compressed, 2) == mine_apriori(paper_db, 2)

    def test_d_extension_patterns(self, paper_compressed):
        """Step 1 of Example 3: the patterns containing d, all support 2:
        {dc, df, dg, dcf, dgc, dfg, dcfg}."""
        patterns = mine_grouped(paper_compressed, 2)
        for items in ((D, C), (D, F), (D, G), (D, C, F), (D, G, C), (D, F, G), (D, C, F, G)):
            assert patterns.support(items) == 2, f"missing d-pattern {items}"

    def test_f_extension_patterns(self, paper_compressed):
        """Step 2: fg:3, fe:2, fc:3, fge:2, fgc:3, fec:2, fgec:2."""
        patterns = mine_grouped(paper_compressed, 2)
        assert patterns.support({F, G}) == 3
        assert patterns.support({F, E}) == 2
        assert patterns.support({F, C}) == 3
        assert patterns.support({F, G, E}) == 2
        assert patterns.support({F, G, C}) == 3
        assert patterns.support({F, E, C}) == 2
        assert patterns.support({F, G, E, C}) == 2

    def test_a_extension_patterns(self, paper_compressed):
        """Step 4: ae:3, aec:2, ac:2."""
        patterns = mine_grouped(paper_compressed, 2)
        assert patterns.support({A, E}) == 3
        assert patterns.support({A, E, C}) == 2
        assert patterns.support({A, C}) == 2

    def test_single_group_shortcut_fires_on_d_projection(self, paper_compressed):
        """In the d-projected database every frequent occurrence sits in
        group fgc — Lemma 3.1 must kick in at least once."""
        counters = CostCounters()
        mine_grouped(paper_compressed, 2, counters)
        assert counters.single_group_enumerations >= 1

    def test_shortcut_disabled_gives_identical_result(self, paper_compressed):
        fast = mine_grouped(paper_compressed, 2)
        slow = mine_grouped(paper_compressed, 2, single_group_shortcut=False)
        assert fast == slow


class TestGroupHelpers:
    def test_uncompressed_database_roundtrip_mining(self, paper_db):
        """Mining an uncompressed database wrapped as residual groups
        equals plain mining — the degenerate recycling case."""
        groups = to_grouped(paper_db).mining_groups()
        assert mine_grouped(groups, 2) == mine_apriori(paper_db, 2)

    def test_count_group_supports_uses_group_counts(self):
        stats = {"group_counts": 0, "tuple_scans": 0, "item_visits": 0}
        groups = [Group((1, 2), 5, ((3,),))]
        counts = count_group_supports(groups, stats)
        assert counts[1] == 5
        assert counts[2] == 5
        assert counts[3] == 1
        assert stats["group_counts"] == 1

    def test_normalize_drops_infrequent_and_merges(self):
        stats = {"group_counts": 0, "tuple_scans": 0, "item_visits": 0}
        rank = {1: 0, 2: 1}
        groups = [
            Group((1, 9), 2, ((2, 9),)),
            Group((1,), 3, ()),
        ]
        normalized = normalize_groups(groups, rank, stats)
        assert len(normalized) == 1
        merged = normalized[0]
        assert merged.pattern == (1,)
        assert merged.count == 5
        assert merged.tails == ((2,),)

    def test_project_on_pattern_item_keeps_whole_group(self):
        stats = dict.fromkeys(
            ("group_counts", "tuple_scans", "item_visits", "projections"), 0
        )
        rank = {1: 0, 2: 1, 3: 2}
        groups = [Group((1, 2), 4, ((3,), ()))]
        projected = project_groups(groups, 1, rank, stats)
        assert projected == [Group((2,), 4, ((3,),))]

    def test_project_on_tail_item_moves_matching_tails_only(self):
        stats = dict.fromkeys(
            ("group_counts", "tuple_scans", "item_visits", "projections"), 0
        )
        rank = {1: 0, 2: 1, 3: 2}
        groups = [Group((2,), 3, ((1, 3), (3,), (1,)))]
        projected = project_groups(groups, 1, rank, stats)
        # Tails (1,3) and (1,) contain item 1; both keep pattern {2}.
        assert len(projected) == 1
        group = projected[0]
        assert group.pattern == (2,)
        assert group.count == 2
        assert group.tails == ((3,),)

    def test_invalid_support_rejected(self, paper_compressed):
        with pytest.raises(MiningError):
            mine_grouped(paper_compressed, 0)


class TestCountersAccounting:
    def test_group_counting_cheaper_than_tuple_counting(self, paper_db, paper_old_patterns):
        """The compressed run must touch fewer individual items (that is
        the whole point of Section 3.1)."""
        from repro.mining.hmine import mine_hmine

        baseline = CostCounters()
        mine_hmine(paper_db, 2, baseline)
        recycled = CostCounters()
        compressed = compress(paper_db, paper_old_patterns, "mcp").compressed
        mine_grouped(compressed, 2, recycled)
        assert recycled.item_visits < baseline.item_visits
        assert recycled.group_counts > 0
