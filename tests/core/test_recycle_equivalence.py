"""THE load-bearing invariant (DESIGN.md §5):

    every recycling miner returns exactly the same (pattern, support)
    set as mining the uncompressed database.

Exercised over randomized databases, hypothesis-generated databases, and
adversarial corner cases, for every registered recycling miner under both
paper strategies and both ablation strategies.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import compress
from repro.core.recycle_fptree import mine_recycle_fptree
from repro.core.recycle_hmine import mine_recycle_hmine
from repro.core.recycle_treeprojection import mine_recycle_treeprojection
from repro.data.synthetic import QuestParams, quest_database, random_database
from repro.data.transactions import TransactionDatabase
from repro.mining.apriori import mine_apriori
from repro.mining.bruteforce import mine_bruteforce
from repro.mining.registry import get_miner, miner_names
from repro.storage.projection import mine_grouped

ALL_RECYCLERS = miner_names("recycling")


def assert_equivalent(db, old_patterns, min_support, strategy="mcp"):
    reference = mine_apriori(db, min_support)
    compressed = compress(db, old_patterns, strategy).compressed
    for name in ALL_RECYCLERS:
        result = get_miner(name, "recycling").fn(compressed, min_support)
        assert result == reference, (
            f"{name}/{strategy}: {len(result)} patterns vs "
            f"{len(reference)} expected"
        )


@pytest.mark.parametrize("strategy", ["mcp", "mlp"])
@pytest.mark.parametrize("seed", range(8))
def test_randomized_databases(seed, strategy):
    db = random_database(n_transactions=30, n_items=10, max_transaction_length=8, seed=seed)
    old_patterns = mine_apriori(db, 4)
    if len(old_patterns) == 0:
        pytest.skip("no patterns to recycle at this seed")
    assert_equivalent(db, old_patterns, 2, strategy)


@pytest.mark.parametrize("strategy", ["mcp", "mlp", "arrival", "random"])
def test_quest_database_all_strategies(strategy):
    db = quest_database(
        QuestParams(n_transactions=120, n_items=30, avg_transaction_length=6), seed=11
    )
    old_patterns = mine_apriori(db, 18)
    assert len(old_patterns) > 0
    assert_equivalent(db, old_patterns, 8, strategy)


@given(
    transactions=st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=6),
        min_size=1,
        max_size=20,
    ),
    xi_old=st.integers(2, 5),
    xi_new=st.integers(1, 3),
    strategy=st.sampled_from(["mcp", "mlp"]),
)
@settings(max_examples=80, deadline=None)
def test_recycling_equivalence_property(transactions, xi_old, xi_new, strategy):
    db = TransactionDatabase(transactions)
    old_patterns = mine_bruteforce(db, max(xi_old, xi_new))
    if len(old_patterns) == 0:
        return
    reference = mine_bruteforce(db, xi_new)
    compressed = compress(db, old_patterns, strategy).compressed
    for name in ALL_RECYCLERS:
        miner = get_miner(name, "recycling").fn
        assert miner(compressed, xi_new) == reference, f"{name} diverged"


class TestCornerCases:
    def test_whole_database_is_one_group(self):
        """Every tuple identical -> one group, empty tails, pure Lemma 3.1."""
        db = TransactionDatabase([[1, 2, 3]] * 6)
        old_patterns = mine_apriori(db, 6)
        assert_equivalent(db, old_patterns, 3)

    def test_pattern_equals_whole_tuple(self):
        """Tails can be completely empty after compression."""
        db = TransactionDatabase([[1, 2], [1, 2], [1, 2, 3]])
        old_patterns = mine_apriori(db, 2)
        assert_equivalent(db, old_patterns, 1)

    def test_xi_new_equal_to_xi_old(self):
        """Relaxation by zero: recycling must still be exact."""
        db = random_database(25, 8, 6, seed=3)
        old_patterns = mine_apriori(db, 3)
        if len(old_patterns) == 0:
            pytest.skip("no patterns at seed")
        assert_equivalent(db, old_patterns, 3)

    def test_xi_new_of_one(self):
        """Every item becomes frequent — the hardest relaxation."""
        db = random_database(12, 6, 5, seed=9)
        old_patterns = mine_apriori(db, 3)
        if len(old_patterns) == 0:
            pytest.skip("no patterns at seed")
        assert_equivalent(db, old_patterns, 1)

    def test_stale_supports_do_not_break_recycling(self):
        """Compression utilities may be computed from wrong supports
        (e.g. patterns from a different database version) — results must
        still be exact because mining recounts everything."""
        db = random_database(30, 8, 6, seed=5)
        from repro.mining.patterns import PatternSet

        stale = PatternSet()
        for items, support in mine_apriori(db, 4).items():
            stale.add(items, support + 17)  # deliberately wrong supports
        if len(stale) == 0:
            pytest.skip("no patterns at seed")
        reference = mine_apriori(db, 2)
        compressed = compress(db, stale, "mcp").compressed
        for name in ALL_RECYCLERS:
            miner = get_miner(name, "recycling").fn
            assert miner(compressed, 2) == reference, f"{name} diverged"

    def test_patterns_absent_from_database(self):
        """Recycled patterns that no longer occur anywhere must be inert."""
        from repro.mining.patterns import PatternSet

        db = TransactionDatabase([[1, 2], [2, 3], [1, 3]])
        ghost = PatternSet({frozenset({7, 8, 9}): 3, frozenset({1, 2}): 1})
        reference = mine_apriori(db, 2)
        compressed = compress(db, ghost, "mcp").compressed
        assert mine_grouped(compressed, 2) == reference
        assert mine_recycle_hmine(compressed, 2) == reference
        assert mine_recycle_fptree(compressed, 2) == reference
        assert mine_recycle_treeprojection(compressed, 2) == reference

    def test_nothing_frequent_at_xi_new(self):
        db = TransactionDatabase([[1, 2], [3, 4]])
        from repro.mining.patterns import PatternSet

        patterns = PatternSet({frozenset({1, 2}): 1})
        compressed = compress(db, patterns, "mcp").compressed
        for name in ALL_RECYCLERS:
            assert len(get_miner(name, "recycling").fn(compressed, 5)) == 0
