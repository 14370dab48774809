"""Property tests for the unified grouped core (satellite of the refactor).

Four invariants, each over hypothesis-generated databases:

1. **Recycling equivalence** — every registered recycling miner, under
   both compression strategies, produces exactly the from-scratch
   pattern set.
2. **Kernel engine equality** — the shared Phase 2 kernel
   (:func:`repro.storage.projection.mine_grouped`) is bit-identical
   between its python engine (bare groups) and its bitset engine (a
   compressed database), with the Lemma 3.1 shortcut on or off.
3. **Claiming follows Figure 1** — every tuple lands in the group of
   the first pattern, in utility order, that it contains; the residual
   group holds exactly the tuples no pattern contains.
4. **Lossless compression** — compress -> decompress round-trips the
   database's (tid, tuple) multiset under every strategy.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import compress
from repro.core.recycle import recycle_mine
from repro.core.utility import get_strategy
from repro.data.transactions import TransactionDatabase
from repro.mining.bruteforce import mine_bruteforce
from repro.mining.registry import iter_miners
from repro.storage.projection import mine_grouped

RECYCLING_NAMES = sorted(spec.name for spec in iter_miners("recycling"))

small_databases = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=6),
    min_size=1,
    max_size=16,
)


@given(
    transactions=small_databases,
    xi_old=st.integers(2, 5),
    xi_new=st.integers(1, 3),
    strategy=st.sampled_from(["mcp", "mlp"]),
)
@settings(max_examples=60, deadline=None)
def test_every_miner_strategy_matches_scratch(
    transactions, xi_old, xi_new, strategy
):
    db = TransactionDatabase(transactions)
    old_patterns = mine_bruteforce(db, max(xi_old, xi_new))
    if len(old_patterns) == 0:
        return
    reference = mine_bruteforce(db, xi_new)
    for name in RECYCLING_NAMES:
        result = recycle_mine(
            db, old_patterns, xi_new,
            algorithm=name, strategy=strategy,
        )
        assert result == reference, f"{name}/{strategy} diverged"


@given(
    transactions=small_databases,
    xi_old=st.integers(2, 5),
    xi_new=st.integers(1, 3),
    strategy=st.sampled_from(["mcp", "mlp"]),
    shortcut=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_kernel_backends_are_bit_identical(
    transactions, xi_old, xi_new, strategy, shortcut
):
    db = TransactionDatabase(transactions)
    old_patterns = mine_bruteforce(db, max(xi_old, xi_new))
    if len(old_patterns) == 0:
        return
    compressed = compress(db, old_patterns, strategy).compressed
    python_result = mine_grouped(
        list(compressed.groups), xi_new, single_group_shortcut=shortcut
    )
    bitset_result = mine_grouped(
        compressed, xi_new, single_group_shortcut=shortcut
    )
    assert python_result == bitset_result
    assert python_result == mine_bruteforce(db, xi_new)


@given(
    transactions=small_databases,
    xi_old=st.integers(1, 5),
    strategy=st.sampled_from(["mcp", "mlp"]),
)
@settings(max_examples=60, deadline=None)
def test_each_tuple_is_claimed_by_its_first_contained_pattern(
    transactions, xi_old, strategy
):
    db = TransactionDatabase(transactions)
    old_patterns = mine_bruteforce(db, xi_old)
    if len(old_patterns) == 0:
        return
    ranked = [
        items
        for items, _support in get_strategy(strategy).rank_patterns(
            old_patterns, len(db)
        )
    ]
    expected = {}
    for tid, tx in zip(db.tids, db):
        owner = next((items for items in ranked if items <= set(tx)), None)
        expected[tid] = () if owner is None else tuple(sorted(owner))

    compressed = compress(db, old_patterns, strategy).compressed
    rows = dict(zip(db.tids, db))
    claimed = {}
    for group in compressed.groups:
        assert group.count == len(group.tids) == len(group.tails)
        for tid, tail in zip(group.tids, group.tails):
            assert tid not in claimed, f"tuple {tid} claimed twice"
            claimed[tid] = group.pattern
            assert sorted(group.pattern + tail) == sorted(rows[tid])
    assert claimed == expected
    residual = [group for group in compressed.groups if not group.pattern]
    unclaimed = sorted(tid for tid, owner in expected.items() if not owner)
    assert [sorted(group.tids) for group in residual] == (
        [unclaimed] if unclaimed else []
    )


@given(
    transactions=small_databases,
    xi_old=st.integers(2, 5),
    strategy=st.sampled_from(["mcp", "mlp"]),
)
@settings(max_examples=60, deadline=None)
def test_compress_decompress_round_trips(transactions, xi_old, strategy):
    db = TransactionDatabase(transactions)
    old_patterns = mine_bruteforce(db, xi_old)
    if len(old_patterns) == 0:
        return
    compressed = compress(db, old_patterns, strategy).compressed
    restored = compressed.decompress()
    assert restored == db
    assert sorted(zip(restored.tids, map(tuple, restored))) == sorted(
        zip(db.tids, map(tuple, db))
    )
