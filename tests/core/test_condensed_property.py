"""Property tests for the condensed representations (PR satellite).

The load-bearing invariants, over hypothesis-generated databases:

1. **Losslessness** — ``expand(condense(S)) == S`` for every
   representation.
2. **Feedstock equivalence** — every recycling miner, under every
   strategy, produces bit-identical results whether its feedstock is
   the exact frequent set or a condensed set (full or closed).
3. **Condensed miners** — the registry's condensed miners equal
   condensing a from-scratch full mine.
4. **Closed expansion by definition** — the set-enumeration walk of
   ``_expand_closed`` equals writing every subset of every entry in
   descending-support order, first writer wins, over *any* entry map
   (nested, tied, not closed), not only over genuine closed sets.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recycle import recycle_mine
from repro.data.patterns import REPRESENTATIONS, CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.mining.bruteforce import mine_bruteforce
from repro.mining.registry import get_miner, iter_miners

RECYCLING_NAMES = sorted(spec.name for spec in iter_miners("recycling"))
CONDENSED_NAMES = sorted(spec.name for spec in iter_miners("condensed"))

small_databases = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=6),
    min_size=1,
    max_size=16,
)


@given(
    transactions=small_databases,
    xi=st.integers(1, 5),
    representation=st.sampled_from(REPRESENTATIONS),
)
@settings(max_examples=60, deadline=None)
def test_expand_of_condense_is_identity(transactions, xi, representation):
    db = TransactionDatabase(transactions)
    full = mine_bruteforce(db, xi)
    condensed = CondensedPatternSet.condense(
        full, xi, representation, n_transactions=len(db)
    )
    assert condensed.expand() == full


@given(
    transactions=small_databases,
    xi_old=st.integers(2, 5),
    xi_new=st.integers(1, 3),
    strategy=st.sampled_from(["mcp", "mlp"]),
    representation=st.sampled_from(REPRESENTATIONS),
)
@settings(max_examples=60, deadline=None)
def test_condensed_feedstock_is_bit_identical_to_exact(
    transactions, xi_old, xi_new, strategy, representation
):
    db = TransactionDatabase(transactions)
    old_patterns = mine_bruteforce(db, max(xi_old, xi_new))
    if len(old_patterns) == 0:
        return
    condensed = CondensedPatternSet.condense(
        old_patterns, max(xi_old, xi_new), representation, n_transactions=len(db)
    )
    reference = mine_bruteforce(db, xi_new)
    for name in RECYCLING_NAMES:
        exact = recycle_mine(
            db, old_patterns, xi_new,
            algorithm=name, strategy=strategy,
        )
        from_condensed = recycle_mine(
            db, condensed, xi_new,
            algorithm=name, strategy=strategy,
        )
        assert exact == reference, f"{name}/{strategy} diverged"
        assert from_condensed == reference, (
            f"{name}/{strategy}/{representation} diverged on "
            "condensed feedstock"
        )


@given(transactions=small_databases, xi=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_condensed_miners_match_condensing_a_full_mine(transactions, xi):
    db = TransactionDatabase(transactions)
    full = mine_bruteforce(db, xi)
    for name in CONDENSED_NAMES:
        spec = get_miner(name, kind="condensed")
        mined = spec.fn(db, xi, None)
        expected = CondensedPatternSet.condense(
            full, xi, mined.representation, n_transactions=len(db)
        )
        assert mined == expected, f"{name} diverged from condense(full)"
        assert mined.expand() == full, f"{name} expansion diverged"


def expand_closed_by_definition(entries):
    """Every subset of every entry; the first in descending support wins."""
    expanded = {}
    for entry, support in sorted(entries.items(), key=lambda kv: -kv[1]):
        ordered = sorted(entry)
        for size in range(1, len(ordered) + 1):
            for combo in combinations(ordered, size):
                expanded.setdefault(frozenset(combo), support)
    return expanded


@st.composite
def entry_maps(draw):
    """Entry maps a closed set, a corrupt file or a bad caller could hold.

    Each top-level set is followed by some of its own subsets, so entries
    nest; supports come from a narrow range, so they tie; and nothing
    forces a subset's support above its superset's, so many maps are not
    closed (or not even anti-monotone).
    """
    entries = {}
    tops = draw(
        st.lists(st.frozensets(st.integers(0, 9), min_size=1, max_size=7), max_size=6)
    )
    for top in tops:
        entries[top] = draw(st.integers(0, 6))
        ordered = sorted(top)
        for keep in draw(st.lists(st.sets(st.sampled_from(ordered), min_size=1), max_size=3)):
            entries[frozenset(keep)] = draw(st.integers(0, 6))
    return entries


@given(entries=entry_maps(), xi=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_closed_expansion_equals_the_definition(entries, xi):
    condensed = CondensedPatternSet("closed", entries, xi)
    assert condensed._expand_closed().as_dict() == expand_closed_by_definition(entries)
