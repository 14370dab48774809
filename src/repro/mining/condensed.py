"""Condensed-representation miner: closed itemsets.

``mine_closed_bitset`` runs over the shared encoded database's bitmaps
and returns a :class:`~repro.data.patterns.CondensedPatternSet` directly
— the object the warehouse stores — instead of the expanded frequent
set. It is an LCM-style prefix-preserving closure extension (Uno et
al.), whose runtime is linear in the number of *closed* sets, so on
dense data it never touches the exponentially larger full set it
represents.

The miner is exact: ``mine_closed_bitset(db, s).expand()`` is
bit-identical to any baseline miner's output, and its entries equal
``CondensedPatternSet.condense(full, s, "closed")`` — the property
suite pins both equalities.
"""

from __future__ import annotations

from repro.data.encoded import EncodedDatabase
from repro.data.patterns import CondensedPatternSet, Pattern
from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.metrics.counters import CostCounters

__all__ = [
    "mine_closed_bitset",
]


# ---------------------------------------------------------------------------
# closed itemsets (LCM-style prefix-preserving closure extension)
# ---------------------------------------------------------------------------


def _closed_search(
    enc: EncodedDatabase,
    n_transactions: int,
    min_support: int,
    stats: dict[str, int],
) -> dict[Pattern, int]:
    """LCM traversal over tidset bitmaps.

    An item is in the closure of tidset ``m`` when its bitmap covers
    every bit of ``m``: one ``&`` + compare.
    """
    items = sorted(
        enc.item_of(code)
        for code in range(enc.item_count())
        if enc.support(code) >= min_support
    )
    entries: dict[Pattern, int] = {}

    def closure(tidset: int) -> list[int]:
        stats["closure_scans"] += 1
        return [i for i in items if enc.bitmap_for_item(i) & tidset == tidset]

    def extend(closed: list[int], tidset: int, core: float) -> None:
        if closed:
            entries[frozenset(closed)] = tidset.bit_count()
        member = set(closed)
        for item in items:
            if item <= core or item in member:
                continue
            narrowed = enc.bitmap_for_item(item) & tidset
            if narrowed.bit_count() < min_support:
                continue
            new_closed = closure(narrowed)
            # Prefix-preserving check: the closure may only add items
            # beyond the extension item, otherwise this closed set is
            # reached (once) from a smaller extension.
            if any(j < item and j not in member for j in new_closed):
                continue
            extend(new_closed, narrowed, item)

    if n_transactions >= min_support:
        extend(closure(enc.universe), enc.universe, float("-inf"))
    return entries


def mine_closed_bitset(
    db: TransactionDatabase,
    min_support: int,
    counters: CostCounters | None = None,
) -> CondensedPatternSet:
    """All closed patterns with support >= ``min_support``."""
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    stats = {"closure_scans": 0}
    entries = _closed_search(db.encoded(), len(db), min_support, stats)
    if counters is not None:
        counters.tuple_scans += len(db)
        counters.item_visits += db.total_items()
        counters.add("closure_scans", stats["closure_scans"])
        counters.patterns_emitted += len(entries)
    return CondensedPatternSet(
        "closed", entries, min_support, n_transactions=len(db)
    )
