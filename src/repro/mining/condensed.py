"""Condensed-representation miners: closed and non-derivable itemsets.

Two families over the shared encoded database's bitmaps, both returning
a :class:`~repro.data.patterns.CondensedPatternSet` directly — the object
the warehouse stores — instead of the expanded frequent set:

* **Closed** (``mine_closed_bitset``): LCM-style prefix-preserving
  closure extension (Uno et al.). Runtime is linear in the number of
  *closed* sets, so on dense data it never touches the exponentially
  larger full set it represents.
* **NDI** (``mine_ndi_bitset``): Calders–Goethals level-wise search with
  depth-limited deduction rules. A candidate whose bounds meet is
  *derivable*: its support is forced by its subsets, so the database is
  never scanned for it — the same saving a warehouse entry condensed to
  ``ndi`` under budget pressure realizes.

Both miners are exact: ``mine_closed_bitset(db, s).expand()`` (resp.
ndi) is bit-identical to any baseline miner's output, and their entries
equal ``CondensedPatternSet.condense(full, s, ...)`` — the property
suite pins both equalities.
"""

from __future__ import annotations

from repro.data.encoded import EncodedDatabase
from repro.data.patterns import (
    NDI_RULE_DEPTH,
    CondensedPatternSet,
    Pattern,
    derivability_bounds,
)
from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.metrics.counters import CostCounters

__all__ = [
    "mine_closed_bitset",
    "mine_ndi_bitset",
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


# ---------------------------------------------------------------------------
# non-derivable itemsets (Calders–Goethals, depth-limited rules)
# ---------------------------------------------------------------------------


def _ndi_search(
    enc: EncodedDatabase,
    n_transactions: int,
    min_support: int,
    stats: dict[str, int],
) -> tuple[dict[Pattern, int], int]:
    """Level-wise NDI mining; returns ``(entries, frequent_count)``.

    The bitmaps are intersected *solely* for non-derivable candidates,
    which is where the Calders–Goethals saving comes from.
    """
    singletons = {
        frozenset((enc.item_of(code),)): enc.support(code)
        for code in range(enc.item_count())
        if enc.support(code) >= min_support
    }
    supports: dict[Pattern, int] = dict(singletons)
    entries: dict[Pattern, int] = dict(singletons)

    def lookup(subset: Pattern) -> int:
        return n_transactions if not subset else supports[subset]

    current = dict(singletons)
    while current:
        rows = sorted(tuple(sorted(p)) for p in current)
        candidates: set[Pattern] = set()
        for i, head in enumerate(rows):
            for j in range(i + 1, len(rows)):
                if rows[j][:-1] != head[:-1]:
                    break
                candidates.add(frozenset(head) | frozenset(rows[j]))
        next_level: dict[Pattern, int] = {}
        for cand in candidates:
            if any(cand.difference((x,)) not in current for x in cand):
                continue
            lower, upper = derivability_bounds(cand, lookup, NDI_RULE_DEPTH)
            if lower == upper:
                stats["derivable_skips"] += 1
                support = lower
            else:
                stats["support_counts"] += 1
                support = enc.pattern_bitmap(cand).bit_count()
                if support >= min_support:
                    entries[cand] = support
            if support >= min_support:
                next_level[cand] = support
        supports.update(next_level)
        current = next_level
    return entries, len(supports)


def mine_ndi_bitset(
    db: TransactionDatabase,
    min_support: int,
    counters: CostCounters | None = None,
) -> CondensedPatternSet:
    """Non-derivable patterns with support >= ``min_support``."""
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    stats = {"derivable_skips": 0, "support_counts": 0}
    entries, frequent_count = _ndi_search(
        db.encoded(), len(db), min_support, stats
    )
    if counters is not None:
        counters.tuple_scans += len(db)
        counters.item_visits += db.total_items()
        counters.add("derivable_skips", stats["derivable_skips"])
        counters.add("support_counts", stats["support_counts"])
        counters.patterns_emitted += len(entries)
    return CondensedPatternSet(
        "ndi",
        entries,
        min_support,
        n_transactions=len(db),
        ndi_depth=NDI_RULE_DEPTH,
        expanded_count=frequent_count,
    )
