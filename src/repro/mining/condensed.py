"""Condensed-representation miners: closed and non-derivable itemsets.

Two families, each with a python and a bitset backend, both returning a
:class:`~repro.data.patterns.CondensedPatternSet` directly — the object
the warehouse stores — instead of the expanded frequent set:

* **Closed** (``mine_closed`` / ``mine_closed_bitset``): LCM-style
  prefix-preserving closure extension (Uno et al.). Runtime is linear in
  the number of *closed* sets, so on dense data it never touches the
  exponentially larger full set it represents.
* **NDI** (``mine_ndi`` / ``mine_ndi_bitset``): Calders–Goethals
  level-wise search with depth-limited deduction rules. A candidate whose
  bounds meet is *derivable*: its support is forced by its subsets, so
  the database is never scanned for it — the same saving a warehouse
  entry condensed to ``ndi`` under budget pressure realizes.

Both miners are exact: ``mine_closed(db, s).expand()`` (resp. ndi) is
bit-identical to any baseline miner's output, and their entries equal
``CondensedPatternSet.condense(full, s, ...)`` — the property suite pins
both equalities across backends.
"""

from __future__ import annotations

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
    "mine_closed",
    "mine_closed_bitset",
    "mine_ndi",
    "mine_ndi_bitset",
]


# ---------------------------------------------------------------------------
# closed itemsets (LCM-style prefix-preserving closure extension)
# ---------------------------------------------------------------------------


def _closed_search(
    items: list[int],
    tids_of,
    covers,
    tid_size,
    full_tidset,
    n_transactions: int,
    min_support: int,
    stats: dict[str, int],
) -> dict[Pattern, int]:
    """Backend-generic LCM traversal.

    ``tids_of(item)`` yields the item's tidset, ``covers(item, m)`` tests
    whether the item occurs in every transaction of tidset ``m`` (the
    closure membership test), ``tid_size`` counts a tidset.
    """
    entries: dict[Pattern, int] = {}

    def closure(tidset) -> list[int]:
        stats["closure_scans"] += 1
        return [i for i in items if covers(i, tidset)]

    def extend(closed: list[int], tidset, core: float) -> None:
        if closed:
            entries[frozenset(closed)] = tid_size(tidset)
        member = set(closed)
        for item in items:
            if item <= core or item in member:
                continue
            narrowed = tids_of(item) & tidset
            if tid_size(narrowed) < min_support:
                continue
            new_closed = closure(narrowed)
            # Prefix-preserving check: the closure may only add items
            # beyond the extension item, otherwise this closed set is
            # reached (once) from a smaller extension.
            if any(j < item and j not in member for j in new_closed):
                continue
            extend(new_closed, narrowed, item)

    if n_transactions >= min_support:
        extend(closure(full_tidset), full_tidset, float("-inf"))
    return entries


def mine_closed(
    db: TransactionDatabase,
    min_support: int,
    counters: CostCounters | None = None,
) -> CondensedPatternSet:
    """All closed patterns with support >= ``min_support`` (python tidsets)."""
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    tidsets: dict[int, set[int]] = {}
    for tid, tx in enumerate(db):
        for item in tx:
            tidsets.setdefault(item, set()).add(tid)
    items = sorted(
        item for item, tids in tidsets.items() if len(tids) >= min_support
    )
    stats = {"closure_scans": 0}
    entries = _closed_search(
        items,
        lambda item: tidsets[item],
        lambda item, m: tidsets[item] >= m,
        len,
        set(range(len(db))),
        len(db),
        min_support,
        stats,
    )
    if counters is not None:
        counters.tuple_scans += len(db)
        counters.item_visits += db.total_items()
        counters.add("closure_scans", stats["closure_scans"])
        counters.patterns_emitted += len(entries)
    return CondensedPatternSet(
        "closed", entries, min_support, n_transactions=len(db)
    )


def mine_closed_bitset(
    db: TransactionDatabase,
    min_support: int,
    counters: CostCounters | None = None,
) -> CondensedPatternSet:
    """Closed patterns over the shared encoded database's bitmaps.

    Bit-identical entries to :func:`mine_closed`; tidsets are big-int
    bitmaps, so the closure membership test is one ``&`` + compare.
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    enc = db.encoded()
    items = sorted(
        enc.item_of(code)
        for code in range(enc.item_count())
        if enc.support(code) >= min_support
    )
    stats = {"closure_scans": 0}
    entries = _closed_search(
        items,
        enc.bitmap_for_item,
        lambda item, m: enc.bitmap_for_item(item) & m == m,
        int.bit_count,
        enc.universe,
        len(db),
        min_support,
        stats,
    )
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
    singletons: dict[Pattern, int],
    count_support,
    n_transactions: int,
    min_support: int,
    stats: dict[str, int],
) -> tuple[dict[Pattern, int], int]:
    """Level-wise NDI mining; returns ``(entries, frequent_count)``.

    ``count_support(pattern)`` is the only backend-specific piece — it is
    called *solely* for non-derivable candidates, which is where the
    Calders–Goethals saving comes from.
    """
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
                support = count_support(cand)
                if support >= min_support:
                    entries[cand] = support
            if support >= min_support:
                next_level[cand] = support
        supports.update(next_level)
        current = next_level
    return entries, len(supports)


def mine_ndi(
    db: TransactionDatabase,
    min_support: int,
    counters: CostCounters | None = None,
) -> CondensedPatternSet:
    """Non-derivable patterns with support >= ``min_support`` (python sets)."""
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    tidsets: dict[int, set[int]] = {}
    for tid, tx in enumerate(db):
        for item in tx:
            tidsets.setdefault(item, set()).add(tid)
    singletons = {
        frozenset((item,)): len(tids)
        for item, tids in tidsets.items()
        if len(tids) >= min_support
    }

    def count_support(cand: Pattern) -> int:
        ordered = sorted(cand, key=lambda i: len(tidsets[i]))
        acc = tidsets[ordered[0]]
        for item in ordered[1:]:
            acc = acc & tidsets[item]
            if len(acc) < min_support:
                break
        return len(acc)

    stats = {"derivable_skips": 0, "support_counts": 0}
    entries, frequent_count = _ndi_search(
        singletons, count_support, len(db), min_support, stats
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


def mine_ndi_bitset(
    db: TransactionDatabase,
    min_support: int,
    counters: CostCounters | None = None,
) -> CondensedPatternSet:
    """NDI mining over the shared encoded database's bitmaps.

    Bit-identical entries to :func:`mine_ndi`; support counting for the
    non-derivable candidates runs word-parallel.
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    enc = db.encoded()
    singletons = {
        frozenset((enc.item_of(code),)): enc.support(code)
        for code in range(enc.item_count())
        if enc.support(code) >= min_support
    }

    def count_support(cand: Pattern) -> int:
        return enc.pattern_bitmap(cand).bit_count()

    stats = {"derivable_skips": 0, "support_counts": 0}
    entries, frequent_count = _ndi_search(
        singletons, count_support, len(db), min_support, stats
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
