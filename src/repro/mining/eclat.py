"""Eclat (Zaki, 1997): vertical-format mining by tidset intersection.

Each item maps to the set of transaction ids containing it; a pattern's
support is the size of the intersection of its items' tidsets. Depth-first
extension in ascending-support order keeps intersections small.

The search prunes *perfect extensions* (Borgelt): when extending a node
``P`` by a later candidate ``o`` leaves the support unchanged,
sup(P ∪ {o}) = sup(P), every transaction holding ``P`` holds ``o``, so
every pattern below ``P`` has the same support with or without ``o``.
Such an item is dropped from ``P``'s candidates and joins a tuple of
perfect extensions that ``P``'s whole subtree inherits; it is never
intersected again below ``P``. Each node emits its pattern plus the
pattern joined with every non-empty subset of that tuple, all at the
node's support. On dense data (connect4) most intersections are such
ties; on tie-free data the search is plain Eclat.

Not one of the three algorithms the paper adapts, but a useful independent
baseline: it shares neither layout (vertical vs. horizontal) nor traversal
code with the projected-database miners, which makes cross-checking
results meaningful.

Two backends run the identical search (:func:`_search`), so they report
equal ``tidset_intersections``:

* :func:`mine_eclat` — pure-Python ``set[int]`` tidsets, support by
  ``len`` (registry backend ``"python"``);
* :func:`mine_eclat_bitset` — the shared
  :class:`~repro.data.encoded.EncodedDatabase` big-int bitmaps, where an
  intersection is one ``&`` and a support count one ``bit_count()``
  (registry backend ``"bitset"``).
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Callable

from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import PatternSet

# A candidate extension: (item, tidset, support). The tidset is a
# ``set[int]`` or a big-int bitmap; both intersect with ``&``.
Candidate = tuple[int, Any, int]


def _vertical_layout(db: TransactionDatabase) -> dict[int, set[int]]:
    """Build ``{item: tidset}`` over transaction positions."""
    tidsets: dict[int, set[int]] = {}
    for tid, tx in enumerate(db):
        for item in tx:
            tidsets.setdefault(item, set()).add(tid)
    return tidsets


def _search(
    db: TransactionDatabase,
    roots: list[Candidate],
    min_support: int,
    count: Callable[[Any], int],
    counters: CostCounters | None,
) -> PatternSet:
    """Eclat with perfect-extension pruning over ``db``'s tidsets.

    ``roots`` are the frequent items in ascending-support order and
    ``count`` the support of a tidset. A node with ``n`` candidates
    intersects each pair once, so it costs ``n * (n - 1) / 2``.
    """
    result = PatternSet()
    intersections = 0

    def extend(
        prefix: tuple[int, ...], perfect: tuple[int, ...], candidates: list[Candidate]
    ) -> None:
        nonlocal intersections
        intersections += len(candidates) * (len(candidates) - 1) // 2
        for pos, (item, tids, support) in enumerate(candidates):
            node = prefix + (item,)
            own = perfect
            narrowed: list[Candidate] = []
            for other, other_tids, _ in candidates[pos + 1 :]:
                intersection = tids & other_tids
                other_support = count(intersection)
                if other_support == support:
                    own += (other,)
                elif other_support >= min_support:
                    narrowed.append((other, intersection, other_support))
            result.add(node, support)
            for size in range(1, len(own) + 1):
                for extra in combinations(own, size):
                    result.add(node + extra, support)
            if narrowed:
                extend(node, own, narrowed)

    extend((), (), roots)

    if counters is not None:
        counters.tuple_scans += len(db)
        counters.item_visits += db.total_items()
        counters.add("tidset_intersections", intersections)
        counters.patterns_emitted += len(result)
    return result


def mine_eclat(
    db: TransactionDatabase,
    min_support: int,
    counters: CostCounters | None = None,
) -> PatternSet:
    """All patterns with support >= ``min_support`` via tidset intersection."""
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")

    tidsets = _vertical_layout(db)
    frequent_items = sorted(
        (item for item, tids in tidsets.items() if len(tids) >= min_support),
        key=lambda item: (len(tidsets[item]), item),
    )
    return _search(
        db,
        [(item, tidsets[item], len(tidsets[item])) for item in frequent_items],
        min_support,
        len,
        counters,
    )


def mine_eclat_bitset(
    db: TransactionDatabase,
    min_support: int,
    counters: CostCounters | None = None,
) -> PatternSet:
    """Eclat over the shared encoded database's vertical bitmaps.

    Bit-identical output to :func:`mine_eclat`; the tidsets are big-int
    bitmaps from :meth:`TransactionDatabase.encoded`, so intersections and
    support counts run word-parallel instead of element by element.
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")

    enc = db.encoded()
    # Ascending support (ties by item id), as in the python backend.
    order = sorted(
        (code for code in range(enc.item_count()) if enc.support(code) >= min_support),
        key=lambda code: (enc.support(code), enc.item_of(code)),
    )
    return _search(
        db,
        [(enc.item_of(code), enc.bitmap(code), enc.support(code)) for code in order],
        min_support,
        int.bit_count,
        counters,
    )
