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

One backend runs the search (:func:`_search`): :func:`mine_eclat_bitset`
over the shared :class:`~repro.data.encoded.EncodedDatabase` big-int
bitmaps, where an intersection is one ``&`` and a support count one
``bit_count()``. It is registered as ``"eclat-bitset"``, the serving
kernel.

The search also returns a verdict, ``PatternSet.tie_free``: True proves
that no pattern has an extension of equal support, so every pattern is
closed and a closed condensation cannot shrink the set. It is the
closure test (a pattern is closed iff no item's cover contains its
cover) run on covers the search already holds: no perfect extension and
no two leaves with the same tidset (proof in :func:`_search`). Every set
derived from a mined one reports False.
"""

from __future__ import annotations

from itertools import combinations

from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import Pattern, PatternSet

# A candidate extension: (item, tidset bitmap, support).
Candidate = tuple[int, int, int]


def _search(
    db: TransactionDatabase,
    roots: list[Candidate],
    min_support: int,
    counters: CostCounters | None,
) -> PatternSet:
    """Eclat with perfect-extension pruning over ``db``'s tidset bitmaps.

    ``roots`` are the frequent items in ascending-support order. A node
    with ``n`` candidates intersects each pair once, so it costs
    ``n * (n - 1) / 2``.

    Each node writes its ``2^|own|`` patterns (itself joined with every
    subset of its perfect extensions ``own``) straight into a plain
    dict, which the result adopts (:meth:`PatternSet._trusted`); no
    pattern passes through :meth:`PatternSet.add`. A node whose narrowed
    list holds a single candidate emits that lone child too: the child
    meets no sibling, so it is a leaf with the node's ``own``, and it
    needs no call of its own. Patterns are non-empty and supports
    non-negative by construction; the one check left is aggregate. The
    search counts what it emits and raises :class:`MiningError` unless
    the dict holds that many patterns, which catches any pattern emitted
    twice (a repeated root item, say), even at the same support.

    The result's ``tie_free`` is True iff the search saw no perfect extension and no
    two *leaves* — nodes whose narrowed candidate list is empty — with
    equal tidsets; then no pattern X has an extension X ∪ {i} of equal
    support, so every pattern is closed. The converse is direct: a
    perfect extension is such a tie, and two patterns A ≠ B with equal
    tidsets tie with A ∪ B. Soundness: let X and X ∪ {i} have equal
    support while no perfect extension was seen, so every frequent
    pattern is a node. Take Z ⊇ X maximal among the frequent patterns
    without ``i``. Z's tidset lies inside X's, hence inside ``i``'s, so
    Z ∪ {i} is frequent with Z's support. If ``i`` comes after max(Z)
    in the search order, node Z meets ``i`` as a perfect extension.
    Otherwise every candidate of Z or of Z ∪ {i} is some j ≠ i after
    max(Z) with Z ∪ {j} frequent, which Z's maximality rules out: both
    are leaves, and they share a tidset. A perfect extension anywhere
    reaches every leaf below it
    through the inherited tuple, so only leaves are checked. Each leaf
    keeps ``hash(tids)``, never the bitmap; a collision only reads as a
    tie.
    """
    supports: dict[Pattern, int] = {}
    emitted = 0
    intersections = 0
    count = int.bit_count
    # Hashes of the leaves' tidsets; None once a tie is seen, which also
    # stops the hashing.
    leaves: set[int] | None = set()

    def joined(node: tuple[int, ...], own: tuple[int, ...], support: int) -> int:
        """Emit ``node`` joined with each non-empty subset of ``own``."""
        for size in range(1, len(own) + 1):
            for extra in combinations(own, size):
                supports[frozenset(node + extra)] = support
        return (1 << len(own)) - 1

    def extend(
        prefix: tuple[int, ...], perfect: tuple[int, ...], candidates: list[Candidate]
    ) -> None:
        nonlocal emitted, intersections, leaves
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
            supports[frozenset(node)] = support
            emitted += 1
            if own:
                emitted += joined(node, own, support)
            if len(narrowed) == 1:
                # The lone child is a leaf: emit it here and let the
                # leaf check below read its tidset.
                child, tids, support = narrowed.pop()
                node += (child,)
                supports[frozenset(node)] = support
                emitted += 1
                if own:
                    emitted += joined(node, own, support)
            if narrowed:
                extend(node, own, narrowed)
            elif leaves is not None:
                key = hash(tids)
                if own or key in leaves:
                    leaves = None
                else:
                    leaves.add(key)

    extend((), (), roots)
    if emitted != len(supports):
        raise MiningError(
            f"the search emitted {emitted} patterns but {len(supports)} are "
            "distinct: a pattern was emitted twice"
        )
    result = PatternSet._trusted(supports)
    result.tie_free = leaves is not None

    if counters is not None:
        counters.tuple_scans += len(db)
        counters.item_visits += db.total_items()
        counters.add("tidset_intersections", intersections)
        counters.patterns_emitted += len(result)
    return result


def mine_eclat_bitset(
    db: TransactionDatabase,
    min_support: int,
    counters: CostCounters | None = None,
) -> PatternSet:
    """All patterns with support >= ``min_support`` via tidset intersection.

    The tidsets are big-int bitmaps from
    :meth:`TransactionDatabase.encoded`, so intersections and support
    counts run word-parallel instead of element by element. The result
    carries the search's ``tie_free`` verdict (see :func:`_search`).
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")

    enc = db.encoded()
    # Ascending support, ties by item id.
    order = sorted(
        (code for code in range(enc.item_count()) if enc.support(code) >= min_support),
        key=lambda code: (enc.support(code), enc.item_of(code)),
    )
    return _search(
        db,
        [(enc.item_of(code), enc.bitmap(code), enc.support(code)) for code in order],
        min_support,
        counters,
    )
