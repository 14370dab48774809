"""FUP: the classic incremental-update baseline (Cheung et al., ICDE'96).

The paper's Related Work positions recycling against incremental
techniques [7, 19, 13] that carry state between runs; FUP is the
archetype, so it is implemented here as the comparison baseline (per the
reproduction's build-the-baselines rule).

Given the old database's complete frequent-pattern set (with supports)
and an increment ``db+``, FUP computes the frequent patterns of
``DB ∪ db+``. Here that is one depth-first search on bitmaps (Eclat's
traversal, :mod:`repro.mining.eclat`): the increment is encoded once,
and a candidate's increment count is one ``&`` of its prefix's
increment tidset with a sibling's.

* an old frequent pattern ("winner" candidate) needs nothing else — its
  grown support is its old support plus that count;
* a pattern that was *not* frequent in DB can only become frequent if it
  is frequent within the increment itself (the FUP pruning lemma), so
  only those candidates are counted against the old database, on its
  memoized encoding (built only when the first one needs it).

Every frequent pattern of the grown database has frequent subsets, so
the search needs no level loop and no candidate-count cutoff: it stops
where no sibling pair stays frequent.

Contrast with recycling (:func:`~repro.core.recycle.recycle_mine`): FUP
needs the old support of every pattern, only handles insertions, and
degrades when the support threshold changes; recycling needs none of
that. The ``incremental-weather`` rows of ``benchmarks/bench_paper.py``
measure both sides.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import TYPE_CHECKING

from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import Pattern, PatternSet
from repro.resilience import REASON_FUP_INSERT_ONLY, DegradationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.encoded import EncodedDatabase
    from repro.data.versioned import DatabaseDelta


def fup_update(
    old_db: TransactionDatabase,
    increment: TransactionDatabase,
    old_patterns: PatternSet,
    min_support: int,
    counters: CostCounters | None = None,
) -> PatternSet:
    """Frequent patterns of ``old_db`` + ``increment`` at ``min_support``.

    ``old_patterns`` must be the complete frequent-pattern set of
    ``old_db`` at some old threshold ``xi_old <= min_support *
    |old_db| / |old_db ∪ increment|`` — in practice: at least as selective
    relative to the old database. A raised relative threshold is fine
    (losers just get filtered); a *lowered* one is exactly what FUP
    cannot do, and the reason the paper's recycling exists.

    ``counters`` is charged the increment's rows, read once to encode it
    (``tuple_scans``, ``item_visits``), and one ``tidset_intersections``
    per ``&``, on the increment's bitmaps or the old database's.

    ``old_patterns`` is read in place, never copied or written to. Each
    frequent pattern is written straight into a plain dict that the
    result adopts (:meth:`PatternSet._trusted`), so it shares no mapping
    with the feedstock. The search counts what it emits and raises
    :class:`MiningError` unless the dict holds that many patterns.
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    increment_size = len(increment)
    total_size = len(old_db) + increment_size
    if total_size == 0:
        return PatternSet()
    # The FUP pruning lemma threshold for the increment alone: a pattern
    # infrequent in DB must reach the same relative support inside db+.
    delta_threshold = max(1, min_support - len(old_db))
    relative = min_support / total_size
    delta_threshold = max(delta_threshold, int(relative * increment_size))

    supports: dict[Pattern, int] = {}
    emitted = 0
    old_support = old_patterns._supports.get
    old_enc: EncodedDatabase | None = None
    intersections = 0

    def grown_support(key: Pattern, tids: int) -> int | None:
        """``key``'s support in the grown database, or None if infrequent."""
        nonlocal emitted, old_enc, intersections
        count = tids.bit_count()
        old = old_support(key)
        if old is None:
            # A newcomer must clear the increment bar before the old
            # database is touched at all (the FUP saving).
            if count < delta_threshold:
                return None
            if old_enc is None:
                old_enc = old_db.encoded()
            old = reduce(and_, map(old_enc.bitmap_for_item, key)).bit_count()
            intersections += len(key) - 1
        count += old
        if count < min_support:
            return None
        supports[key] = count
        emitted += 1
        return count

    def extend(prefix: Pattern, candidates: list[tuple[int, int]]) -> None:
        nonlocal intersections
        for pos, (item, tids) in enumerate(candidates):
            node = prefix | {item}
            narrowed = []
            for other, other_tids in candidates[pos + 1 :]:
                joined = tids & other_tids
                if grown_support(node | {other}, joined) is not None:
                    narrowed.append((other, joined))
            intersections += len(candidates) - pos - 1
            if narrowed:
                extend(node, narrowed)

    # Depth-first over the increment's bitmaps. The roots are every item
    # of the increment plus every old frequent item (a winner the
    # increment never mentions keeps its old support), in ascending
    # grown support, Eclat's order: the rarest item has the fewest
    # frequent extensions and meets the most siblings.
    inc = increment.encoded()
    roots = {item for pattern in old_patterns if len(pattern) == 1 for item in pattern}
    roots.update(increment.item_supports())
    ranked = []
    for item in roots:
        tids = inc.bitmap_for_item(item)
        support = grown_support(frozenset((item,)), tids)
        if support is not None:
            ranked.append((support, item, tids))
    ranked.sort()
    extend(frozenset(), [(item, tids) for _, item, tids in ranked])
    if emitted != len(supports):
        raise MiningError(
            f"the patch emitted {emitted} patterns but {len(supports)} are "
            "distinct: a pattern was emitted twice"
        )

    if counters is not None:
        counters.tuple_scans += increment_size
        counters.item_visits += increment.total_items()
        counters.add("tidset_intersections", intersections)
        counters.patterns_emitted += len(supports)
    return PatternSet._trusted(supports)


def fup_update_delta(
    old_db: TransactionDatabase,
    delta: "DatabaseDelta",
    old_patterns: PatternSet,
    min_support: int,
    counters: CostCounters | None = None,
    degradation: DegradationReport | None = None,
) -> PatternSet:
    """FUP over a :class:`~repro.data.versioned.DatabaseDelta`.

    FUP's pruning lemma is *insert-only*: a deletion can raise the
    relative support of patterns the old run never materialized, so
    patching a deletion delta with FUP silently produces wrong supports.
    This wrapper refuses — it records ``update→mine: fup_insert_only``
    on ``degradation`` (when given) and raises
    :class:`~repro.errors.MiningError` so the caller falls back to a
    sound path (:func:`~repro.core.recycle.recycle_mine`, or a scratch
    mine) instead.
    """
    if not delta.is_insert_only:
        if degradation is not None:
            degradation.record("update", "mine", REASON_FUP_INSERT_ONLY)
        raise MiningError(
            f"FUP cannot patch a deletion delta ({len(delta.deletes)} deleted "
            "tids): old supports only bound inserted rows"
        )
    # The delta normalized its rows when it was built.
    increment = TransactionDatabase._trusted(delta.appends)
    return fup_update(old_db, increment, old_patterns, min_support, counters)


def fup_applicable(
    delta: "DatabaseDelta",
    feedstock_support: int,
    new_support: int,
    old_size: int,
) -> bool:
    """Whether FUP is *sound* for this delta and feedstock.

    The delta must be insert-only, and every pattern frequent in the
    merged database but absent from the feedstock must clear
    :func:`fup_update`'s increment-local pruning bar. A non-winner has
    old support at most ``xi_old - 1``, hence increment count at least
    ``xi_new - xi_old + 1``; FUP is sound exactly when that worst case
    still reaches ``delta_threshold``. (The textbook special case —
    feedstock at least as selective *relative* to the old database as
    the new threshold is to the grown one — satisfies this; the exact
    bar additionally admits constant-absolute-support growth, the
    common warehouse scenario.)
    """
    if not delta.is_insert_only or old_size <= 0:
        return False
    if feedstock_support > new_support:
        return False
    increment_size = len(delta.appends)
    new_size = old_size + increment_size
    delta_threshold = max(1, new_support - old_size)
    delta_threshold = max(
        delta_threshold, int(new_support / new_size * increment_size)
    )
    return new_support - feedstock_support + 1 >= delta_threshold
