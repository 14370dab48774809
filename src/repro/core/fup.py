"""FUP: the classic incremental-update baseline (Cheung et al., ICDE'96).

The paper's Related Work positions recycling against incremental
techniques [7, 19, 13] that carry state between runs; FUP is the
archetype, so it is implemented here as the comparison baseline (per the
reproduction's build-the-baselines rule).

Given the old database's complete frequent-pattern set (with supports)
and an increment ``db+``, FUP computes the frequent patterns of
``DB ∪ db+`` level-wise:

* an old frequent pattern ("winner" candidate) only needs the increment
  scanned — its old support is known;
* a pattern that was *not* frequent in DB can only become frequent if it
  is frequent within the increment itself (the FUP pruning lemma), so
  only those candidates are counted against the old database.

Contrast with recycling (:mod:`repro.core.incremental`): FUP needs the
old support of every pattern, only handles insertions, and degrades when
the support threshold changes; recycling needs none of that. The
``bench_incremental_baselines`` benchmark measures both sides.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import Pattern, PatternSet
from repro.resilience import REASON_FUP_INSERT_ONLY, DegradationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.versioned import DatabaseDelta


def _count_candidates(
    db: TransactionDatabase, candidates: set[Pattern], size: int
) -> dict[Pattern, int]:
    counts: dict[Pattern, int] = {c: 0 for c in candidates}
    if not candidates:
        return counts
    for tx in db:
        if len(tx) < size:
            continue
        tx_set = frozenset(tx)
        for candidate in candidates:
            if candidate <= tx_set:
                counts[candidate] += 1
    return counts


def _join(frequent: set[Pattern], size: int) -> set[Pattern]:
    """Apriori join + prune over the previous level."""
    sorted_itemsets = sorted(tuple(sorted(p)) for p in frequent)
    candidates: set[Pattern] = set()
    for a_pos, a in enumerate(sorted_itemsets):
        for b in sorted_itemsets[a_pos + 1 :]:
            if a[: size - 1] != b[: size - 1]:
                break
            candidate = frozenset(a) | frozenset(b)
            if all(
                frozenset(subset) in frequent
                for subset in combinations(sorted(candidate), size)
            ):
                candidates.add(candidate)
    return candidates


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

    result = PatternSet()
    tuple_scans = 0
    previous_level: set[Pattern] = set()
    size = 1
    old_by_size: dict[int, dict[Pattern, int]] = {}
    for items, support in old_patterns.items():
        old_by_size.setdefault(len(items), {})[items] = support

    # Level-1 new candidates: every item in the increment.
    increment_items = increment.item_supports()

    while True:
        winners = old_by_size.get(size, {})
        if size == 1:
            new_candidates = {
                frozenset((i,)) for i in increment_items if frozenset((i,)) not in winners
            }
        else:
            new_candidates = {
                c for c in _join(previous_level, size - 1) if c not in winners
            }
        if not winners and not new_candidates:
            break

        # Winners: scan only the increment.
        increment_counts = _count_candidates(increment, set(winners), size)
        tuple_scans += len(increment) if winners else 0
        level: set[Pattern] = set()
        for pattern, old_support in winners.items():
            total = old_support + increment_counts[pattern]
            if total >= min_support:
                result.add(pattern, total)
                level.add(pattern)

        # Newcomers: must clear the increment-local bar before the old
        # database is touched at all (the FUP saving).
        if new_candidates:
            delta_counts = _count_candidates(increment, new_candidates, size)
            tuple_scans += len(increment)
            promising = {
                c for c, count in delta_counts.items() if count >= delta_threshold
            }
            if promising:
                old_counts = _count_candidates(old_db, promising, size)
                tuple_scans += len(old_db)
                for pattern in promising:
                    total = old_counts[pattern] + delta_counts[pattern]
                    if total >= min_support:
                        result.add(pattern, total)
                        level.add(pattern)

        if not level:
            break
        # Geerts–Goethals–Van den Bussche tight candidate bound (shared
        # with the parallel merge recount): |F_k| canonically decomposed
        # bounds |F_{k+1}|; zero means no larger pattern can be frequent
        # at all — winners included — so the level loop is over without
        # scanning another candidate. Lazy import: the deliberate
        # core→parallel edge stays function-local (see tests layering
        # contract).
        from repro.parallel.merge import tight_candidate_bound

        if tight_candidate_bound(len(level), size) == 0:
            if counters is not None:
                counters.add("fup_bound_cutoffs")
            break
        previous_level = level
        size += 1

    if counters is not None:
        counters.tuple_scans += tuple_scans
        counters.patterns_emitted += len(result)
    return result


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
    sound path (recycling-based :func:`~repro.core.incremental.
    incremental_mine`, or a scratch mine) instead.
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
