"""Top-k frequent pattern mining.

Interactive users often do not know a good support threshold — which is
exactly the iterate-and-refine loop that motivates recycling. Asking for
"the k most frequent patterns" sidesteps the guessing. This module finds
the largest threshold that yields at least ``k`` patterns by a
support-space binary search, each probe being one ordinary mining run.
"""

from __future__ import annotations

from typing import Callable

from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.mining.fptree import mine_fpgrowth
from repro.mining.patterns import PatternSet


def mine_top_k(db: TransactionDatabase, k: int) -> tuple[PatternSet, int]:
    """The ``k`` most frequent patterns.

    Returns ``(patterns, threshold)`` where ``threshold`` is the largest
    support for which at least ``k`` patterns exist, and ``patterns`` is
    the **complete** pattern set at that threshold (which may exceed
    ``k`` — ties at the threshold are all returned rather than broken
    arbitrarily).
    """
    return top_k_by_probe(lambda s: mine_fpgrowth(db, s), k, upper=max(1, len(db)))


def top_k_by_probe(
    probe: Callable[[int], PatternSet], k: int, upper: int
) -> tuple[PatternSet, int]:
    """Binary-search the largest threshold yielding >= ``k`` patterns.

    ``probe(s)`` must return the qualifying pattern set at absolute
    support ``s``; pattern counts are non-increasing in ``s``. Raises
    when even ``probe(1)`` has fewer than ``k`` patterns.
    """
    if k < 1:
        raise MiningError(f"k must be >= 1, got {k}")
    low, high = 1, max(1, upper)  # invariant: answer in [low, high]
    best: PatternSet | None = None
    best_threshold = 1
    while low <= high:
        mid = (low + high) // 2
        patterns = probe(mid)
        if len(patterns) >= k:
            best, best_threshold = patterns, mid
            low = mid + 1
        else:
            high = mid - 1
    if best is None:
        raise MiningError(
            f"fewer than k={k} qualifying patterns exist even at support 1"
        )
    return best, best_threshold
