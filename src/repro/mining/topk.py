"""Top-k frequent pattern mining.

Interactive users often do not know a good support threshold — which is
exactly the iterate-and-refine loop that motivates recycling. Asking for
"the k most frequent patterns (of at least some length)" sidesteps the
guessing. This module finds the largest threshold that yields at least
``k`` qualifying patterns by a support-space binary search, each probe
being one ordinary mining run — so probes compose with recycling: pass a
``miner`` bound to a compressed database to make every probe recycled.
"""

from __future__ import annotations

from typing import Callable

from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.mining.fptree import mine_fpgrowth
from repro.mining.patterns import PatternSet


def mine_top_k(
    db: TransactionDatabase,
    k: int,
    min_length: int = 1,
    miner: Callable[[TransactionDatabase, int], PatternSet] | None = None,
) -> tuple[PatternSet, int]:
    """The ``k`` most frequent patterns with at least ``min_length`` items.

    Returns ``(patterns, threshold)`` where ``threshold`` is the largest
    support for which at least ``k`` patterns of the required length
    exist, and ``patterns`` is the **complete** pattern set at that
    threshold restricted to ``min_length`` (which may exceed ``k`` — ties
    at the threshold are all returned rather than broken arbitrarily).
    """
    if k < 1:
        raise MiningError(f"k must be >= 1, got {k}")
    if min_length < 1:
        raise MiningError(f"min_length must be >= 1, got {min_length}")
    mine = miner or mine_fpgrowth

    def qualifying(min_support: int) -> PatternSet:
        return mine(db, min_support).filter(
            lambda pattern, _support: len(pattern) >= min_length
        )

    return top_k_by_probe(lambda s: qualifying(s), k, upper=max(1, len(db)))


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
