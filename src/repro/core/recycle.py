"""One-call recycling API: compress with old patterns, mine the result.

This is the paper's two-phase pipeline as a function::

    patterns = recycle_mine(db, old_patterns, new_min_support,
                            algorithm="hmine", strategy="mcp")

Recycling miners (HM-MCP, HM-MLP, FP-MCP, FP-MLP, TP-MCP, TP-MLP and
the naive RP-Mine) resolve through the single
:mod:`repro.mining.registry` under ``kind="recycling"``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compression import CompressionResult, compress
from repro.core.utility import CompressionStrategy
from repro.data.patterns import CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.errors import RecycleError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import PatternSet
from repro.mining.registry import get_miner, has_miner, miner_names


def resolve_recycling_algorithm(algorithm: str | None) -> str:
    """The registry recycling name backing ``algorithm``.

    The recycler registered under the same name (H-Mine, FP-growth and
    TreeProjection have the paper's adaptations, ``naive`` is RP-Mine);
    every other baseline name, and ``None``, recycles with RP-Mine on the
    grouped bitset kernel, which measured faster than every adaptation
    (EXPERIMENTS.md, "Recycling against the serving kernel"). A name that
    is neither a baseline nor a recycler raises :class:`RecycleError`.
    """
    if algorithm is None:
        return "naive"
    if has_miner(algorithm, kind="recycling"):
        return algorithm
    if has_miner(algorithm, kind="baseline"):
        return "naive"
    known = ", ".join(sorted({*miner_names("baseline"), *miner_names("recycling")}))
    raise RecycleError(f"unknown algorithm {algorithm!r} (known: {known})")


@dataclass(frozen=True)
class RecycleOutcome:
    """Everything a recycling run produced, for reporting."""

    patterns: PatternSet
    compression: CompressionResult


def recycle_mine(
    db: TransactionDatabase,
    old_patterns: "PatternSet | CondensedPatternSet",
    min_support: int,
    algorithm: str | None = "hmine",
    strategy: CompressionStrategy | str = "mcp",
    counters: CostCounters | None = None,
) -> PatternSet:
    """Phase 1 + Phase 2: compress ``db`` with ``old_patterns``, then mine.

    ``min_support`` is the relaxed absolute threshold (``xi_new``). The
    result is exactly the frequent patterns of ``db`` at that threshold —
    recycling changes the cost, never the answer. ``algorithm`` is any
    baseline or recycling name, resolved by
    :func:`resolve_recycling_algorithm`.
    """
    return recycle_mine_detailed(
        db, old_patterns, min_support, algorithm, strategy, counters
    ).patterns


def recycle_mine_detailed(
    db: TransactionDatabase,
    old_patterns: "PatternSet | CondensedPatternSet",
    min_support: int,
    algorithm: str | None = "hmine",
    strategy: CompressionStrategy | str = "mcp",
    counters: CostCounters | None = None,
) -> RecycleOutcome:
    """Like :func:`recycle_mine` but also returns compression statistics.

    ``old_patterns`` may be a condensed warehouse entry: Phase 1 only
    requires that its feedstock be genuine frequent patterns with exact
    supports, which the condensed *entries* already are — so they feed
    the compressor directly, without expanding the full set. (Phase 2
    re-counts exactly; the feedstock subset never changes the answer.)
    """
    spec = get_miner(resolve_recycling_algorithm(algorithm), kind="recycling")
    if isinstance(old_patterns, CondensedPatternSet):
        old_patterns = old_patterns.entry_patterns()
    if len(old_patterns) == 0:
        raise RecycleError(
            "no patterns to recycle — mine with a baseline algorithm instead"
        )
    compression = compress(db, old_patterns, strategy, counters)
    patterns = spec.mine(compression.compressed, min_support, counters)
    return RecycleOutcome(patterns=patterns, compression=compression)
