"""One-call recycling API: compress with old patterns, mine the result.

This is the paper's two-phase pipeline as a function::

    patterns = recycle_mine(db, old_patterns, new_min_support,
                            algorithm="hmine", strategy="mcp")

Recycling miners (HM-MCP, HM-MLP, FP-MCP, FP-MLP, TP-MCP, TP-MLP and
the naive RP-Mine) resolve through the single
:mod:`repro.mining.registry` under ``kind="recycling"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.compression import CompressionResult, compress
from repro.core.utility import CompressionStrategy
from repro.data.patterns import CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError, RecycleError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import PatternSet
from repro.mining.registry import get_miner
from repro.resilience import DegradationReport, ResilienceConfig

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.parallel import ParallelEngine


def get_miner_spec(algorithm: str):
    """The full recycling :class:`~repro.mining.registry.MinerSpec`."""
    try:
        return get_miner(algorithm, kind="recycling")
    except MiningError as exc:
        raise RecycleError(str(exc).replace("miner", "algorithm", 1)) from None


@dataclass(frozen=True)
class RecycleOutcome:
    """Everything a recycling run produced, for reporting.

    ``degradation`` is empty unless the run descended the resilience
    ladder (e.g. a sharded Phase 2 fell back to serial, or an open
    circuit breaker skipped the parallel path entirely).
    """

    patterns: PatternSet
    compression: CompressionResult
    degradation: DegradationReport = field(default_factory=DegradationReport)


def recycle_mine(
    db: TransactionDatabase,
    old_patterns: PatternSet,
    min_support: int,
    algorithm: str = "hmine",
    strategy: CompressionStrategy | str = "mcp",
    counters: CostCounters | None = None,
    jobs: int = 1,
    resilience: ResilienceConfig | None = None,
) -> PatternSet:
    """Phase 1 + Phase 2: compress ``db`` with ``old_patterns``, then mine.

    ``min_support`` is the relaxed absolute threshold (``xi_new``). The
    result is exactly the frequent patterns of ``db`` at that threshold —
    recycling changes the cost, never the answer. ``jobs > 1`` runs
    Phase 2 through the sharded engine of :mod:`repro.parallel` — same
    answer, two-pass partition scheme across worker processes — honoring
    the retry budget, fault injector and circuit breaker in
    ``resilience``.
    """
    return recycle_mine_detailed(
        db,
        old_patterns,
        min_support,
        algorithm,
        strategy,
        counters,
        jobs,
        resilience=resilience,
    ).patterns


def sharded_engine(
    jobs: int, resilience: ResilienceConfig | None = None
) -> "ParallelEngine | None":
    """The engine a ``jobs > 1`` call fans out through (``None``: in-process).

    It carries ``resilience``'s retry budget, fault injector and circuit
    breaker.
    """
    if jobs <= 1:
        return None
    # The deliberate upward edge: core reaches into repro.parallel only
    # here, lazily, mirroring how the sharded engine reaches back down
    # into the planner inside its workers.
    from repro.parallel import ParallelEngine

    return ParallelEngine.from_resilience(jobs, resilience)


def recycle_mine_detailed(
    db: TransactionDatabase,
    old_patterns: "PatternSet | CondensedPatternSet",
    min_support: int,
    algorithm: str = "hmine",
    strategy: CompressionStrategy | str = "mcp",
    counters: CostCounters | None = None,
    jobs: int = 1,
    resilience: ResilienceConfig | None = None,
) -> RecycleOutcome:
    """Like :func:`recycle_mine` but also returns compression statistics.

    ``old_patterns`` may be a condensed warehouse entry: Phase 1 only
    requires that its feedstock be genuine frequent patterns with exact
    supports, which the condensed *entries* already are — so they feed
    the compressor directly, without expanding the full set. (Phase 2
    re-counts exactly; the feedstock subset never changes the answer.)
    """
    spec = get_miner_spec(algorithm)
    if isinstance(old_patterns, CondensedPatternSet):
        old_patterns = old_patterns.entry_patterns()
    if len(old_patterns) == 0:
        raise RecycleError(
            "no patterns to recycle — mine with a baseline algorithm instead"
        )
    engine = sharded_engine(jobs, resilience)
    if engine is not None:
        strategy_name = strategy if isinstance(strategy, str) else strategy.name
        outcome = engine.recycle_mine(
            db,
            old_patterns,
            min_support,
            algorithm=algorithm,
            strategy=strategy_name,
            counters=counters,
        )
        assert outcome.compression is not None
        return RecycleOutcome(
            patterns=outcome.patterns,
            compression=outcome.compression,
            degradation=outcome.degradation,
        )
    compression = compress(db, old_patterns, strategy, counters)
    patterns = spec.mine(compression.compressed, min_support, counters)
    return RecycleOutcome(patterns=patterns, compression=compression)
