"""Recycling across database change: the incremental-mining extension.

Section 2's extended problem statement: (1) same constraints, the
database gained or lost tuples — the classic incremental update problem;
(2) both the constraints and the database changed. Unlike negative-border
incremental techniques, recycling makes *no assumption* that the earlier
run prepared anything: the old patterns are used purely as compression
vocabulary, and mining the compressed new database recounts everything
exactly. That is also why it keeps working when the change is drastic or
when the database *shrinks* — the failure modes the paper lists for
existing incremental methods.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.recycle import recycle_mine
from repro.core.utility import CompressionStrategy
from repro.data.transactions import TransactionDatabase
from repro.errors import RecycleError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import PatternSet


def incremental_mine(
    new_db: TransactionDatabase,
    old_patterns: PatternSet,
    min_support: int,
    algorithm: str = "hmine",
    strategy: CompressionStrategy | str = "mcp",
    counters: CostCounters | None = None,
) -> PatternSet:
    """Mine ``new_db`` recycling patterns mined on a *previous* version.

    ``old_patterns`` may have been discovered on a database with more or
    fewer tuples (or under different constraints); their supports are
    only used as utility estimates for compression, so stale supports
    cost performance at worst, never correctness. ``algorithm`` is a
    baseline or recycling name, resolved like a session's by
    :func:`~repro.core.recycle.resolve_recycling_algorithm`.
    """
    if len(old_patterns) == 0:
        raise RecycleError("no old patterns to recycle")
    return recycle_mine(
        new_db, old_patterns, min_support,
        algorithm=algorithm, strategy=strategy, counters=counters,
    )


def apply_insertions(
    db: TransactionDatabase, insertions: Iterable[Iterable[int]]
) -> TransactionDatabase:
    """The grown database ``DB ∪ db+`` (fresh tids)."""
    return db.extend(insertions)


def apply_deletions(db: TransactionDatabase, tids: Iterable[int]) -> TransactionDatabase:
    """The shrunk database ``DB − db−`` by transaction id."""
    doomed = set(tids)
    unknown = doomed - set(db.tids)
    if unknown:
        raise RecycleError(f"cannot delete unknown tids {sorted(unknown)}")
    keep = [pos for pos, tid in enumerate(db.tids) if tid not in doomed]
    return db.sample(keep)
