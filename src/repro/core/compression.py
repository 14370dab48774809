"""Phase 1 of recycling: compress a database with old frequent patterns.

Implements the compression algorithm of Figure 1: patterns are ranked by
utility (see :mod:`repro.core.utility`); each tuple is compressed by the
highest-utility pattern it contains, becoming *(group pattern, outlying
items)*; tuples compressed by the same pattern form a
:class:`~repro.core.groups.Group` with a count — the paper's Table 2.
Compression emits the unified group representation directly: every
group carries its member tids, full tails and the member-position mask
that the bitset mining kernel in :mod:`repro.storage.projection` keys
on, wrapped in a :class:`~repro.core.groups.GroupedDatabase`.

The scan order here is pattern-major rather than tuple-major: for each
pattern in utility order we claim, via a vertical tid index, every
still-unclaimed tuple containing it. That is observationally identical to
the paper's tuple-major loop (a tuple is always claimed by the first
pattern in utility order that contains it) but avoids the
``|FP| x |DB|`` subset-test blow-up.

Claiming reads the vertical index from the shared
:class:`~repro.data.encoded.EncodedDatabase`: big-int bitmaps, so a
pattern's candidate set is a few ``&`` operations and the unclaimed set
is one mask.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.groups import Group, GroupedDatabase
from repro.core.utility import CompressionStrategy, get_strategy
from repro.data.encoded import bit_positions
from repro.data.transactions import TransactionDatabase
from repro.errors import CompressionError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import PatternSet

@dataclass(frozen=True)
class CompressionResult:
    """A compressed database plus the statistics Table 3 reports."""

    compressed: GroupedDatabase
    strategy: str
    pattern_count: int
    max_pattern_length: int
    elapsed_seconds: float
    containment_checks: int

    @property
    def ratio(self) -> float:
        return self.compressed.compression_ratio()


def _claim_group(
    db: TransactionDatabase, pattern_items: frozenset[int], claimed: list[int]
) -> Group:
    """Materialize the group of ``claimed`` positions under one pattern."""
    mask = 0
    for position in claimed:
        mask |= 1 << position
    return Group(
        pattern=tuple(sorted(pattern_items)),
        count=len(claimed),
        tails=tuple(
            tuple(i for i in db[position] if i not in pattern_items)
            for position in claimed
        ),
        tids=tuple(db.tids[position] for position in claimed),
        mask=mask,
    )


def _residual_group(db: TransactionDatabase, residual: list[int]) -> Group:
    """The pattern-``()`` group of tuples no pattern claimed."""
    mask = 0
    for position in residual:
        mask |= 1 << position
    return Group(
        pattern=(),
        count=len(residual),
        tails=tuple(db[position] for position in residual),
        tids=tuple(db.tids[position] for position in residual),
        mask=mask,
    )


def _claim_groups_bitset(
    db: TransactionDatabase, ranked: list[tuple[frozenset[int], int]]
) -> tuple[list[Group], int]:
    """Pattern-major claiming over the shared encoded-database bitmaps.

    A pattern's candidate tidset is a few big-int ``&`` operations and
    the unclaimed set is one mask, so the per-pattern work is
    word-parallel. A pattern is charged one containment check when all
    its items occur in ``db``.
    """
    enc = db.encoded()
    unclaimed = enc.universe
    groups: list[Group] = []
    checks = 0
    for pattern_items, _support in ranked:
        if not unclaimed:
            break
        # Ascending support = descending code; a pattern with an item
        # that never occurs claims nothing and is not charged a check.
        if any(item not in enc for item in pattern_items):
            continue
        codes = sorted((enc.code_of(item) for item in pattern_items), reverse=True)
        candidates = enc.bitmap(codes[0])
        for code in codes[1:]:
            candidates &= enc.bitmap(code)
            if not candidates:
                break
        checks += 1
        claimed_mask = candidates & unclaimed
        if not claimed_mask:
            continue
        unclaimed &= ~claimed_mask
        claimed = list(bit_positions(claimed_mask))
        groups.append(_claim_group(db, frozenset(pattern_items), claimed))

    if unclaimed:
        groups.append(_residual_group(db, list(bit_positions(unclaimed))))
    return groups, checks


def compress(
    db: TransactionDatabase,
    patterns: PatternSet,
    strategy: CompressionStrategy | str = "mcp",
    counters: CostCounters | None = None,
    seed: int = 0,
) -> CompressionResult:
    """Compress ``db`` using ``patterns`` under the given strategy.

    Tuples containing none of the patterns land in the residual group
    (pattern ``()``), exactly as the paper leaves unmatched tuples
    uncompressed. An empty pattern set is rejected — recycling nothing is
    a caller error (use the plain miners instead).
    """
    if isinstance(strategy, str):
        strategy = get_strategy(strategy)
    if len(patterns) == 0:
        raise CompressionError("cannot compress with an empty pattern set")

    started = time.perf_counter()
    ranked = strategy.rank_patterns(patterns, len(db), seed=seed)
    groups, checks = _claim_groups_bitset(db, ranked)

    groups.sort(key=lambda g: (not g.pattern, -g.count, g.pattern))
    compressed = GroupedDatabase(groups, db)
    elapsed = time.perf_counter() - started
    if counters is not None:
        counters.containment_checks += checks
        counters.tuple_scans += len(db)
        counters.item_visits += db.total_items()
    return CompressionResult(
        compressed=compressed,
        strategy=strategy.name,
        pattern_count=len(patterns),
        max_pattern_length=patterns.max_length(),
        elapsed_seconds=elapsed,
        containment_checks=checks,
    )
