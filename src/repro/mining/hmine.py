"""H-Mine (Pei et al., ICDM 2001): hyper-structure mining.

H-Mine stores each transaction once (restricted to frequent items, sorted
in F-list order) and mines projected databases as *queues of pointers*
into those transactions instead of physical copies. Processing item ``i``
walks ``i``'s queue; afterwards each entry is re-threaded to the next
frequent item in its transaction, so the structure is traversed, never
rebuilt.

This module implements that queue discipline faithfully over Python
tuples: an "entry" is ``(transaction, position)`` and re-threading advances
the position. The same engine is reused by the memory-limited driver in
:mod:`repro.storage.projection`.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.metrics.counters import CostCounters
from repro.mining.flist import FList
from repro.mining.patterns import PatternSet

# An H-struct entry: a transaction (sorted by F-list rank) and the offset
# where its live suffix begins.
Entry = tuple[tuple[int, ...], int]


class _HMineEngine:
    """Recursive queue-based miner over suffix entries."""

    def __init__(self, min_support: int, rank: dict[int, int]) -> None:
        self.min_support = min_support
        self.rank = rank
        self.result = PatternSet()
        self.item_visits = 0
        self.tuple_scans = 0
        self.projections = 0

    def mine(self, entries: list[Entry], prefix: tuple[int, ...]) -> None:
        """Mine all frequent extensions of ``prefix`` within ``entries``."""
        counts: Counter[int] = Counter()
        for tx, pos in entries:
            self.tuple_scans += 1
            self.item_visits += len(tx) - pos
            counts.update(tx[pos:])
        local = [i for i, c in counts.items() if c >= self.min_support]
        if not local:
            return
        local.sort(key=self.rank.__getitem__)
        local_set = set(local)

        # Thread every entry onto the queue of its first locally frequent
        # item. Queues for later items are filled by re-threading.
        queues: dict[int, list[Entry]] = {i: [] for i in local}
        for tx, pos in entries:
            advanced = self._advance(tx, pos, local_set)
            if advanced is not None:
                queues[tx[advanced]].append((tx, advanced))

        for item in local:
            new_prefix = prefix + (item,)
            self.result.add(new_prefix, counts[item])
            queue = queues[item]
            sub_entries = [(tx, pos + 1) for tx, pos in queue if pos + 1 < len(tx)]
            if sub_entries:
                self.projections += 1
                self.mine(sub_entries, new_prefix)
            # Re-thread: each consumed entry moves to its next locally
            # frequent item, which (transactions being rank-sorted) always
            # lies strictly after ``item`` and is therefore unprocessed.
            for tx, pos in queue:
                advanced = self._advance(tx, pos + 1, local_set)
                if advanced is not None:
                    queues[tx[advanced]].append((tx, advanced))

    @staticmethod
    def _advance(tx: tuple[int, ...], pos: int, local_set: set[int]) -> int | None:
        """First position >= ``pos`` holding a locally frequent item."""
        for p in range(pos, len(tx)):
            if tx[p] in local_set:
                return p
        return None


def build_hstruct(
    db: TransactionDatabase, flist: FList
) -> list[tuple[int, ...]]:
    """Project a database onto its F-list: frequent items only, rank order.

    This is the in-memory H-struct payload; empty projections are dropped.
    """
    hstruct: list[tuple[int, ...]] = []
    for tx in db:
        projected = tuple(flist.sort_items(tx))
        if projected:
            hstruct.append(projected)
    return hstruct


def mine_hmine(
    db: TransactionDatabase,
    min_support: int,
    counters: CostCounters | None = None,
) -> PatternSet:
    """All patterns with support >= ``min_support`` using H-Mine.

    For the memory-limited variant the paper evaluates in Section 5.3, use
    :func:`repro.mining.registry.mine_with_budget` (registered driver
    :func:`repro.storage.projection.mine_hmine_with_memory_budget`).
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    flist = FList.from_database(db, min_support)
    engine = _HMineEngine(min_support, {i: flist.rank(i) for i in flist})
    entries: list[Entry] = [(tx, 0) for tx in build_hstruct(db, flist)]
    engine.mine(entries, ())
    if counters is not None:
        counters.tuple_scans += engine.tuple_scans + len(db)
        counters.item_visits += engine.item_visits + db.total_items()
        counters.projections += engine.projections
        counters.patterns_emitted += len(engine.result)
    return engine.result


def mine_hmine_suffixes(
    transactions: Sequence[tuple[int, ...]],
    min_support: int,
    prefix: tuple[int, ...],
    rank: dict[int, int],
    counters: CostCounters | None = None,
) -> PatternSet:
    """Mine pre-projected transactions for extensions of ``prefix``.

    Used by the memory-limited driver, which projects partitions to disk
    and mines each partition separately. ``transactions`` must already be
    sorted by ``rank``. Only proper extensions are emitted — the caller
    is responsible for the ``prefix`` pattern itself, whose support the
    projected list (empty suffixes dropped) cannot reconstruct.
    """
    engine = _HMineEngine(min_support, rank)
    engine.mine([(tx, 0) for tx in transactions if tx], prefix)
    if counters is not None:
        counters.tuple_scans += engine.tuple_scans
        counters.item_visits += engine.item_visits
        counters.projections += engine.projections
        counters.patterns_emitted += len(engine.result)
    return engine.result
