"""Garbage collection over chain records.

Two collectors keep the durable footprint bounded:

* **Reachability prune** — a chain record exists so a restarted service
  can rebuild a version chain down to warehoused feedstock at an
  ancestor. When *no* version above the record's child — reached
  through chain records — still holds a warehouse entry, because the
  LRU evicted it or quarantine ate it, the record can serve nothing and
  is dropped. This is what makes eviction
  *lineage-aware*: a long dead tail behind the newest warehoused version
  collapses to nothing instead of growing one file per delta forever.

* **Chain compaction** — when a live child reaches its nearest
  warehoused ancestor through a run of intermediate hops none of which
  is warehoused, the run is collapsed into one composed record
  (:func:`~repro.durability.chains.compose_records`) spanning straight
  to that ancestor. The intermediate versions keep their *own* records
  (a request at that exact version can still restore), but the child no
  longer pays one restore step per historical delta.

Planning is pure (:func:`plan_gc` touches no disk), so ``--dry-run``
reports exactly what a real run would do; the store applies a plan
composed records first, drops last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Collection, Mapping

from repro.durability.chains import ChainRecord, compose_records


@dataclass(frozen=True)
class GCPlan:
    """What one garbage-collection pass would change.

    ``dropped`` are children whose chain record reaches no warehoused
    ancestor; ``rewrites`` maps a child to the composed record spanning
    straight to its nearest warehoused ancestor; ``collapsed_hops``
    counts the hops removed by composition.
    """

    dropped: tuple[str, ...] = ()
    rewrites: dict[str, ChainRecord] = field(default_factory=dict)
    collapsed_hops: int = 0

    @property
    def is_empty(self) -> bool:
        return not self.dropped and not self.rewrites


@dataclass(frozen=True)
class GCReport:
    """The outcome of one pass, dry or real — what the stats gauges sum."""

    dropped_chains: int
    collapsed_hops: int
    rewritten_chains: int
    dry_run: bool


def plan_gc(
    chains: Mapping[str, ChainRecord], warehoused: Collection[str]
) -> GCPlan:
    """Plan one GC pass; pure function of the chain records.

    ``warehoused`` is the set of fingerprints holding at least one
    warehouse entry at any support.
    """
    alive = set(warehoused)
    dropped: list[str] = []
    rewrites: dict[str, ChainRecord] = {}
    collapsed = 0
    for child in sorted(chains):
        run = _run_to_warehoused(child, chains, alive)
        if run is None:
            dropped.append(child)
        elif len(run) > 1:
            rewrites[child] = reduce(compose_records, run)
            collapsed += len(run) - 1
    return GCPlan(
        dropped=tuple(dropped), rewrites=rewrites, collapsed_hops=collapsed
    )


def _run_to_warehoused(
    child: str, chains: Mapping[str, ChainRecord], alive: set[str]
) -> list[ChainRecord] | None:
    """The records from ``child`` up to its nearest warehoused ancestor,
    child's first; ``None`` when the walk ends (a missing record or a
    cycle in stale files) before reaching one."""
    run: list[ChainRecord] = []
    seen = {child}
    record = chains.get(child)
    while record is not None:
        run.append(record)
        if record.parent in seen:
            return None
        if record.parent in alive:
            return run
        seen.add(record.parent)
        record = chains.get(record.parent)
    return None
