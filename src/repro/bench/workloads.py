"""Workload plumbing shared by all experiments.

A *workload* is a dataset spec plus everything derived from it that the
experiments reuse: the materialized database, the patterns mined at
``xi_old`` (the recycling feedstock) and the compressed databases under
each strategy. Construction is cached per (dataset, seed) because every
figure for a dataset shares them — exactly like the paper, which
compresses once per dataset (Table 3) and reuses the result in
Figures 9–24.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

from repro.core.compression import CompressionResult, compress
from repro.data.datasets import DatasetSpec, get_dataset
from repro.data.transactions import TransactionDatabase, absolute_support
from repro.mining.hmine import mine_hmine
from repro.mining.patterns import PatternSet


@dataclass(frozen=True)
class Workload:
    """A dataset prepared for recycling experiments."""

    spec: DatasetSpec
    db: TransactionDatabase
    xi_old_absolute: int
    old_patterns: PatternSet
    old_mining_seconds: float
    compressions: dict[str, CompressionResult]

    @property
    def name(self) -> str:
        return self.spec.name

    def absolute_support(self, relative: float) -> int:
        """The absolute threshold a relative support means over this
        database, by the library's support rule."""
        return absolute_support(relative, len(self.db))


@lru_cache(maxsize=None)
def prepare_workload(dataset: str, seed: int = 0) -> Workload:
    """Load a dataset, mine at ``xi_old`` and compress under each strategy."""
    spec = get_dataset(dataset)
    db = spec.load(seed)
    xi_old = absolute_support(spec.xi_old, len(db))
    started = time.perf_counter()
    old_patterns = mine_hmine(db, xi_old)
    old_seconds = time.perf_counter() - started
    compressions = {
        strategy: compress(db, old_patterns, strategy) for strategy in ("mcp", "mlp")
    }
    return Workload(
        spec=spec,
        db=db,
        xi_old_absolute=xi_old,
        old_patterns=old_patterns,
        old_mining_seconds=old_seconds,
        compressions=compressions,
    )
