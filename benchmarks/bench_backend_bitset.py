"""One-shot record of the bitmap kernels, and of python loops against them.

* eclat mining, on the dense datasets (where vertical bitmaps pay
  off) — ``mine_eclat_bitset`` (one ``&`` + ``bit_count()`` per
  candidate). The row records its wall time, its
  ``tidset_intersections`` (a machine-independent count) and
  ``bitset_python_calls``, the interpreter calls of one run as cProfile
  counts them (also machine-independent: it moves only when the
  search's code does);
* grouped mining, on *all* datasets — the shared Phase 2 group kernel
  (``mine_grouped``) over the MCP-compressed database at the middle
  sweep ``xi_new``. The kernel picks its engine from its input: the
  compressed database runs the member-mask bitmaps, and the same
  groups passed bare (``list(compressed.groups)``) run the python
  tail-scans. Both must stay bit-identical everywhere.

The grouped comparison asserts the results are bit-identical before
reporting the speedup. Results go to ``BENCH_backends.json`` at the repo
root; ``repro report render`` and ``repro report gate`` read its committed
versions out of git.

Run directly (not collected by pytest; tier-1 only collects ``tests/``)::

    PYTHONPATH=src python benchmarks/bench_backend_bitset.py
"""

from __future__ import annotations

import cProfile
import math
import pstats
import sys
import time
from pathlib import Path

from repro.core.compression import compress
from repro.data.datasets import DATASETS
from repro.metrics.counters import CostCounters
from repro.mining.eclat import mine_eclat_bitset
from repro.mining.hmine import mine_hmine
from repro.storage.projection import mine_grouped
from repro.trends import write_benchmark_snapshot

REPO_ROOT = Path(__file__).resolve().parents[1]
ALL_DATASETS = list(DATASETS.values())
REPEATS = 3
SEED = 0


def best_of(fn, *args, **kwargs):
    """(best wall-clock seconds over REPEATS runs, last result)."""
    best = math.inf
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - started)
    return best, result


def intersections(mine, db, support: int) -> int:
    counters = CostCounters()
    mine(db, support, counters)
    return counters.as_dict()["tidset_intersections"]


def python_calls(mine, db, support: int) -> int:
    """cProfile's ``total_calls`` for one ``mine`` run, counters on."""
    profile = cProfile.Profile()
    profile.runcall(mine, db, support, CostCounters())
    return pstats.Stats(profile).total_calls


def bench_eclat(db, support: int) -> dict:
    bitset_s, bitset_patterns = best_of(mine_eclat_bitset, db, support)
    return {
        "task": "eclat",
        "min_support": support,
        "patterns": len(bitset_patterns),
        "bitset_tidset_intersections": intersections(mine_eclat_bitset, db, support),
        "bitset_python_calls": python_calls(mine_eclat_bitset, db, support),
        "bitset_seconds": round(bitset_s, 4),
    }


def bench_grouped(compressed, support: int) -> dict:
    python_s, python_patterns = best_of(
        mine_grouped, list(compressed.groups), support
    )
    bitset_s, bitset_patterns = best_of(mine_grouped, compressed, support)
    assert python_patterns == bitset_patterns, "engines disagree on patterns"
    return {
        "task": "grouped",
        "min_support": support,
        "groups": len(compressed.groups),
        "patterns": len(python_patterns),
        "python_seconds": round(python_s, 4),
        "bitset_seconds": round(bitset_s, 4),
        "speedup": round(python_s / bitset_s, 2),
        "identical": True,
    }


def main() -> int:
    results = []
    for spec in ALL_DATASETS:
        db = spec.load(SEED)
        xi_old = db.relative_to_absolute(spec.xi_old)
        xi_new = db.relative_to_absolute(spec.xi_new_sweep[len(spec.xi_new_sweep) // 2])
        # The encoded index is built once per database and shared by every
        # bitset consumer; warm it outside the timed region but report its
        # one-off cost alongside the per-call numbers.
        started = time.perf_counter()
        db.encoded()
        encode_seconds = time.perf_counter() - started

        old_patterns = mine_hmine(db, xi_old)
        compressed = compress(db, old_patterns, "mcp").compressed
        tasks = ([bench_eclat(db, xi_new)] if spec.dense else []) + [
            bench_grouped(compressed, xi_new)
        ]
        for row in tasks:
            row = {
                "dataset": spec.name,
                "transactions": len(db),
                "encode_seconds": round(encode_seconds, 4),
                **row,
            }
            results.append(row)
            line = f"{spec.name:>9} {row['task']:<11} "
            if "python_seconds" in row:
                line += f"python {row['python_seconds']:.3f}s  "
            line += f"bitset {row['bitset_seconds']:.3f}s"
            if "speedup" in row:
                line += f"  speedup {row['speedup']:.2f}x"
            print(line)

    path = write_benchmark_snapshot(
        "backends",
        {"repeats": REPEATS, "seed": SEED, "results": results},
        repo_root=REPO_ROOT,
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
