"""Speedup-vs-jobs curves for the sharded parallel engine.

Two curves per dataset, jobs in {1, 2, 4}:

* ``recycle`` — the warm path at native dataset size: Phase 1
  compression once in the driver, shard workers running the planner
  trichotomy over atomic pattern groups, exact merge recount.
* ``mine`` — the cold path on a replicated database (``SCALES`` below),
  sized so the row-dependent mining cost dominates Python's per-pattern
  constants — the regime the paper's full-size datasets (30-60x these
  surrogates) live in.  At native size a 375-row shard costs nearly as
  much as the full database and partitioning cannot pay on any host.

Every row asserts the parallel result is bit-identical to the serial
``jobs=1`` run before reporting a speedup.  On hosts with fewer CPUs
than jobs the engine is driven through the inline executor and speedup
is computed on the critical path (Phase 1 + slowest shard + merge):
concurrent workers timesharing one core would inflate each worker's
wall-clock by the contention factor, making per-shard timings — and any
wall-clock ratio — meaningless.  The ``speedup_basis`` and ``cpus``
fields record which basis each row used.

Each row also records ``serving_serial_seconds``: one serial run of what
the service runs on the same input and support, a cold ``eclat-bitset``
mine for either task (the service never recycles).
It is the number a sharded run must beat to be worth serving; the
service answers every request in-process because none does.

Results go to ``BENCH_parallel.json`` at the repo root; ``repro report
render`` and ``repro report gate`` read its committed versions out of git.

Run directly (not collected by pytest; tier-1 only collects ``tests/``)::

    PYTHONPATH=src python benchmarks/bench_parallel.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from repro.bench.experiments import parallel_speedup_rows
from repro.trends import write_benchmark_snapshot

REPO_ROOT = Path(__file__).resolve().parents[1]
DATASETS = ("weather", "forest", "connect4", "pumsb")
#: Replication factor for the cold scratch-mine curve, chosen so the
#: serial leg stays in single-digit-to-low-double-digit seconds.
SCALES = {"weather": 2, "forest": 4, "connect4": 4, "pumsb": 2}
SEED = 0
JOBS = (1, 2, 4)


def main() -> int:
    results = []
    for dataset in DATASETS:
        for task, scale in (("recycle", 1), ("mine", SCALES[dataset])):
            rows = parallel_speedup_rows(
                dataset, SEED, jobs_grid=JOBS, task=task, scale=scale
            )
            for row in rows:
                assert row["identical"], f"{dataset}/{task} diverged"
                results.append(row)
                print(
                    f"{dataset:>9} {task:<7} x{row['scale']} "
                    f"jobs={row['jobs']} shards={row['shards']} "
                    f"wall {row['wall_seconds']:7.3f}s  "
                    f"critical {row['critical_path_seconds']:7.3f}s  "
                    f"serving serial {row['serving_serial_seconds']:7.3f}s  "
                    f"speedup {row['speedup']:.2f}x ({row['speedup_basis']})"
                )

    best_dense = max(
        row["speedup"]
        for row in results
        if row["dataset"] in ("connect4", "pumsb") and row["jobs"] == 4
    )
    print(f"best dense jobs=4 speedup: {best_dense:.2f}x")
    if best_dense < 1.7:
        print("WARNING: below the 1.7x acceptance bar on dense datasets")

    path = write_benchmark_snapshot(
        "parallel",
        {
            "seed": SEED,
            "jobs_grid": list(JOBS),
            "cpus": os.cpu_count() or 1,
            "results": results,
        },
        repo_root=REPO_ROOT,
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
