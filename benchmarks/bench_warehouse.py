"""Warehouse footprint before/after condensation on the dense datasets.

One table per dataset, one row per pattern representation (``full``,
``closed``), every run replaying the same interleaved
multi-tenant sweep against an identically budgeted warehouse
(:data:`~repro.bench.experiments.DEFAULT_WAREHOUSE_BUDGET`). The budget
is the whole experiment: it is sized so a dense dataset's condensed
entries all fit while its full-set entries are too large to bank, so the
``full`` row shows what the service loses when every entry bounces off
the budget (warm-path hit rate collapses to the coalescing floor) and
the ``closed`` row shows the same workload served almost entirely warm
from entries 10-50x smaller.

Pumsb rides along as the negative control: its surrogate's supports are
all distinct (probabilistic correlation, no deterministic implications),
so closure collapses nothing — the run shows condensation ratio 1.0 and
identical hit rates across representations at a budget everything fits,
i.e. condensing costs nothing when there is nothing to collapse.

Every response is checked bit-identical to a cold from-scratch mine
inside :func:`~repro.bench.experiments.warehouse_rows` before it counts.
Two acceptance bars are asserted on connect4 — the dataset whose exact
support ties (board-gravity implications) condensation feeds on:

* closed entries condense the stored footprint >= 10x, and
* the closed warm-path hit rate strictly beats the full-set one.

Results go to ``BENCH_warehouse.json`` at the repo root;
``repro report render`` and ``repro report gate`` read its committed
versions out of git.

Run directly (not collected by pytest; tier-1 only collects ``tests/``)::

    PYTHONPATH=src python benchmarks/bench_warehouse.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.bench.experiments import DEFAULT_WAREHOUSE_BUDGET, warehouse_rows
from repro.trends import write_benchmark_snapshot

REPO_ROOT = Path(__file__).resolve().parents[1]
#: The dense surrogates and their budgets. Connect-4 runs at the tight
#: default where the budget separates the representations; pumsb (the
#: no-exact-ties control) runs at a budget everything fits, since no
#: budget can separate representations of identical size. The sparse
#: datasets' short-pattern warehouses are covered by the service bench.
DATASETS = {
    "connect4": DEFAULT_WAREHOUSE_BUDGET,
    "pumsb": 1024 * 1024,
}
SEED = 0


def main() -> int:
    results = []
    for dataset, byte_budget in DATASETS.items():
        rows = warehouse_rows(dataset, SEED, byte_budget=byte_budget)
        for row in rows:
            results.append(row)
            print(
                f"{dataset:>9} {row['representation']:<6} "
                f"warm {row['warm_hits']:>2}/{row['requests']}  "
                f"entries {row['entries']}  "
                f"stored {row['stored_bytes']:>7}B  "
                f"per-entry {row['bytes_per_entry']:>8}B  "
                f"ratio {row['condensation_ratio']:>6.2f}x  "
                f"rejections {row['rejections']}"
            )

    by_repr = {
        row["representation"]: row
        for row in results
        if row["dataset"] == "connect4"
    }
    shrink = by_repr["closed"]["condensation_ratio"]
    print(f"connect4 closed condensation: {shrink:.2f}x")
    if shrink < 10.0:
        print("WARNING: below the 10x condensation acceptance bar")
    if by_repr["closed"]["warm_hit_rate"] <= by_repr["full"]["warm_hit_rate"]:
        print("WARNING: condensed entries did not improve warm-path hit rate")

    path = write_benchmark_snapshot(
        "warehouse",
        {
            "seed": SEED,
            "byte_budgets": DATASETS,
            "results": results,
        },
        repo_root=REPO_ROOT,
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
