"""Update-path economics on the dense acceptance dataset.

Replays the churn sweep of
:func:`repro.bench.experiments.incremental_rows` on connect4 — the
dense surrogate the figures gate on — plus weather as the sparse
control, and writes ``BENCH_incremental.json`` at the repo root (``repro report
render`` and ``repro report gate`` read its committed versions out of git):

* per-churn work and wall for scratch / FUP / recycle-update, every
  contender verified bit-identical to a from-scratch re-mine;
* the **crossover churn**: the smallest swept delta at which scratch
  re-mining wins on machine-independent work (``null`` when the update
  path won the whole sweep — recorded honestly either way);
* the service **update-path hit rate**: how often a warehoused chain
  ancestor actually served the post-delta request on the ``update``
  path.

Acceptance (warned on, gated in CI alongside the figure benches): the
update path must beat the cold re-mine on work for the smallest connect4
delta, and every swept request must have been served via the update
path.

Run directly (not collected by pytest; tier-1 only collects ``tests/``)::

    PYTHONPATH=src python benchmarks/bench_incremental.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.bench.experiments import incremental_crossover, incremental_rows
from repro.trends import write_benchmark_snapshot

REPO_ROOT = Path(__file__).resolve().parents[1]
DATASETS = ("connect4", "weather")
SEED = 0


def main() -> int:
    results = []
    crossovers: dict[str, float | None] = {}
    for dataset in DATASETS:
        rows = incremental_rows(dataset, SEED)
        crossovers[dataset] = incremental_crossover(rows)
        for row in rows:
            results.append(row)
            fup = row["fup_work"] if row["fup_work"] is not None else "n/a"
            print(
                f"{dataset:>9} churn {row['churn']:<5} "
                f"scratch {row['scratch_work']:>10}  "
                f"fup {fup:>10}  "
                f"recycle {row['recycle_work']:>10}  "
                f"winner {row['winner']:<8} "
                f"update {row['update_path_hits']}/{row['update_path_requests']}"
            )

    connect4 = sorted(
        (row for row in results if row["dataset"] == "connect4"),
        key=lambda row: row["churn"],
    )
    smallest = connect4[0]
    update_works = [
        work
        for work in (smallest["fup_work"], smallest["recycle_work"])
        if work is not None
    ]
    if min(update_works) >= smallest["scratch_work"]:
        print(
            "WARNING: update path did not beat cold re-mine on work for "
            f"the smallest connect4 delta (churn {smallest['churn']})"
        )
    missed = [
        row
        for row in results
        if row["update_path_hits"] != row["update_path_requests"]
    ]
    if missed:
        print(f"WARNING: {len(missed)} swept request(s) missed the update path")
    for dataset, crossover in crossovers.items():
        print(
            f"{dataset} work crossover: "
            + (f"scratch wins from churn {crossover}" if crossover is not None
               else "update path won the whole sweep")
        )

    path = write_benchmark_snapshot(
        "incremental",
        {
            "seed": SEED,
            "datasets": list(DATASETS),
            "crossover_churn": crossovers,
            "results": results,
        },
        repo_root=REPO_ROOT,
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
