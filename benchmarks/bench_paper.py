"""The paper's tables and figures, regenerated into ``BENCH_paper.json``.

Runs the :mod:`repro.bench.experiments` function behind each paper
artifact once, prints its table, checks its expected shape and writes
every row to ``BENCH_paper.json`` at the repo root, tagged with an
``experiment`` key (the ``repro bench --experiment`` name where there
is one):

* ``table3`` — dataset properties and compression statistics;
* ``fig9`` .. ``fig20`` — runtime vs xi_new, baseline vs MCP/MLP
  recycling, per dataset and base miner;
* ``fig21`` .. ``fig24`` — memory-limited H-Mine vs HM-MCP, over the
  first three sweep supports (disk-spilling runs are slow), under
  budgets of 15% and 30% of the H-struct H-Mine builds at the highest
  of them, so every row spills;
* ``observations`` and ``two-step-<ds>`` — Section 5.2's Observation 1
  and the two-step cold start it motivates;
* ``ablation-strategies-<ds>`` and ``ablation-shortcut-<ds>`` — which
  patterns compress, and the Lemma 3.1 shortcut;
* ``projection-modes-connect4`` — parallel vs partition-based
  projection (Section 3.3);
* ``incremental-weather`` — FUP vs recycle-update vs scratch.

Every experiment checks its answers against the baseline as it runs;
the shape checks below run after it. A failed check prints ``FAIL:``
and the script exits 1 after writing the file. Columns ending ``_s``
and starting ``speedup`` or ``saving`` are wall-clock; every other
column is a count, a size or a ratio of them, and
``check_bench_current.py`` compares those with the committed file.

Run directly (not collected by pytest; tier-1 only collects ``tests/``)::

    PYTHONPATH=src python benchmarks/bench_paper.py
    python benchmarks/check_bench_current.py BENCH_paper.json
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.bench.experiments import (
    FIGURES,
    INCREMENTAL_CHURNS,
    MEMORY_FIGURES,
    ablation_single_group_shortcut,
    ablation_strategies,
    figure,
    incremental_rows,
    memory_limited_figure,
    observations,
    table3,
    two_step_cold_start,
)
from repro.bench.report import render_report
from repro.bench.workloads import prepare_workload
from repro.data.datasets import get_dataset
from repro.errors import BenchmarkError
from repro.storage.disk import SimulatedDisk
from repro.storage.memory import estimate_transactions_bytes
from repro.storage.projection import mine_hmine_with_memory_budget
from repro.trends import write_benchmark_snapshot

REPO_ROOT = Path(__file__).resolve().parents[1]
SEED = 0


def projection_modes(seed: int = 0):
    """Parallel vs partition-based projection on Connect-4 under a tight
    memory budget: CPU + simulated-transfer time, total bytes moved and
    peak disk residency."""
    workload = prepare_workload("connect4", seed)
    db = workload.db
    full_bytes = estimate_transactions_bytes(list(db.transactions), db.item_count())
    budget = max(1, int(full_bytes * 0.10))
    rows: list[list[object]] = []
    reference = None
    for relative in workload.spec.xi_new_sweep[:3]:
        absolute = workload.absolute_support(relative)
        for mode in ("parallel", "partition"):
            disk = SimulatedDisk()
            started = time.perf_counter()
            patterns = mine_hmine_with_memory_budget(
                db, absolute, budget, disk=disk, mode=mode
            )
            cpu = time.perf_counter() - started
            if reference is None or reference[0] != relative:
                reference = (relative, patterns)
            elif patterns != reference[1]:
                raise BenchmarkError(f"mode {mode} diverged at {relative}")
            rows.append(
                [
                    relative,
                    mode,
                    cpu + disk.simulated_seconds,
                    (disk.total_bytes_read + disk.total_bytes_written) / 2**20,
                    disk.peak_stored_bytes / 2**20,
                    len(patterns),
                ]
            )
    headers = ["xi_new", "mode", "time_s", "io_mb", "peak_disk_mb", "patterns"]
    return headers, rows


class Run:
    """The rows written so far and the shape checks that failed."""

    def __init__(self) -> None:
        self.results: list[dict[str, object]] = []
        self.failures: list[str] = []

    def table(self, experiment: str, title: str, headers, rows) -> list[list]:
        print(render_report(title, headers, rows))
        self.results.extend(
            {"experiment": experiment, **dict(zip(headers, row))} for row in rows
        )
        return rows

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)
            print(f"FAIL: {message}")


def check_figure(run: Run, number: int, rows) -> None:
    """Figs. 9-20: recycling tracks the baseline; MCP is at least as
    good as MLP."""
    run.check(len(rows) >= 3, f"fig{number}: fewer than 3 sweep points")
    # Supports relax monotonically and pattern counts grow with them.
    counts = [row[2] for row in rows]
    run.check(
        counts == sorted(counts),
        f"fig{number}: pattern count must grow as support drops",
    )
    # MCP never loses to MLP by more than noise; sub-second rows are
    # dominated by constant overheads and excluded from the comparison.
    for row in rows:
        if row[3] >= 0.5:
            run.check(
                row[4] <= row[5] * 2.0,
                f"fig{number}: MCP ({row[4]}s) much slower than MLP "
                f"({row[5]}s) at xi={row[0]}",
            )


def main() -> int:
    run = Run()

    rows = run.table(
        "table3",
        "Table 3 — datasets and compression statistics",
        *table3(SEED),
    )
    by_dataset: dict[str, dict[str, float]] = {}
    for row in rows:
        by_dataset.setdefault(str(row[0]), {})[str(row[7])] = float(row[10])
    for dataset, ratios in by_dataset.items():
        # Both strategies must actually compress.
        run.check(ratios["MCP"] < 1.0, f"{dataset}: MCP did not compress")
        run.check(ratios["MLP"] < 1.0, f"{dataset}: MLP did not compress")
        # MLP optimizes storage, so it never compresses worse than MCP
        # beyond a small tolerance (ties are common on dense data).
        run.check(
            ratios["MLP"] <= ratios["MCP"] + 0.05,
            f"{dataset}: MLP ratio {ratios['MLP']} worse than MCP {ratios['MCP']}",
        )

    for number, (dataset, _algorithm) in sorted(FIGURES.items()):
        rows = run.table(
            f"fig{number}", f"Figure {number} — {dataset}", *figure(number, SEED)
        )
        check_figure(run, number, rows)

    for number, dataset in sorted(MEMORY_FIGURES.items()):
        sweep = get_dataset(dataset).xi_new_sweep[:3]
        rows = run.table(
            f"fig{number}",
            f"Figure {number} — memory-limited {dataset}",
            *memory_limited_figure(number, SEED, (0.15, 0.30), sweep),
        )
        run.check(
            len(rows) == 2 * len(sweep), f"fig{number}: rows missing from the sweep"
        )
        for row in rows:
            # Every row must mine under memory pressure: H-Mine spills.
            run.check(
                row[3] > 0,
                f"fig{number}: H-Mine did not spill at xi={row[0]}, "
                f"budget={row[1]}",
            )
            # The recycling miner must not move more bytes than the baseline.
            run.check(
                row[5] <= row[3] * 1.05,
                f"fig{number}: HM-MCP moved more I/O than H-Mine at "
                f"xi={row[0]}, budget={row[1]}",
            )

    rows = run.table(
        "observations", "Observation 1 — saving vs investment", *observations(SEED)
    )
    for row in rows:
        if row[0] in ("connect4", "pumsb"):
            # On dense data the saving must clearly repay the investment.
            run.check(
                row[7] > 1.0,
                f"{row[0]}: saving/investment = {row[7]} — recycling did not "
                "pay off",
            )

    for dataset in ("connect4", "pumsb"):
        rows = run.table(
            f"two-step-{dataset}",
            f"Two-step cold start — {dataset}",
            *two_step_cold_start(dataset, SEED),
        )
        direct_total = rows[0][4]
        two_step_total = rows[1][4]
        run.check(
            rows[0][5] == rows[1][5],
            f"{dataset}: both plans must find the same patterns",
        )
        run.check(
            two_step_total < direct_total,
            f"{dataset}: two-step ({two_step_total}s) should beat direct "
            f"({direct_total}s) on dense data",
        )

    for dataset in ("weather", "connect4"):
        rows = run.table(
            f"ablation-strategies-{dataset}",
            f"Ablation — compression strategies on {dataset}",
            *ablation_strategies(dataset, SEED),
        )
        by_name = {row[0]: row for row in rows}
        run.check(
            set(by_name) == {"mcp", "mlp", "arrival", "random"},
            f"{dataset}: strategies {sorted(by_name)}",
        )
        # Every strategy yields the same patterns (checked inside), and
        # the principled strategies must compress no worse than random.
        for name in ("mcp", "mlp"):
            run.check(
                by_name[name][1] <= by_name["random"][1] + 0.05,
                f"{dataset}: {name} compressed worse than random order",
            )

    for dataset in ("connect4", "pumsb"):
        rows = run.table(
            f"ablation-shortcut-{dataset}",
            f"Ablation — Lemma 3.1 shortcut on {dataset}",
            *ablation_single_group_shortcut(dataset, SEED),
        )
        for row in rows:
            # The shortcut must actually fire on dense data, and disabling
            # it must force at least as many projected databases.
            run.check(row[3] > 0, f"{dataset}: shortcut never fired at xi={row[0]}")
            run.check(
                row[5] >= row[4],
                f"{dataset}: disabling the shortcut built fewer projections "
                f"at xi={row[0]}",
            )

    rows = run.table(
        "projection-modes-connect4",
        "Projection modes — parallel vs partition (connect4)",
        *projection_modes(SEED),
    )
    by_key = {(row[0], row[1]): row for row in rows}
    for relative in {row[0] for row in rows}:
        # The paper's trade-off: partition-based needs less peak disk.
        run.check(
            by_key[(relative, "partition")][4] <= by_key[(relative, "parallel")][4],
            f"peak disk claim failed at {relative}",
        )

    incremental = incremental_rows("weather", SEED)
    headers = list(incremental[0])
    rows = run.table(
        "incremental-weather",
        "Incremental update — FUP vs recycle-update vs scratch",
        headers,
        [[row[name] for name in headers] for row in incremental],
    )
    run.check(
        len(rows) == len(INCREMENTAL_CHURNS), "incremental: a churn level is missing"
    )
    # Every row's winner is one of the verified contenders.
    run.check(
        all(row["winner"] in ("scratch", "fup", "recycle") for row in incremental),
        "incremental: a winner is not a verified contender",
    )

    path = write_benchmark_snapshot(
        "paper", {"seed": SEED, "results": run.results}, repo_root=REPO_ROOT
    )
    print(f"wrote {path}")
    if run.failures:
        print(f"{len(run.failures)} shape check(s) failed")
        return 1
    print("every shape check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
