"""Gateway load bench: throughput and tail latency, admission on vs off.

One seeded heavy-traffic trace (Zipfian tenant popularity, support-ladder
sessions, burst arrivals — :func:`repro.gateway.synthesize_traffic`) is
replayed through four gateway configurations per dataset
(:data:`~repro.bench.experiments.SERVICE_LOAD_SCENARIOS`):

* ``per-request`` vs ``batched`` — identical FIFO arrival order, the
  only difference is cross-request batching. The delta is batching's
  amortization: one mine at the burst-minimum support serves the whole
  compatible cohort via ``filter_min_support``.
* ``no-admission`` vs ``admission`` — bursts arrive faster than the
  gateway pumps, so a backlog builds. The naive front end (FIFO,
  unbounded) lets interactive traffic drown; the gateway (priority
  lanes, bounded depth, load shedding) keeps its tail latency down by
  refusing the work that matters least.

Acceptance bars, asserted on connect4 over **machine-independent work
counters** (wall-clock columns are advisory — shared CI runners are not
clocks):

* batching strictly reduces total work vs per-request serving, with
  strictly fewer service computations;
* the admission run's queue depth never exceeds its bound while the
  no-admission high-water mark does;
* the admission run's interactive (high-priority) p99 work-position
  latency strictly beats the no-admission run's;
* nothing is lost silently: served + shed + rejected + expired accounts
  for every submitted request, and every served response was verified
  bit-identical to a cold from-scratch mine inside
  :func:`~repro.bench.experiments.service_load_rows`.

Results go to ``BENCH_service_load.json`` at the repo root;
``repro report render`` and ``repro report gate`` read its committed
versions out of git.

Run directly (not collected by pytest; tier-1 only collects ``tests/``)::

    PYTHONPATH=src python benchmarks/bench_service_load.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.bench.experiments import SERVICE_LOAD_QUEUE_DEPTH, service_load_rows
from repro.trends import write_benchmark_snapshot

REPO_ROOT = Path(__file__).resolve().parents[1]
#: Connect-4 carries the acceptance bars: dense, deep patterns — the
#: regime where one shared mine is worth the most. The sparse datasets'
#: cold per-request scenario would dominate the bench's runtime without
#: sharpening any of the comparisons, so they stay with the service and
#: warehouse benches.
DATASETS = ("connect4",)
SEED = 0


def main() -> int:
    results = []
    for dataset in DATASETS:
        rows = service_load_rows(dataset, SEED)
        for row in rows:
            results.append(row)
            print(
                f"{dataset:>9} {row['scenario']:<13} "
                f"served {row['served']:>2}/{row['requests']}  "
                f"shed {row['shed']:>2}  rejected {row['rejected']:>2}  "
                f"computations {row['computations']:>2}  "
                f"queue HWM {row['queue_high_water']:>2}  "
                f"work {row['total_work']:>10}  "
                f"int p99 work {row['interactive_p99_work']:>10.0f}  "
                f"(wall p99 {row['interactive_p99_s']:.3f}s advisory)"
            )

    by_scenario = {
        row["scenario"]: row
        for row in results
        if row["dataset"] == "connect4"
    }
    ok = True

    batched = by_scenario["batched"]
    per_request = by_scenario["per-request"]
    if not batched["total_work"] < per_request["total_work"]:
        ok = False
        print("FAIL: batching did not reduce total work vs per-request")
    if not batched["computations"] < per_request["computations"]:
        ok = False
        print("FAIL: batching did not reduce service computations")

    admission = by_scenario["admission"]
    no_admission = by_scenario["no-admission"]
    bound = SERVICE_LOAD_QUEUE_DEPTH
    if admission["queue_high_water"] > bound:
        ok = False
        print("FAIL: admission queue depth exceeded its bound")
    if no_admission["queue_high_water"] <= bound:
        ok = False
        print(
            "FAIL: no-admission backlog never exceeded the bound — "
            "the comparison is vacuous"
        )
    if not (
        admission["interactive_p99_work"]
        < no_admission["interactive_p99_work"]
    ):
        ok = False
        print(
            "FAIL: admission control did not improve interactive p99 "
            "(work basis)"
        )
    for row in results:
        accounted = (
            row["served"] + row["shed"] + row["rejected"] + row["expired"]
        )
        if accounted != row["requests"]:
            ok = False
            print(
                f"FAIL: {row['dataset']} [{row['scenario']}] lost requests "
                f"({accounted}/{row['requests']} accounted)"
            )

    path = write_benchmark_snapshot(
        "service_load",
        {"seed": SEED, "datasets": list(DATASETS), "results": results},
        repo_root=REPO_ROOT,
    )
    print(f"wrote {path}")
    if ok:
        print(
            "acceptance: batching reduces work; admission bounds the queue "
            "and beats no-admission interactive p99 (work basis)"
        )
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
