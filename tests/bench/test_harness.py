"""Tests for the benchmark harness (runner, workloads, experiment dispatch).

Experiment functions run full sweeps over the calibrated datasets, which
is benchmark territory; here they are exercised on a tiny custom sweep
(or the micro Quest workload) so the tests stay fast while still
covering row shapes and the built-in consistency checks.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import (
    FIGURES,
    MEMORY_FIGURES,
    figure_series,
    memory_limited_figure,
    parallel_speedup_rows,
    run_experiment,
    service_benchmark,
    service_load_rows,
    table3,
    two_step_cold_start,
)
from repro.bench.runner import run_baseline, run_recycling, speedup, timed
from repro.bench.workloads import prepare_workload
from repro.errors import BenchmarkError
from repro.mining.patterns import PatternSet


class TestRunner:
    def test_timed_returns_patterns_and_counters(self, paper_db):
        run = timed("x", lambda counters: PatternSet({frozenset({1}): 2}))
        assert run.label == "x"
        assert run.pattern_count == 1
        assert run.seconds >= 0

    def test_run_baseline(self, paper_db):
        run = run_baseline("hmine", paper_db, 2)
        assert run.pattern_count > 0
        assert run.counters.patterns_emitted == run.pattern_count

    def test_unknown_baseline_rejected(self, paper_db):
        with pytest.raises(BenchmarkError, match="unknown baseline"):
            run_baseline("quantum", paper_db, 2)

    def test_run_recycling(self, paper_db, paper_old_patterns):
        from repro.core.compression import compress

        compressed = compress(paper_db, paper_old_patterns, "mcp").compressed
        run = run_recycling("hmine", compressed, 2, "mcp")
        assert run.label == "hmine-mcp"
        baseline = run_baseline("hmine", paper_db, 2)
        assert run.patterns == baseline.patterns

    def test_speedup(self):
        fast = timed("f", lambda c: PatternSet())
        slow_run = type(fast)("s", fast.seconds * 2 + 1.0, fast.patterns, fast.counters)
        assert speedup(slow_run, fast) > 1


class TestWorkloads:
    def test_prepare_workload_cached(self):
        first = prepare_workload("connect4")
        second = prepare_workload("connect4")
        assert first is second

    def test_workload_contents(self):
        workload = prepare_workload("connect4")
        assert workload.name == "connect4"
        assert len(workload.old_patterns) > 0
        assert set(workload.compressions) == {"mcp", "mlp"}
        assert workload.absolute_support(0.5) == len(workload.db) // 2
        assert len(workload.sweep_absolute()) == len(workload.spec.xi_new_sweep)


class TestExperimentShapes:
    def test_figure_map_covers_paper(self):
        assert sorted(FIGURES) == list(range(9, 21))
        assert sorted(MEMORY_FIGURES) == list(range(21, 25))

    def test_figure_series_tiny_sweep(self):
        headers, rows = figure_series("connect4", "hmine", sweep=(0.93,))
        assert len(rows) == 1
        assert len(headers) == len(rows[0])
        assert rows[0][0] == 0.93
        assert rows[0][6] > 0  # speedup_mcp computed

    def test_memory_figure_tiny_sweep(self):
        headers, rows = memory_limited_figure(
            "connect4", budget_fractions=(0.2,), sweep=(0.93,)
        )
        assert len(rows) == 1
        assert len(headers) == len(rows[0])

    def test_table3_shape(self):
        headers, rows = table3()
        assert len(rows) == 8  # 4 datasets x 2 strategies
        assert headers[0] == "dataset"
        for row in rows:
            assert 0 < row[-1] <= 1  # compression ratio

    def test_two_step_shape(self):
        headers, rows = two_step_cold_start("connect4")
        assert [row[0] for row in rows] == ["direct", "two-step"]
        assert rows[0][5] == rows[1][5]

    def test_parallel_rows_carry_the_serving_serial_baseline(self, monkeypatch):
        import repro.core.planner as planner

        planned: list[str] = []
        real = planner.execute_plan

        def spy(plan, *args, **kwargs):
            planned.append(plan.path)
            return real(plan, *args, **kwargs)

        monkeypatch.setattr(planner, "execute_plan", spy)
        rows = parallel_speedup_rows(
            "connect4", jobs_grid=(1, 2), task="recycle", executor="inline"
        )
        assert [row["jobs"] for row in rows] == [1, 2]
        assert all(row["identical"] for row in rows)
        # One serial run of what the service runs, a cold mine even for
        # the recycle task, repeated on each row.
        assert planned == ["mine"]
        assert len({row["serving_serial_seconds"] for row in rows}) == 1
        assert rows[0]["serving_serial_seconds"] > 0

    def test_run_experiment_dispatch_unknown(self):
        with pytest.raises(BenchmarkError, match="unknown figure"):
            run_experiment("fig99")
        with pytest.raises(BenchmarkError, match="unknown experiment"):
            run_experiment("nonsense")

    def test_service_load_smoke(self):
        """Tiny-scale gateway load bench: the acceptance signals must
        already show at smoke scale — batching reduces work and
        computations, admission bounds the queue, nothing goes missing."""
        rows = service_load_rows(
            "connect4",
            requests=12,
            tenants=3,
            burst_length=4,
            queue_depth=4,
            pumps_per_burst=2,
            sweep=(0.93, 0.91),
        )
        by_scenario = {row["scenario"]: row for row in rows}
        assert set(by_scenario) == {
            "per-request", "batched", "no-admission", "admission",
        }
        assert (
            by_scenario["batched"]["total_work"]
            < by_scenario["per-request"]["total_work"]
        )
        assert (
            by_scenario["batched"]["computations"]
            < by_scenario["per-request"]["computations"]
        )
        assert by_scenario["admission"]["queue_high_water"] <= 4
        assert by_scenario["no-admission"]["queue_high_water"] > 4
        for row in rows:
            accounted = (
                row["served"] + row["shed"] + row["rejected"] + row["expired"]
            )
            assert accounted == row["requests"] == 12

    def test_service_load_dispatch(self, monkeypatch):
        """``service-load-<ds>`` must route past the ``service-`` prefix
        to the load benchmark (full-scale runs are bench territory)."""
        import repro.bench.experiments as experiments

        seen = {}

        def fake_rows(dataset, seed=0, **kwargs):
            seen["dataset"] = dataset
            return [
                {
                    "scenario": "per-request",
                    "served": 0,
                    "shed": 0,
                    "rejected": 0,
                    "computations": 0,
                    "merged_batches": 0,
                    "queue_high_water": 0,
                    "total_work": 0,
                    "work_per_served": 0.0,
                    "interactive_p99_work": 0.0,
                    "interactive_p99_s": 0.0,
                    "elapsed_seconds": 0.0,
                }
            ]

        monkeypatch.setattr(experiments, "service_load_rows", fake_rows)
        headers, rows = run_experiment("service-load-connect4", seed=0)
        assert seen["dataset"] == "connect4"
        assert headers[0] == "scenario"
        assert rows[0][0] == "per-request"

    def test_service_benchmark_warm_beats_cold(self):
        headers, rows = service_benchmark("connect4", tenants=2, sweep=(0.93, 0.91))
        assert headers[0] == "tenant"
        body, total = rows[:-1], rows[-1]
        assert total[0] == "TOTAL"
        warm_column = headers.index("work_warm")
        cold_column = headers.index("work_cold")
        # The acceptance claim: warm-warehouse requests are cheaper than
        # cold mining on total_work — per request and in aggregate.
        for row in body:
            assert row[warm_column] <= row[cold_column]
        assert total[warm_column] < total[cold_column]
        # The first request mines; every later tenant at the same support
        # is a filter hit off the warehouse.
        paths = [row[3] for row in body]
        assert paths[0] == "mine"
        assert "filter" in paths
