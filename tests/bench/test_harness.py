"""Tests for the benchmark harness (runner, workloads, experiment dispatch).

Experiment functions run full sweeps over the calibrated datasets, which
is benchmark territory; here they are exercised on a dataset whose sweep
is cut to one or two points (or on the paper's example database) so the
tests stay fast while still covering row shapes and the built-in
consistency checks.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.bench.experiments as experiments
from repro.bench.experiments import (
    EXPERIMENT_FAMILIES,
    FIGURES,
    MEMORY_FIGURES,
    figure_series,
    memory_limited_figure,
    parallel_speedup_rows,
    run_experiment,
    service_load_rows,
    table3,
    two_step_cold_start,
)
from repro.bench.runner import run_baseline, run_recycling, speedup, timed
from repro.bench.workloads import Workload, prepare_workload
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
        # The library's support rule: a fraction rounds up.
        assert workload.absolute_support(0.5) == len(workload.db) // 2
        assert workload.absolute_support(0.9999) == len(workload.db)


class TestExperimentShapes:
    def test_figure_map_covers_paper(self):
        assert sorted(FIGURES) == list(range(9, 21))
        assert sorted(MEMORY_FIGURES) == list(range(21, 25))

    def test_figure_series_tiny_sweep(self, monkeypatch):
        workload = prepare_workload("connect4")
        tiny = dataclasses.replace(
            workload, spec=dataclasses.replace(workload.spec, xi_new_sweep=(0.93,))
        )
        monkeypatch.setattr(experiments, "prepare_workload", lambda *a, **k: tiny)
        headers, rows = figure_series("connect4", "hmine")
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
        # The budget is a fraction of the structure H-Mine builds, so it
        # spills.
        assert rows[0][headers.index("HM_io_mb")] > 0

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

    def test_miner_sweep_skips_the_bruteforce_oracle(self, monkeypatch, paper_db):
        """The oracle enumerates every subset of every row, which
        exhausts memory on the stand-ins; every other miner gets a row."""
        import repro.bench.experiments as experiments
        from repro.core.compression import compress
        from repro.data.datasets import DatasetSpec
        from repro.mining import registry
        from repro.mining.hmine import mine_hmine

        def oracle(*args, **kwargs):
            raise AssertionError("the sweep ran the brute-force oracle")

        spec = registry.get_miner("bruteforce")
        monkeypatch.setitem(
            registry._MINERS, ("baseline", "bruteforce"),
            dataclasses.replace(spec, fn=oracle),
        )
        old_patterns = mine_hmine(paper_db, 3)
        tiny = Workload(
            spec=DatasetSpec("paper", lambda seed: paper_db, 0.6, (0.4,), True, ""),
            db=paper_db,
            xi_old_absolute=3,
            old_patterns=old_patterns,
            old_mining_seconds=0.0,
            compressions={"mcp": compress(paper_db, old_patterns, "mcp")},
        )
        monkeypatch.setattr(experiments, "prepare_workload", lambda *a, **k: tiny)
        headers, rows = experiments.miner_sweep("paper")
        assert "backend" not in headers
        listed = {(row[1], row[0]) for row in rows}
        assert listed == {
            (spec.kind, spec.name)
            for spec in registry.iter_miners()
            if spec.name != "bruteforce"
        }
        patterns = headers.index("patterns")
        assert {row[patterns] for row in rows} == {len(mine_hmine(paper_db, 2))}

    def test_run_experiment_dispatch_unknown(self):
        for name in ("nonsense", "figure", "fig", "fig99"):
            with pytest.raises(BenchmarkError, match="unknown experiment"):
                run_experiment(name)

    def test_every_family_dispatches(self, monkeypatch):
        """Each family ``repro bench --help`` lists reaches its experiment
        (stubbed here), and the unknown-experiment error lists them all."""
        expected = {
            "table3": "table3",
            "fig9": "figure",
            "fig24": "memory_limited_figure",
            "observations": "observations",
            "ablation-strategies-connect4": "ablation_strategies",
            "ablation-shortcut-connect4": "ablation_single_group_shortcut",
            "two-step-connect4": "two_step_cold_start",
            "miners-connect4": "miner_sweep",
        }
        names = []
        for family in EXPERIMENT_FAMILIES:
            if family == "fig9..fig24":
                names += ["fig9", "fig24"]
            else:
                names.append(family.replace("<ds>", "connect4"))
        assert sorted(names) == sorted(expected)
        for function in set(expected.values()):
            monkeypatch.setattr(
                experiments,
                function,
                lambda *args, _function=function, **kwargs: (["ran"], [[_function]]),
            )
        for name in names:
            assert run_experiment(name) == (["ran"], [[expected[name]]]), name
        for name in ("nonsense", "figure", "fig", "fig99"):
            with pytest.raises(BenchmarkError) as error:
                run_experiment(name)
            for family in EXPERIMENT_FAMILIES:
                assert family in str(error.value), name

    def test_service_load_smoke(self, monkeypatch):
        """Gateway load bench over a two-point sweep: the acceptance
        signals must already show at smoke scale — batching reduces work
        and computations, admission bounds the queue, nothing goes
        missing."""
        import repro.data.datasets as datasets

        spec = dataclasses.replace(
            datasets.get_dataset("connect4"), xi_new_sweep=(0.93, 0.91)
        )
        monkeypatch.setattr(datasets, "get_dataset", lambda name: spec)
        rows = service_load_rows("connect4")
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
        bound = experiments.SERVICE_LOAD_QUEUE_DEPTH
        assert by_scenario["admission"]["queue_high_water"] <= bound
        assert by_scenario["no-admission"]["queue_high_water"] > bound
        for row in rows:
            accounted = (
                row["served"] + row["shed"] + row["rejected"] + row["expired"]
            )
            assert accounted == row["requests"] == 32

    def test_incremental_threshold_follows_the_support_rule(self, monkeypatch):
        """The churned connect4 database (1,515 rows at 1% churn) is mined
        at xi_old .95 of its rows: 1,439.25 rounds up to 1,440."""
        monkeypatch.setattr(experiments, "INCREMENTAL_CHURNS", (0.01,))
        (row,) = experiments.incremental_rows("connect4")
        assert row["delta_rows"] == 15
        assert row["new_support"] == 1440

    def test_service_load_dispatch(self, monkeypatch):
        """The system benches run only from their ``benchmarks/`` script:
        ``service-load-<ds>`` no longer reaches :func:`service_load_rows`,
        and it and the other retired families fail listing the kept
        ones."""
        import repro.bench.experiments as experiments

        def fail(*args, **kwargs):
            raise AssertionError("repro bench ran a system bench")

        monkeypatch.setattr(experiments, "service_load_rows", fail)
        for name in (
            "service-load-connect4", "service-connect4", "warehouse-connect4",
            "grouped-connect4", "parallel-connect4", "incremental-connect4",
        ):
            with pytest.raises(BenchmarkError, match="unknown experiment") as error:
                run_experiment(name)
            for family in EXPERIMENT_FAMILIES:
                assert family in str(error.value)
