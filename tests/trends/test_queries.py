"""Dataframe-free selection, aggregation, and series extraction."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import TrendsError
from repro.trends import (
    TrendMetric,
    aggregate,
    category_bars,
    load_policy,
    metric_value,
    select,
    series,
    speedup_vs_jobs,
    work_by_churn,
)

from tests.trends.conftest import make_snapshot

POLICY = Path(__file__).resolve().parents[2] / "trends" / "policy.toml"


class TestSelect:
    def test_subset_equality_match(self):
        rows = [
            {"dataset": "connect4", "jobs": 1, "v": 1},
            {"dataset": "connect4", "jobs": 4, "v": 2},
            {"dataset": "pumsb", "jobs": 4, "v": 3},
        ]
        assert [r["v"] for r in select(rows, {"jobs": 4})] == [2, 3]
        assert [r["v"] for r in select(rows, {"dataset": "connect4", "jobs": 4})] == [2]
        assert select(rows, {"missing_key": 1}) == []

    def test_no_clause_copies_everything(self):
        rows = [{"a": 1}]
        out = select(rows)
        assert out == rows
        out[0]["a"] = 2
        assert rows[0]["a"] == 1  # copies, not aliases


class TestAggregate:
    def test_all_aggregations(self):
        values = [4.0, 1.0, 3.0]
        assert aggregate(values, "mean") == pytest.approx(8 / 3)
        assert aggregate(values, "sum") == 8.0
        assert aggregate(values, "min") == 1.0
        assert aggregate(values, "max") == 4.0
        assert aggregate(values, "first") == 4.0

    def test_empty_is_none(self):
        assert aggregate([], "mean") is None

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(TrendsError, match="unknown aggregation"):
            aggregate([1.0], "median")


class TestMetricValue:
    def test_filters_and_aggregates(self, snapshot):
        assert metric_value(snapshot, "total_work") == 1000.0
        assert metric_value(
            snapshot, "total_work", where={"scenario": "per-request"}
        ) is None

    def test_skips_non_numeric_and_non_finite(self):
        snap = make_snapshot(rows=[
            {"v": 1.0}, {"v": "text"}, {"v": True},
            {"v": float("nan")}, {"v": float("inf")}, {"v": 3.0},
        ])
        assert metric_value(snap, "v") == 2.0
        assert metric_value(snap, "v", agg="sum") == 4.0


class TestSeries:
    def test_points_carry_commit_identity(self):
        snaps = [
            make_snapshot(commit="a" * 40, timestamp="2026-01-01T00:00:00+00:00"),
            make_snapshot(commit="b" * 40, timestamp="2026-02-01T00:00:00+00:00"),
        ]
        points = series(snaps, "total_work")
        assert [p["commit_short"] for p in points] == ["a" * 10, "b" * 10]
        assert all(p["value"] == 1000.0 for p in points)

    def test_snapshots_missing_the_metric_are_skipped(self):
        snaps = [make_snapshot(), make_snapshot(rows=[{"other": 1}])]
        assert len(series(snaps, "total_work")) == 1


class TestTrendMetric:
    def test_validation(self):
        with pytest.raises(TrendsError, match="direction"):
            TrendMetric(name="x", bench="b", field="f", direction="sideways")
        with pytest.raises(TrendsError, match="aggregation"):
            TrendMetric(name="x", bench="b", field="f", agg="median")

    def test_value_and_trend(self, snapshot):
        metric = TrendMetric(
            name="work", bench="service_load", field="total_work",
            where={"scenario": "batched"},
        )
        assert metric.value(snapshot) == 1000.0
        assert metric.trend([snapshot])[0]["value"] == 1000.0

    def test_default_set_is_wall_clock_safe(self):
        # Every advisory series of the policy (which the report and the
        # gate both read) is a wall-clock-derived speedup; every gating
        # series is a counter or gauge.
        metrics = [entry.metric for entry in load_policy(POLICY).metrics]
        advisory = {m.field for m in metrics if m.advisory}
        assert advisory == {"speedup"}
        assert all(m.field != "speedup" for m in metrics if not m.advisory)


class TestChartExtractors:
    def test_speedup_vs_jobs(self):
        snap = make_snapshot(bench="parallel", rows=[
            {"dataset": "connect4", "task": "mine", "jobs": 1, "speedup": 1.0},
            {"dataset": "connect4", "task": "mine", "jobs": 4, "speedup": 2.5},
            {"dataset": "pumsb", "task": "mine", "jobs": 4, "speedup": 1.9},
        ])
        xs, curves = speedup_vs_jobs(snap)
        assert xs == [1.0, 4.0]
        assert curves["connect4 mine"] == [1.0, 2.5]
        assert curves["pumsb mine"] == [None, 1.9]  # gap where jobs=1 missing

    def test_work_by_churn(self):
        snap = make_snapshot(bench="incremental", rows=[
            {"dataset": "connect4", "churn": 0.01, "scratch_work": 100,
             "fup_work": 10, "recycle_work": 20},
            {"dataset": "connect4", "churn": 0.1, "scratch_work": 100,
             "fup_work": None, "recycle_work": 60},
        ])
        xs, curves = work_by_churn(snap)
        assert xs == [0.01, 0.1]
        assert curves["connect4 scratch"] == [100.0, 100.0]
        assert curves["connect4 fup"] == [10.0, None]  # null fup at high churn
        assert curves["connect4 recycle"] == [20.0, 60.0]

    def test_category_bars(self):
        snap = make_snapshot(bench="warehouse", rows=[
            {"dataset": "connect4", "representation": "full",
             "warm_hit_rate": 0.2},
            {"dataset": "connect4", "representation": "closed",
             "warm_hit_rate": 0.9},
            {"dataset": "connect4", "representation": "broken",
             "warm_hit_rate": "n/a"},
        ])
        labels, values = category_bars(
            snap, "warm_hit_rate", ("dataset", "representation")
        )
        assert labels == ["connect4 full", "connect4 closed"]
        assert values == [0.2, 0.9]
