"""Self-tests of the end-to-end benchmark, on tiny databases.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import math
import re
import time
from collections import Counter
from pathlib import Path

import pytest

import repro.core.planner as planner
import repro.service.service as service_module
import run as bench
import tracing
from hostspeed import HostSpeed
from oracle import Oracle
from repro.mining.patterns import PatternSet
from tracing import Target, Tracer
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = {"seconds": 0.3, "scale": 0.2}


def plans(name: str, seed: int) -> list[list]:
    """A workload's request plans: one per round of a block or step of a pass."""
    workload = WORKLOADS[name]
    if name == "burst-gateway":
        return [workload.plan(seed, step) for step in range(4)]
    if name == "stream-durable":
        return [workload.plan(seed, offset) for offset in range(workload.block)]
    return [workload.plan(seed)]


def dataset_shares(name: str, plan: list) -> Counter:
    databases = WORKLOADS[name].databases
    return Counter(databases[item if isinstance(item, int) else item[0]][0] for item in plan)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_order_not_shares(name):
    assert plans(name, 0) == plans(name, 0)
    assert plans(name, 0) != plans(name, 1)
    for first, second in zip(plans(name, 0), plans(name, 1)):
        assert dataset_shares(name, first) == dataset_shares(name, second)


def test_burst_windows_have_exact_shares():
    burst = WORKLOADS["burst-gateway"]
    shape_dbs = [db for db, _priority in burst.burst_shape]
    for seed in (0, 1):
        plan = burst.plan(seed, 1)
        bursts = len(burst.window_rungs)
        assert [(db, p) for db, _rung, p, _d, _t in plan] == list(burst.burst_shape) * bursts
        assert sum(deadline for _db, _rung, _p, deadline, _t in plan) == burst.deadlines[True]
        assert Counter((db, rung) for db, rung, _p, _d, _t in plan) == {
            (db, rung): shape_dbs.count(db) for db in range(3) for rung in range(4)
        }


def test_benchmark_json_names_what_run_prints():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == bench.PER_LAYER
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_is_correct_and_installs_nothing(name, monkeypatch):
    def refuse(self, targets=None):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(Tracer, "install", refuse)
    result = bench.run_workload(name, seed=0, trace=False, **TINY)
    assert result["correct"], result["mismatches"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(bench.END_TO_END)
    assert all(0 < entry["value"] < math.inf for entry in result["metrics"].values())
    assert all(NAME.fullmatch(key) for key in result["detail"])

    other = bench.run_workload(name, seed=1, trace=False, **TINY)
    assert other["correct"], other["mismatches"]
    for key in ("attempted", "latency_samples", "dataset_shares"):
        assert other[key] == result[key], key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_layers_and_chrome_trace(name, tmp_path):
    trace_file = tmp_path / "trace.json"
    result = bench.run_workload(name, seed=0, trace=True, trace_file=trace_file, **TINY)
    assert result["correct"], result["mismatches"]
    assert list(result["metrics"]) == list(bench.PER_LAYER)
    assert result["absent_targets"] == []
    assert all(NAME.fullmatch(key) for key in result["detail"])
    if name != "burst-gateway":  # the open loop has no request root
        assert result["detail"]["trace.coverage_pct"] >= 80
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert events and {"name", "ph", "ts", "dur", "pid", "tid"} <= set(events[0])
    assert planner.execute_plan is service_module.execute_plan  # wrappers removed
    assert not hasattr(planner.execute_plan, "__wrapped__")


def test_oracle_work_is_not_traced(monkeypatch):
    # stream-durable checks its answers between blocks, some of them
    # traced; the oracle's scratch mines must not count as kernel time.
    checking = []
    traced_while_checking = []
    real_check, real_span = Oracle.check, Tracer.span

    def check(self, answers):
        checking.append(True)
        try:
            return real_check(self, answers)
        finally:
            checking.pop()

    def span(self, name, root=False):
        if checking:
            traced_while_checking.append(name)
        return real_span(self, name, root)

    monkeypatch.setattr(Oracle, "check", check)
    monkeypatch.setattr(Tracer, "span", span)
    result = bench.run_workload("stream-durable", seed=0, trace=True, **TINY)
    assert result["correct"] and result["oracle_checked"] > 0
    assert traced_while_checking == []


def test_refused_requests_fail_and_count_as_slow(monkeypatch):
    burst = WORKLOADS["burst-gateway"]
    served = bench.run_workload(burst.name, seed=0, trace=False, **TINY)
    # A queue shorter than a burst sheds or rejects some of every burst.
    monkeypatch.setattr(burst, "queue_depth", 4)
    refused = bench.run_workload(burst.name, seed=0, trace=False, **TINY)
    assert served["failed"] == 0 and refused["failed"] > 0
    assert refused["attempted"] == served["attempted"]
    tail = refused["metrics"]["latency_tail_ms"]["value"]
    assert tail > served["metrics"]["latency_tail_ms"]["value"]
    assert tail == math.inf


def test_corrupted_answer_fails_the_oracle(monkeypatch):
    real = service_module.execute_plan

    def drop_one_pattern(*args, **kwargs):
        served = real(*args, **kwargs).as_dict()
        served.pop(next(iter(served)), None)
        return PatternSet(served)

    monkeypatch.setattr(service_module, "execute_plan", drop_one_pattern)
    result = bench.run_workload("refine-interactive", seed=0, trace=False, **TINY)
    assert not result["correct"]
    assert result["mismatches"] and result["metrics"] == {}


def test_reference_seconds_scale_wall_time_by_sampled_speed():
    clock = HostSpeed(cpus=[0, 1])
    clock._samples[0] = [(1.0, 1.0), (2.0, 0.5), (2.5, 0.25), (4.0, 0.5)]
    clock._samples[1] = [(1.0, 1.0)]
    # CPU 0: the samples at 2.0 and 2.5 fall in [2.0 - two periods, 3.0];
    # CPU 1 has none there, so its last one before 3.0 counts.
    assert clock.reference_seconds(2.0, 3.0) == pytest.approx((0.375 + 1.0) / 2)
    # CPU 0 has none in [3.2 - two periods, 3.3] either: 2.5 counts.
    assert clock.reference_seconds(3.2, 3.3) == pytest.approx(0.1 * (0.25 + 1.0) / 2)

    with HostSpeed() as live:
        begun = time.perf_counter()
        time.sleep(0.05)
        assert live.reference_seconds(begun, time.perf_counter()) > 0
    assert not any(thread.is_alive() for thread in live._threads)


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    gone = (
        Target("repro.service.service:MiningService.no_such_method", "service.gone"),
        Target("repro.no_such_module:no_such_function", "data.gone"),
    )
    tracer = Tracer()
    status = tracer.install(gone + (Target("repro.core.planner:execute_plan", "planner.x"),))
    try:
        assert all(status[t.path].startswith("absent") for t in gone)
        assert status["repro.core.planner:execute_plan"] == "wrapped"
    finally:
        tracer.uninstall()
    assert not hasattr(planner.execute_plan, "__wrapped__")

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + gone)
    result = bench.run_workload("refine-interactive", seed=0, trace=True, **TINY)
    assert result["correct"]
    assert result["absent_targets"] == sorted(t.path for t in gone)
