"""End-to-end serving benchmark: four seeded workloads through the public API.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                    # every workload
    python3 benchmarks/e2e/run.py --workload refine-interactive --seed 3 \\
        --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --repeat 3 --out results.json
    python3 benchmarks/e2e/run.py --seed 0 --trace 1 --trace-file trace.json

Each workload runs in its own process. A run sets the workload up three
times (``setup_s`` is the median), replays one seeded plan of requests
in a fixed number of rounds, the workload's count for a 10 s run scaled
by ``--seconds`` (so every seed and host sends the same requests), then
checks every served pattern set against a scratch mine and exits
non-zero, with no metrics, on any mismatch. With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it times each layer from outside the program
(:mod:`tracing`) on every other round and reports the per-layer
metrics instead, plus the tracing overhead against the untraced rounds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (for one workload) or
``workloads`` (for several). ``--out`` writes medians and quartiles over
``--repeat`` runs, request counts, path mix and a host stamp; nothing
else is written outside the scratch directory ``.e2e_work/``, which the
run removes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402
from hostspeed import HostSpeed, one_cpu  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracing import ROOT as ROOT_SPAN  # noqa: E402
from tracing import NoTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, Pass, percentile  # noqa: E402

#: Scratch space for warehouse directories and per-run result files.
WORKDIR = ROOT / ".e2e_work"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Every run hashes strings with this seed. With a random one per
#: process, five runs of one batch-parallel seed read p50s of 85-92 ms,
#: against 82-84 ms with one fixed seed: string hashes order the sets and
#: dicts the serving stack iterates over.
HASH_SEED = "0"
DEFAULT_SECONDS = 10.0

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "req/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics. Times and counts are per operation sent (request
#: or delta; per operation sent in a traced round for span times and
#: calls), so passes of different lengths compare.
PER_LAYER = {
    "service.self_ms": "ms/op",
    "service.computations": "1/op",
    "service.coalesced": "1/op",
    "service.path.filter": "ratio",
    "service.path.recycle": "ratio",
    "service.path.mine": "ratio",
    "service.path.update": "ratio",
    "service.warm_rate": "ratio",
    "warehouse.lookup_ms": "ms/op",
    "warehouse.lookup_calls": "1/op",
    "warehouse.expand_ms": "ms/op",
    "warehouse.expand_calls": "1/op",
    "warehouse.put_ms": "ms/op",
    "warehouse.put_calls": "1/op",
    "warehouse.evictions": "1/op",
    "warehouse.rejections": "1/op",
    "warehouse.stored_bytes": "bytes",
    "warehouse.condensation_ratio": "ratio",
    "planner.self_ms": "ms/op",
    "planner.filter_calls": "1/op",
    "planner.recycle_calls": "1/op",
    "planner.mine_calls": "1/op",
    "planner.update_calls": "1/op",
    "compression.compress_ms": "ms/op",
    "compression.compress_calls": "1/op",
    "compression.containment_checks": "1/op",
    "kernel.self_ms": "ms/op",
    "kernel.calls": "1/op",
    "kernel.work": "1/op",
    "kernel.item_visits": "1/op",
    "kernel.tuple_scans": "1/op",
    "kernel.projections": "1/op",
    "kernel.group_counts": "1/op",
    "parallel.engine_calls": "1/op",
    "parallel.shards": "1/op",
    "parallel.fallbacks": "1/op",
    "parallel.wasted_work": "1/op",
    "parallel.merge_candidates": "1/op",
    "update.fup_calls": "1/op",
    "update.recycle_calls": "1/op",
    "update.fallbacks": "1/op",
    "durability.fsync_calls": "1/op",
    "durability.write_entry_calls": "1/op",
    "durability.write_chain_calls": "1/op",
    "durability.recover_calls": "1/op",
    "durability.gc_calls": "1/op",
    "durability.footprint_bytes": "bytes",
    "data.fingerprint_ms": "ms/op",
    "data.fingerprint_calls": "1/op",
    "data.encode_calls": "1/op",
    "data.delta_apply_calls": "1/op",
    "gateway.batches": "1/op",
    "gateway.merged_batches": "1/op",
    "gateway.batch_size_mean": "requests",
    "gateway.shed": "1/op",
    "gateway.rejected": "1/op",
    "gateway.expired": "1/op",
    "trace.overhead_pct": "%",
}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(
    main: Pass, tail: float, setup_seconds: list[float]
) -> dict[str, float]:
    p50, tail_latency, throughput = main.summary(tail)
    return {
        "setup_s": statistics.median(setup_seconds),
        "latency_p50_ms": p50 * 1000,
        "latency_tail_ms": tail_latency * 1000,
        "throughput_rps": throughput,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def overhead_pct(traced: Pass, tracer: Tracer) -> float:
    """Traced rounds' ``latency_p50_ms`` against the untraced rounds'."""
    p50 = {
        flag: percentile(
            traced.samples(
                [r for r, on in zip(traced.rounds, tracer.rounds_traced) if on is flag]
            ),
            0.5,
        )
        for flag in (True, False)
    }
    return 100 * (p50[True] / p50[False] - 1)


def layer_metrics(traced: Pass, tracer: Tracer) -> dict[str, float]:
    per_op = 1.0 / traced.attempted
    per_traced_op = 1.0 / traced.traced_attempted
    times = tracer.self_times()

    def pick(prefix: str, field: int) -> float:
        # ``prefix`` is one span name, or a whole layer when it ends in "."
        return sum(
            value[field]
            for name, value in times.items()
            if name == prefix or (prefix.endswith(".") and name.startswith(prefix))
        )

    def self_ms(prefix: str) -> float:
        return pick(prefix, 0) * 1000 * per_traced_op

    def calls(prefix: str) -> float:
        return pick(prefix, 2) * per_traced_op

    counters = traced.counters.as_dict()
    tallies = traced.tallies
    served = max(1, sum(traced.paths.values()))
    batches = tallies["gateway.batches"]
    return {
        "service.self_ms": self_ms("service."),
        "service.computations": tallies["service.computations"] * per_op,
        "service.coalesced": tallies["service.coalesced"] * per_op,
        **{
            f"service.path.{path}": traced.paths[path] / served
            for path in ("filter", "recycle", "mine", "update")
        },
        "service.warm_rate": (
            traced.paths["filter"] + traced.paths["recycle"] + traced.paths["update"]
        )
        / served,
        "warehouse.lookup_ms": self_ms("warehouse.lookup"),
        "warehouse.lookup_calls": calls("warehouse.lookup"),
        "warehouse.expand_ms": self_ms("warehouse.expand"),
        "warehouse.expand_calls": calls("warehouse.expand"),
        "warehouse.put_ms": self_ms("warehouse.put"),
        "warehouse.put_calls": calls("warehouse.put"),
        "warehouse.evictions": tallies["warehouse.evictions"] * per_op,
        "warehouse.rejections": tallies["warehouse.rejections"] * per_op,
        "warehouse.stored_bytes": traced.detail.get("warehouse.stored_bytes", 0),
        "warehouse.condensation_ratio": traced.detail.get("warehouse.condensation_ratio", 1.0),
        "planner.self_ms": self_ms("planner."),
        **{
            f"planner.{path}_calls": calls(f"planner.{path}")
            for path in ("filter", "recycle", "mine", "update")
        },
        "compression.compress_ms": self_ms("compression.compress"),
        "compression.compress_calls": calls("compression.compress"),
        "compression.containment_checks": counters["containment_checks"] * per_op,
        "kernel.self_ms": self_ms("kernel.")
        + tracer.kernel_shard_seconds * 1000 * per_traced_op,
        "kernel.calls": calls("kernel."),
        "kernel.work": traced.counters.total_work() * per_op,
        **{
            f"kernel.{name}": counters[name] * per_op
            for name in ("item_visits", "tuple_scans", "projections", "group_counts")
        },
        "parallel.engine_calls": calls("parallel.engine"),
        "parallel.shards": counters.get("parallel_shards", 0) * per_op,
        "parallel.fallbacks": counters.get("parallel_fallbacks", 0) * per_op,
        "parallel.wasted_work": counters.get("parallel_wasted_work", 0) * per_op,
        "parallel.merge_candidates": counters.get("merge_candidates", 0) * per_op,
        "update.fup_calls": tallies["update.fup_calls"] * per_op,
        "update.recycle_calls": tallies["update.recycle_calls"] * per_op,
        "update.fallbacks": counters.get("update_fallbacks", 0) * per_op,
        **{
            f"durability.{name}_calls": calls(f"durability.{name}")
            for name in ("fsync", "write_entry", "write_chain", "recover", "gc")
        },
        "durability.footprint_bytes": traced.detail.get("durability.footprint_bytes", 0),
        "data.fingerprint_ms": self_ms("data.fingerprint"),
        **{
            f"data.{name}_calls": calls(f"data.{name}")
            for name in ("fingerprint", "encode", "delta_apply")
        },
        "gateway.batches": batches * per_op,
        "gateway.merged_batches": tallies["gateway.merged_batches"] * per_op,
        "gateway.batch_size_mean": (
            (tallies["gateway.batched_requests"] + batches - tallies["gateway.merged_batches"])
            / batches
            if batches
            else 0.0
        ),
        **{
            f"gateway.{name}": tallies[f"gateway.{name}"] * per_op
            for name in ("shed", "rejected", "expired")
        },
        "trace.overhead_pct": overhead_pct(traced, tracer),
    }


def trace_detail(traced: Pass, tracer: Tracer) -> dict[str, float]:
    """Every span's self and total time per traced operation, and root coverage."""
    per_op = 1.0 / traced.traced_attempted
    detail: dict[str, float] = {}
    times = tracer.self_times()
    for name, (self_s, total_s, count) in sorted(times.items()):
        detail[f"{name}.self_ms"] = self_s * 1000 * per_op
        detail[f"{name}.total_ms"] = total_s * 1000 * per_op
        detail[f"{name}.calls"] = count * per_op
    root_self, root_total, _ = times.get(ROOT_SPAN, (0.0, 0.0, 0))
    if root_total:
        # Share of request time spent inside a named layer.
        detail["trace.coverage_pct"] = 100 * (1 - root_self / root_total)
    return detail


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    trace_file: Path | None = None,
) -> dict:
    """Set up, replay, check; the result as a plain dict."""
    workload = WORKLOADS[name]
    WORKDIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORKDIR))
    state = None
    setup_wall: list[float] = []
    setup_seconds: list[float] = []
    tracer = Tracer() if trace else NoTracer()
    oracle = Oracle()
    try:
        with one_cpu(workload.one_cpu), HostSpeed() as clock:
            for index in range(SETUPS):
                if state is not None:
                    state.close()
                    state = None
                gc.collect()  # the last set-up's garbage is not this one's cost
                begun = time.perf_counter()
                state = workload.setup(work / f"setup-{index}", scale)
                ended = time.perf_counter()
                setup_wall.append(ended - begun)
                setup_seconds.append(clock.reference_seconds(begun, ended))
            # A fixed count, not a deadline: a slower host measures longer,
            # and every run of a workload sends the same requests.
            planned = max(2, round(workload.rounds * seconds / DEFAULT_SECONDS))
            main = Pass(oracle, tracer, clock, planned=planned)
            try:
                workload.run(state, seed, main)
            finally:
                tracer.uninstall()
        if trace:
            metrics = layer_metrics(main, tracer)
        else:
            metrics = end_to_end_metrics(main, workload.tail, setup_seconds)
    finally:
        if state is not None:
            state.close()
        shutil.rmtree(work, ignore_errors=True)
        remove_if_empty(WORKDIR)

    main.check()
    mismatches = main.mismatches
    detail = dict(main.detail)
    detail["setup_runs_s"] = setup_seconds
    detail["setup_runs_wall_s"] = setup_wall
    detail["rounds"] = len(main.rounds)
    detail["latency_tail_quantile"] = workload.tail
    detail["round_wall_s"] = main.round_seconds
    detail["round_reference_s"] = main.round_reference
    detail["round_latencies_ms"] = [
        [None if math.isinf(latency) else round(latency * 1000, 3) for latency in latencies]
        for latencies in main.rounds
    ]
    if trace:
        detail.update(trace_detail(main, tracer))
        if trace_file is not None:
            trace_file.write_text(json.dumps(tracer.chrome_trace(name)))
    total = sum(main.datasets.values()) or 1
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not mismatches,
        "mismatches": mismatches[:20],
        "attempted": main.attempted,
        "failed": main.failed,
        "served": main.served,
        "oracle_checked": oracle.checked,
        "latency_samples": len(main.samples()),
        "path_mix": dict(main.paths),
        "dataset_shares": {ds: n / total for ds, n in sorted(main.datasets.items())},
        "absent_targets": sorted(
            path for path, status in getattr(tracer, "status", {}).items()
            if status != "wrapped"
        ),
        "metrics": (
            {}
            if mismatches
            else {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}
        ),
        "detail": detail,
    }


# ----------------------------------------------------------------------
# several workloads or repeats, one subprocess each
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(runs: list[dict]) -> dict:
    metrics = {}
    for key, entry in runs[0]["metrics"].items():
        values = [run["metrics"][key]["value"] for run in runs if run["metrics"]]
        q1, median, q3 = quartiles(values)
        metrics[key] = {
            "unit": entry["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "values": values,
        }
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": [run["attempted"] for run in runs],
        "failed": [run["failed"] for run in runs],
        "metrics": metrics,
        "runs": runs,
    }


def run_subprocess(args, name: str, repeat: int, out: Path) -> dict | None:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(out),
    ]
    if args.trace_file is not None:
        command += ["--trace-file", str(numbered(args.trace_file, name, repeat, args.repeat))]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        try:
            stdout, _ = child.communicate(timeout=900)
        except BaseException:
            # Terminate rather than kill, so that the child still removes
            # its scratch directory, and wait for it.
            child.terminate()
            child.communicate()
            raise
    for line in stdout.splitlines()[:-1]:
        print(f"  {line}")
    if child.returncode != 0 or not out.exists():
        print(f"{name}: run {repeat + 1} exited with {child.returncode}", file=sys.stderr)
        return None
    return json.loads(out.read_text())["workloads"][name]["runs"][0]


def remove_if_empty(directory: Path) -> None:
    try:
        directory.rmdir()
    except OSError:
        pass  # missing, or another run still uses it


def numbered(path: Path, name: str, repeat: int, repeats: int) -> Path:
    tag = name if repeats == 1 else f"{name}.{repeat + 1}"
    return path.with_name(f"{path.stem}.{tag}{path.suffix}")


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def host_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "warehouse_fs": filesystem_of(ROOT),
    }


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux), else unknown."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) > 2 and str(path).startswith(fields[1]) and len(fields[1]) > len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def write_results(path: Path, args, summaries: dict[str, dict]) -> None:
    path.write_text(
        json.dumps(
            {
                "benchmark": "e2e",
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "repeat": args.repeat,
                "host": host_stamp(),
                "workloads": summaries,
            },
            indent=2,
        )
        + "\n"
    )


def print_result(result: dict) -> None:
    label = result["workload"]
    for path in result["absent_targets"]:
        print(f"{label}: trace target {path} absent")
    for line in result["mismatches"]:
        print(f"{label}: MISMATCH {line}", file=sys.stderr)
    for key, entry in result["metrics"].items():
        print(f"{label}: {key} = {entry['value']:.6g} {entry['unit']}")
    print(
        f"{label}: served {result['served']} ({result['latency_samples']} timed), "
        f"paths {result['path_mix']}, failed {result['failed']}, "
        f"correct {result['correct']}"
    )


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    # A terminated run still unwinds: scratch directories are removed and
    # worker pools and child runs are shut down by their own cleanup.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro was imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    if len(names) == 1 and args.repeat == 1:
        result = run_workload(
            names[0], args.seed, args.seconds, bool(args.trace), trace_file=args.trace_file
        )
        print_result(result)
        if args.out is not None:
            write_results(args.out, args, {names[0]: summarize([result])})
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    WORKDIR.mkdir(exist_ok=True)
    summaries: dict[str, dict] = {}
    complete = True
    try:
        with tempfile.TemporaryDirectory(dir=WORKDIR) as scratch:
            for name in names:
                runs = []
                for repeat in range(args.repeat):
                    out = Path(scratch) / f"{name}-{repeat}.json"
                    run = run_subprocess(args, name, repeat, out)
                    if run is None:
                        complete = False
                    else:
                        runs.append(run)
                if runs:
                    summaries[name] = summarize(runs)
    finally:
        remove_if_empty(WORKDIR)
    for name, summary in summaries.items():
        for key, entry in summary["metrics"].items():
            print(
                f"{name}: {key} median {entry['median']:.6g} "
                f"[q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}] {entry['unit']}"
            )
    if args.out is not None:
        write_results(args.out, args, summaries)
    correct = complete and all(s["correct"] for s in summaries.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(sum(s["attempted"]) for s in summaries.values()),
                "failed": sum(sum(s["failed"]) for s in summaries.values()),
                "workloads": {
                    name: {key: entry["median"] for key, entry in s["metrics"].items()}
                    for name, s in summaries.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    sys.exit(main())
