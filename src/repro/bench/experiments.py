"""Experiment generators: one function per paper table / figure group.

Each function returns ``(headers, rows)`` ready for
:func:`repro.bench.report.render_report`; the benchmark modules under
``benchmarks/`` call these and print the result. The mapping from paper
artifact to function lives in :data:`FIGURES` and is mirrored in
DESIGN.md's experiment index.

All experiments verify the correctness invariant as they run: every
recycling variant must produce exactly the baseline's pattern set. A
benchmark that produced wrong patterns would be meaningless, so a
mismatch raises immediately.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.bench.runner import (
    MiningRun,
    run_baseline,
    run_condensed,
    run_recycling,
    speedup,
    timed,
)
from repro.bench.workloads import prepare_workload
from repro.core.naive import mine_rp
from repro.core.utility import STRATEGIES
from repro.core.compression import compress
from repro.errors import BenchmarkError
from repro.mining.registry import iter_miners
from repro.storage.disk import DiskModel, SimulatedDisk, transactions_byte_size
from repro.storage.memory import estimate_transactions_bytes
from repro.storage.projection import mine_grouped, mine_with_memory_budget

#: Paper figure number -> (dataset, base algorithm). Figures 21-24 are the
#: memory-limited family, handled by :func:`memory_limited_figure`.
FIGURES: dict[int, tuple[str, str]] = {
    9: ("weather", "hmine"),
    10: ("weather", "fpgrowth"),
    11: ("weather", "treeprojection"),
    12: ("forest", "hmine"),
    13: ("forest", "fpgrowth"),
    14: ("forest", "treeprojection"),
    15: ("connect4", "hmine"),
    16: ("connect4", "fpgrowth"),
    17: ("connect4", "treeprojection"),
    18: ("pumsb", "hmine"),
    19: ("pumsb", "fpgrowth"),
    20: ("pumsb", "treeprojection"),
}

MEMORY_FIGURES: dict[int, str] = {
    21: "weather",
    22: "forest",
    23: "connect4",
    24: "pumsb",
}

_ALGORITHM_TAGS = {"hmine": "HM", "fpgrowth": "FP", "treeprojection": "TP"}


def _check_same(baseline: MiningRun, candidate: MiningRun, where: str) -> None:
    if baseline.patterns != candidate.patterns:
        raise BenchmarkError(
            f"{where}: {candidate.label} disagreed with {baseline.label} "
            f"({candidate.pattern_count} vs {baseline.pattern_count} patterns)"
        )


# ----------------------------------------------------------------------
# Table 3 — dataset properties and compression statistics
# ----------------------------------------------------------------------
def table3(seed: int = 0) -> tuple[list[str], list[list[object]]]:
    """Dataset properties + per-strategy compression time and ratio.

    "pipeline" time is the pure compression cost (the paper's column that
    deducts I/O, since compression can ride along with an existing
    projection pass); "I/O" adds a modelled read of the original database
    and write of the compressed one.
    """
    headers = [
        "dataset", "tuples", "avg_len", "items", "xi_old",
        "patterns", "max_len", "strategy",
        "time_pipeline_s", "time_io_s", "ratio",
    ]
    model = DiskModel()
    rows: list[list[object]] = []
    for dataset in ("weather", "forest", "connect4", "pumsb"):
        workload = prepare_workload(dataset, seed)
        db = workload.db
        raw_bytes = transactions_byte_size(list(db.transactions))
        for strategy in ("mcp", "mlp"):
            compression = workload.compressions[strategy]
            compressed_bytes = int(raw_bytes * compression.ratio)
            io_seconds = compression.elapsed_seconds + model.transfer_time(
                raw_bytes + compressed_bytes, 2
            )
            rows.append(
                [
                    dataset,
                    len(db),
                    round(db.average_length(), 1),
                    db.item_count(),
                    workload.spec.xi_old,
                    len(workload.old_patterns),
                    workload.old_patterns.max_length(),
                    strategy.upper(),
                    compression.elapsed_seconds,
                    io_seconds,
                    compression.ratio,
                ]
            )
    return headers, rows


# ----------------------------------------------------------------------
# Figures 9-20 — runtime vs xi_new, baseline vs MCP/MLP recycling
# ----------------------------------------------------------------------
def figure(
    number: int, seed: int = 0, sweep: Sequence[float] | None = None
) -> tuple[list[str], list[list[object]]]:
    """One runtime-vs-support figure: baseline, -MCP and -MLP series."""
    try:
        dataset, algorithm = FIGURES[number]
    except KeyError:
        raise BenchmarkError(
            f"unknown figure {number} (known: {sorted(FIGURES)} and "
            f"{sorted(MEMORY_FIGURES)} via memory_limited_figure)"
        ) from None
    return figure_series(dataset, algorithm, seed, sweep)


def figure_series(
    dataset: str,
    algorithm: str,
    seed: int = 0,
    sweep: Sequence[float] | None = None,
) -> tuple[list[str], list[list[object]]]:
    """The three series of one figure over the dataset's support sweep."""
    workload = prepare_workload(dataset, seed)
    tag = _ALGORITHM_TAGS.get(algorithm, algorithm)
    headers = [
        "xi_new", "abs_sup", "patterns",
        f"{tag}_s", f"{tag}-MCP_s", f"{tag}-MLP_s",
        "speedup_mcp", "speedup_mlp",
        "work_base", "work_mcp",
    ]
    rows: list[list[object]] = []
    points = sweep if sweep is not None else workload.spec.xi_new_sweep
    for relative in points:
        absolute = workload.absolute_support(relative)
        base = run_baseline(algorithm, workload.db, absolute)
        mcp = run_recycling(
            algorithm, workload.compressions["mcp"].compressed, absolute, "mcp"
        )
        mlp = run_recycling(
            algorithm, workload.compressions["mlp"].compressed, absolute, "mlp"
        )
        _check_same(base, mcp, f"figure {dataset}/{algorithm} xi={relative}")
        _check_same(base, mlp, f"figure {dataset}/{algorithm} xi={relative}")
        rows.append(
            [
                relative,
                absolute,
                base.pattern_count,
                base.seconds,
                mcp.seconds,
                mlp.seconds,
                speedup(base, mcp),
                speedup(base, mlp),
                base.counters.total_work(),
                mcp.counters.total_work(),
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# Figures 21-24 — memory-limited H-Mine vs HM-MCP
# ----------------------------------------------------------------------
def memory_limited_figure(
    number_or_dataset: int | str,
    seed: int = 0,
    budget_fractions: Sequence[float] = (0.15, 0.30),
    sweep: Sequence[float] | None = None,
) -> tuple[list[str], list[list[object]]]:
    """H-Mine vs HM-MCP under memory budgets, with simulated I/O.

    The paper fixes 4 MB / 8 MB on datasets of tens of MB; our stand-ins
    are ~100x smaller, so budgets are expressed as fractions of the full
    H-struct footprint (defaults chosen to match the paper's ~10-25%
    regime). Reported times add the simulated disk model's transfer time
    to the measured CPU time, mirroring how the paper's wall-clock
    includes real I/O.
    """
    if isinstance(number_or_dataset, int):
        try:
            dataset = MEMORY_FIGURES[number_or_dataset]
        except KeyError:
            raise BenchmarkError(
                f"unknown memory figure {number_or_dataset} "
                f"(known: {sorted(MEMORY_FIGURES)})"
            ) from None
    else:
        dataset = number_or_dataset
    workload = prepare_workload(dataset, seed)
    db = workload.db
    full_bytes = estimate_transactions_bytes(list(db.transactions), db.item_count())
    headers = [
        "xi_new", "budget_bytes",
        "HM_s", "HM_io_mb", "HM-MCP_s", "HM-MCP_io_mb",
        "speedup", "patterns",
    ]
    rows: list[list[object]] = []
    points = sweep if sweep is not None else workload.spec.xi_new_sweep
    for fraction in budget_fractions:
        budget = max(1, int(full_bytes * fraction))
        for relative in points:
            absolute = workload.absolute_support(relative)
            base_disk = SimulatedDisk(counters=None)
            base = timed(
                "hmine-budget",
                lambda counters: mine_with_memory_budget(
                    "hmine", "baseline", db, absolute, budget,
                    disk=base_disk, counters=counters,
                ),
            )
            rp_disk = SimulatedDisk(counters=None)
            mcp = timed(
                "hm-mcp-budget",
                lambda counters: mine_with_memory_budget(
                    "naive",
                    "recycling",
                    workload.compressions["mcp"].compressed,
                    absolute,
                    budget,
                    disk=rp_disk,
                    counters=counters,
                ),
            )
            _check_same(base, mcp, f"memory figure {dataset} xi={relative}")
            base_total = base.seconds + base_disk.simulated_seconds
            mcp_total = mcp.seconds + rp_disk.simulated_seconds
            rows.append(
                [
                    relative,
                    budget,
                    base_total,
                    (base_disk.total_bytes_read + base_disk.total_bytes_written) / 2**20,
                    mcp_total,
                    (rp_disk.total_bytes_read + rp_disk.total_bytes_written) / 2**20,
                    base_total / mcp_total if mcp_total > 0 else float("inf"),
                    base.pattern_count,
                ]
            )
    return headers, rows


# ----------------------------------------------------------------------
# Section 5.2 observations
# ----------------------------------------------------------------------
def observations(seed: int = 0) -> tuple[list[str], list[list[object]]]:
    """Observation 1: the recycling saving vs the cost of producing it.

    For each dataset, at the lowest sweep support: the time HM-MCP saves
    over H-Mine, compared against the *entire* investment — mining at
    xi_old plus MCP compression. The paper's claim is saving >> cost,
    which justifies even cold-start two-step mining (run high support
    first, recycle down).
    """
    headers = [
        "dataset", "xi_old_mine_s", "compress_s", "investment_s",
        "HM_s", "HM-MCP_s", "saving_s", "saving/investment",
    ]
    rows: list[list[object]] = []
    for dataset in ("weather", "forest", "connect4", "pumsb"):
        workload = prepare_workload(dataset, seed)
        relative = workload.spec.xi_new_sweep[-1]
        absolute = workload.absolute_support(relative)
        base = run_baseline("hmine", workload.db, absolute)
        mcp = run_recycling(
            "hmine", workload.compressions["mcp"].compressed, absolute, "mcp"
        )
        _check_same(base, mcp, f"observations {dataset}")
        invest = (
            workload.old_mining_seconds
            + workload.compressions["mcp"].elapsed_seconds
        )
        saving = base.seconds - mcp.seconds
        rows.append(
            [
                dataset,
                workload.old_mining_seconds,
                workload.compressions["mcp"].elapsed_seconds,
                invest,
                base.seconds,
                mcp.seconds,
                saving,
                saving / invest if invest > 0 else float("inf"),
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# Ablations (ours, motivated by DESIGN.md)
# ----------------------------------------------------------------------
def ablation_strategies(
    dataset: str, seed: int = 0
) -> tuple[list[str], list[list[object]]]:
    """Utility-function ablation: MCP vs MLP vs arrival-order vs random.

    Isolates how much of the recycling win comes from *which* patterns
    compress the database, holding the mining algorithm (naive RP-Mine)
    fixed. Run at the middle sweep support.
    """
    workload = prepare_workload(dataset, seed)
    relative = workload.spec.xi_new_sweep[len(workload.spec.xi_new_sweep) // 2]
    absolute = workload.absolute_support(relative)
    headers = ["strategy", "ratio", "grouped_tuples", "groups", "mine_s", "patterns"]
    rows: list[list[object]] = []
    reference = None
    for name in STRATEGIES:
        compression = compress(workload.db, workload.old_patterns, name, seed=seed)
        run = timed(
            f"rp-{name}",
            lambda counters: mine_rp(compression.compressed, absolute, counters),
        )
        if reference is None:
            reference = run
        else:
            _check_same(reference, run, f"ablation {dataset}/{name}")
        rows.append(
            [
                name,
                compression.ratio,
                compression.compressed.grouped_tuple_count(),
                len(compression.compressed.groups),
                run.seconds,
                run.pattern_count,
            ]
        )
    return headers, rows


def ablation_single_group_shortcut(
    dataset: str, seed: int = 0
) -> tuple[list[str], list[list[object]]]:
    """Lemma 3.1 ablation: RP-Mine with and without the enumeration.

    Wall-clock differences are small at this scale (the shortcut trades
    recursive projections for subset enumeration), so the deterministic
    columns — shortcut firings and projections built — carry the story:
    disabling the lemma forces strictly more projected databases.
    """
    workload = prepare_workload(dataset, seed)
    headers = [
        "xi_new", "with_shortcut_s", "without_shortcut_s",
        "shortcut_fires", "projections_with", "projections_without",
    ]
    rows: list[list[object]] = []
    compressed = workload.compressions["mcp"].compressed
    for relative in workload.spec.xi_new_sweep:
        absolute = workload.absolute_support(relative)
        with_run = timed(
            "rp-shortcut",
            lambda counters: mine_rp(compressed, absolute, counters),
        )
        without_run = timed(
            "rp-no-shortcut",
            lambda counters: mine_rp(
                compressed, absolute, counters, single_group_shortcut=False
            ),
        )
        _check_same(with_run, without_run, f"shortcut ablation {dataset} xi={relative}")
        rows.append(
            [
                relative,
                with_run.seconds,
                without_run.seconds,
                with_run.counters.single_group_enumerations,
                with_run.counters.projections,
                without_run.counters.projections,
            ]
        )
    return headers, rows


def two_step_cold_start(
    dataset: str, seed: int = 0
) -> tuple[list[str], list[list[object]]]:
    """The paper's Observation-1 proposal, measured end to end.

    Cold-start mining at a low support, two ways: (a) directly with
    H-Mine; (b) mine at a high support first, compress with MCP, then
    mine the compressed database — the split the paper suggests
    exploring. Both totals include every phase."""
    workload = prepare_workload(dataset, seed)
    relative = workload.spec.xi_new_sweep[-1]
    absolute = workload.absolute_support(relative)
    headers = ["plan", "phase_1_s", "phase_2_s", "phase_3_s", "total_s", "patterns"]
    direct = run_baseline("hmine", workload.db, absolute)

    started = time.perf_counter()
    compression = compress(workload.db, workload.old_patterns, "mcp", seed=seed)
    compress_seconds = time.perf_counter() - started
    recycled = run_recycling("hmine", compression.compressed, absolute, "mcp")
    _check_same(direct, recycled, f"two-step {dataset}")
    rows: list[list[object]] = [
        ["direct", direct.seconds, 0.0, 0.0, direct.seconds, direct.pattern_count],
        [
            "two-step",
            workload.old_mining_seconds,
            compress_seconds,
            recycled.seconds,
            workload.old_mining_seconds + compress_seconds + recycled.seconds,
            recycled.pattern_count,
        ],
    ]
    return headers, rows


def miner_sweep(dataset: str, seed: int = 0) -> tuple[list[str], list[list[object]]]:
    """Every registered miner (both kinds, both backends) on one dataset.

    Iterates the miner registry rather than any hard-coded name list, so
    a newly registered miner shows up here with zero wiring. Baselines
    run on the raw database, recycling miners on the MCP-compressed one;
    every run is checked against the first for the correctness invariant.
    The brute-force oracle is skipped when transactions exceed its
    enumeration limit.
    """
    workload = prepare_workload(dataset, seed)
    relative = workload.spec.xi_new_sweep[len(workload.spec.xi_new_sweep) // 2]
    absolute = workload.absolute_support(relative)
    headers = [
        "miner", "kind", "backend", "memory_budget",
        "seconds", "work", "patterns",
    ]
    rows: list[list[object]] = []
    reference: MiningRun | None = None
    max_len = max((len(tx) for tx in workload.db), default=0)
    for spec in iter_miners():
        if spec.name == "bruteforce" and max_len > 20:
            continue
        if spec.kind == "condensed":
            run = run_condensed(spec.name, workload.db, absolute)
        elif spec.needs_compressed:
            run = run_recycling(spec.name, workload.compressions["mcp"].compressed,
                                absolute, "mcp")
        else:
            run = run_baseline(spec.name, workload.db, absolute)
        if reference is None:
            reference = run
        else:
            _check_same(reference, run, f"miner sweep {dataset}/{spec.kind}/{spec.name}")
        rows.append(
            [
                spec.name,
                spec.kind,
                spec.backend,
                "yes" if spec.supports_memory_budget else "-",
                run.seconds,
                run.counters.total_work(),
                run.pattern_count,
            ]
        )
    return headers, rows


def grouped_kernel_benchmark(
    dataset: str, seed: int = 0
) -> tuple[list[str], list[list[object]]]:
    """Group-kernel backend comparison: python loops vs vertical bitmaps.

    Runs the shared Phase 2 kernel (:func:`mine_grouped`) over the
    MCP-compressed database with both backends at every sweep support.
    The result sets must be bit-identical — the backends differ only in
    how they count group members (tail scans vs one ``&`` + popcount per
    candidate), which is where dense data rewards the vertical layout.
    """
    workload = prepare_workload(dataset, seed)
    compressed = workload.compressions["mcp"].compressed
    headers = [
        "xi_new", "abs_sup", "patterns",
        "python_s", "bitset_s", "speedup",
        "shortcut_fires", "group_counts",
    ]
    rows: list[list[object]] = []
    for relative in workload.spec.xi_new_sweep:
        absolute = workload.absolute_support(relative)
        python_run = timed(
            "grouped-python",
            lambda counters: mine_grouped(
                compressed, absolute, counters, backend="python"
            ),
        )
        bitset_run = timed(
            "grouped-bitset",
            lambda counters: mine_grouped(
                compressed, absolute, counters, backend="bitset"
            ),
        )
        _check_same(python_run, bitset_run, f"grouped {dataset} xi={relative}")
        rows.append(
            [
                relative,
                absolute,
                python_run.pattern_count,
                python_run.seconds,
                bitset_run.seconds,
                speedup(python_run, bitset_run),
                bitset_run.counters.single_group_enumerations,
                bitset_run.counters.group_counts,
            ]
        )
    return headers, rows


def service_benchmark(
    dataset: str,
    seed: int = 0,
    tenants: int = 3,
    sweep: Sequence[float] | None = None,
) -> tuple[list[str], list[list[object]]]:
    """Warm-warehouse service vs cold mining on a multi-tenant sweep.

    Replays an interleaved workload — ``tenants`` users each requesting
    every support in the dataset's sweep, highest first — through a
    warehouse-backed :class:`~repro.service.MiningService`, and charges
    each request the machine-independent ``CostCounters.total_work()``.
    The cold column is what a warehouse-less platform pays: a full
    baseline mine per request (computed once per distinct support, since
    cold mining is deterministic). The first request at each new lowest
    support pays mine/recycle cost; every later tenant's request is a
    filter hit, which is where the warehouse's amortization shows up.
    """
    from repro.service import MineRequest, MiningService, PatternWarehouse

    workload = prepare_workload(dataset, seed)
    db = workload.db
    headers = [
        "tenant", "xi_new", "abs_sup", "path", "feedstock",
        "work_warm", "work_cold", "patterns",
    ]
    supports = sorted(
        sweep if sweep is not None else workload.spec.xi_new_sweep, reverse=True
    )
    cold_runs = {
        workload.absolute_support(rel): run_baseline(
            "hmine", db, workload.absolute_support(rel)
        )
        for rel in supports
    }
    rows: list[list[object]] = []
    total_warm = 0
    total_cold = 0
    warehouse = PatternWarehouse()
    with MiningService(warehouse=warehouse, max_workers=1) as service:
        for relative in supports:
            absolute = workload.absolute_support(relative)
            cold = cold_runs[absolute]
            for tenant_index in range(tenants):
                response = service.execute(
                    MineRequest(db=db, support=absolute, tenant=f"user-{tenant_index}")
                )
                if response.patterns != cold.patterns:
                    raise BenchmarkError(
                        f"service {dataset} xi={relative}: warm result disagreed "
                        f"with cold mining ({response.pattern_count} vs "
                        f"{cold.pattern_count} patterns)"
                    )
                warm_work = response.counters.total_work() if not response.coalesced else 0
                cold_work = cold.counters.total_work()
                total_warm += warm_work
                total_cold += cold_work
                rows.append(
                    [
                        response.tenant,
                        relative,
                        absolute,
                        response.path,
                        response.feedstock_support or "-",
                        warm_work,
                        cold_work,
                        response.pattern_count,
                    ]
                )
    rows.append(["TOTAL", "-", "-", "-", "-", total_warm, total_cold, "-"])
    return headers, rows


#: The four traffic scenarios the service-load bench compares. The first
#: pair isolates cross-request batching (same FIFO arrival order, merge
#: on/off); the second pair isolates admission control (same paced
#: backlog, priority+shedding on/off). Work counters are
#: machine-independent, so the deltas are CI-gateable.
SERVICE_LOAD_SCENARIOS = (
    "per-request",
    "batched",
    "no-admission",
    "admission",
)


def service_load_rows(
    dataset: str,
    seed: int = 0,
    requests: int = 32,
    tenants: int = 6,
    burst_length: int = 8,
    queue_depth: int = 8,
    pumps_per_burst: int = 4,
    sweep: Sequence[float] | None = None,
) -> list[dict[str, object]]:
    """Gateway load benchmark: throughput and tail latency per scenario.

    Replays one seeded heavy-traffic trace
    (:func:`repro.gateway.synthesize_traffic`: Zipfian tenants,
    support-ladder sessions, burst arrivals) through four gateway
    configurations over cold (warehouse-less) services, so the deltas
    isolate the gateway's own amortization from the warehouse's — on
    dense data a warm warehouse's staged recycling can beat one deep
    mine outright (the paper's thesis), which would confound the
    batching comparison this bench exists to make:

    * ``per-request`` / ``batched`` — every burst queues, then drains
      fully; the only difference is cross-request batching. The work
      delta is batching's amortization: one mine at the burst-minimum
      support versus a mine-or-recycle per distinct support.
    * ``no-admission`` / ``admission`` — bursts arrive faster than the
      gateway pumps (``pumps_per_burst`` < ``burst_length``), so a
      backlog builds. ``no-admission`` is the naive front end: FIFO,
      unbounded queue, everything eventually served. ``admission`` is
      the gateway doing its job: priority lanes, a depth bound of
      ``queue_depth``, lowest-priority work shed under pressure.
      Batching is off in both so the latency comparison isolates
      scheduling and shedding.

    Latency rows carry both bases: wall seconds (machine-dependent,
    advisory) and **work position** — the gateway's cumulative
    machine-independent work counter at resolution — which is what the
    acceptance bars gate on. Every served response is verified
    bit-identical to a cold from-scratch mine before it counts.
    """
    from repro.data.datasets import get_dataset
    from repro.gateway import (
        GatewayConfig,
        MiningGateway,
        TrafficConfig,
        bursts,
        synthesize_traffic,
    )
    from repro.service import MiningService

    spec = get_dataset(dataset)
    db = spec.load(seed)
    points = sweep if sweep is not None else spec.xi_new_sweep
    supports = sorted(
        {db.relative_to_absolute(rel) for rel in points}, reverse=True
    )
    trace = synthesize_traffic(
        db,
        supports,
        TrafficConfig(
            requests=requests,
            tenants=tenants,
            seed=seed * 7919 + 13,
            burst_length=burst_length,
            deadline_fraction=0.0,
        ),
    )
    arrival_bursts = bursts(trace, gap_threshold_seconds=0.01)
    expected = {
        support: run_baseline("hmine", db, support).patterns
        for support in supports
    }

    configs = {
        "per-request": GatewayConfig(batching=False, fifo=True),
        "batched": GatewayConfig(batching=True, fifo=True),
        "no-admission": GatewayConfig(batching=False, fifo=True),
        "admission": GatewayConfig(
            batching=False, max_queue_depth=queue_depth, shed_on_full=True
        ),
    }
    #: The drain-fully pair vs the paced-backlog pair.
    paced = {"no-admission", "admission"}

    rows: list[dict[str, object]] = []
    for scenario in SERVICE_LOAD_SCENARIOS:
        config = configs[scenario]
        started = time.perf_counter()
        with MiningService(
            warehouse=None, max_workers=1
        ) as service:
            gateway = MiningGateway(service, config, start=False)
            futures = []
            for burst in arrival_bursts:
                futures.extend(gateway.submit(req) for req in burst)
                if scenario in paced:
                    for _ in range(pumps_per_burst):
                        gateway.pump_once()
                else:
                    gateway.drain()
            gateway.drain()
            elapsed = time.perf_counter() - started
            served = 0
            for future in futures:
                outcome = future.result()
                if outcome.status != "served":
                    continue
                served += 1
                support = outcome.gateway_request.request.absolute_support()
                if outcome.patterns != expected[support]:
                    raise BenchmarkError(
                        f"service-load {dataset} [{scenario}] support="
                        f"{support}: gateway result disagreed with cold "
                        "mining"
                    )
            stats = gateway.stats
            computations = service.stats.computations
            gateway.close()
        rows.append(
            {
                "dataset": dataset,
                "scenario": scenario,
                "requests": len(futures),
                "served": served,
                "shed": stats.shed,
                "rejected": stats.rejected,
                "expired": stats.expired,
                "computations": computations,
                "merged_batches": stats.merged_batches,
                "queue_high_water": stats.queue_high_water,
                "total_work": stats.work_executed,
                "work_per_served": (
                    stats.work_executed / served if served else 0.0
                ),
                "interactive_p50_work": stats.work_quantile(
                    "interactive", 0.50
                ),
                "interactive_p99_work": stats.work_quantile(
                    "interactive", 0.99
                ),
                "standard_p99_work": stats.work_quantile("standard", 0.99),
                "interactive_p99_s": stats.latency_quantile(
                    "interactive", 0.99
                ),
                "elapsed_seconds": elapsed,
            }
        )
    return rows


def service_load_benchmark(
    dataset: str, seed: int = 0
) -> tuple[list[str], list[list[object]]]:
    """CLI-report wrapper around :func:`service_load_rows`."""
    headers = [
        "scenario", "served", "shed", "rejected", "computations",
        "queue_HWM", "total_work", "work_per_served",
        "int_p99_work", "int_p99_s", "seconds",
    ]
    rows = [
        [
            row["scenario"],
            row["served"],
            row["shed"],
            row["rejected"],
            row["computations"],
            row["queue_high_water"],
            row["total_work"],
            round(float(row["work_per_served"]), 1),
            row["interactive_p99_work"],
            row["interactive_p99_s"],
            row["elapsed_seconds"],
        ]
        for row in service_load_rows(dataset, seed)
    ]
    return headers, rows


#: Byte budget the warehouse bench charges every representation against.
#: Sized so a dense dataset's condensed entries all fit while its
#: full-set entries are too large to bank — the regime where the
#: condensed warehouse earns its warm-path hit rate.
DEFAULT_WAREHOUSE_BUDGET = 8 * 1024


def warehouse_rows(
    dataset: str,
    seed: int = 0,
    tenants: int = 3,
    byte_budget: int = DEFAULT_WAREHOUSE_BUDGET,
    representations: Sequence[str] | None = None,
) -> list[dict[str, object]]:
    """Warehouse footprint and warm-path hit rate per representation.

    Replays the same interleaved multi-tenant sweep as
    :func:`service_benchmark` once per pattern representation, every run
    against an identically budgeted warehouse. Every response is checked
    bit-identical to a cold from-scratch mine before it counts. A request
    is a *warm hit* when the warehouse served it (the ``filter`` or
    ``recycle`` path); ``mine`` means the platform paid full price. The
    row also carries the warehouse's closing footprint — entries, stored
    bytes, bytes per entry, and the condensation ratio (what the same
    entries would cost as full sets, over what they actually cost) — so
    the before/after of condensation is read straight off the ``full``
    row versus the ``closed``/``ndi`` rows.
    """
    from repro.data.patterns import REPRESENTATIONS
    from repro.service import MineRequest, MiningService, PatternWarehouse

    workload = prepare_workload(dataset, seed)
    db = workload.db
    supports = sorted(workload.spec.xi_new_sweep, reverse=True)
    cold_runs = {
        workload.absolute_support(rel): run_baseline(
            "hmine", db, workload.absolute_support(rel)
        )
        for rel in supports
    }
    rows: list[dict[str, object]] = []
    for representation in representations or REPRESENTATIONS:
        warehouse = PatternWarehouse(
            byte_budget=byte_budget, representation=representation
        )
        requests = 0
        warm_hits = 0
        total_work = 0
        with MiningService(warehouse=warehouse, max_workers=1) as service:
            for relative in supports:
                absolute = workload.absolute_support(relative)
                cold = cold_runs[absolute]
                for tenant_index in range(tenants):
                    response = service.execute(
                        MineRequest(
                            db=db, support=absolute, tenant=f"user-{tenant_index}"
                        )
                    )
                    if response.patterns != cold.patterns:
                        raise BenchmarkError(
                            f"warehouse {dataset}/{representation} xi={relative}: "
                            f"warm result disagreed with cold mining"
                        )
                    requests += 1
                    if response.path in ("filter", "recycle"):
                        warm_hits += 1
                    if not response.coalesced:
                        total_work += response.counters.total_work()
        stats = warehouse.stats()
        entries = stats["entries"]
        rows.append(
            {
                "dataset": dataset,
                "representation": representation,
                "byte_budget": byte_budget,
                "requests": requests,
                "warm_hits": warm_hits,
                "warm_hit_rate": round(warm_hits / requests, 4) if requests else 0.0,
                "work": total_work,
                "entries": entries,
                "stored_bytes": stats["stored_bytes"],
                "bytes_per_entry": (
                    round(stats["stored_bytes"] / entries, 1) if entries else 0.0
                ),
                "full_bytes": stats["full_bytes"],
                "condensation_ratio": round(warehouse.condensation_ratio(), 2),
                "evictions": stats["evictions"],
                "rejections": stats["rejections"],
            }
        )
    return rows


def warehouse_benchmark(
    dataset: str, seed: int = 0
) -> tuple[list[str], list[list[object]]]:
    """CLI-report wrapper around :func:`warehouse_rows`."""
    headers = [
        "repr", "warm_hits", "requests", "hit_rate", "work",
        "entries", "stored_B", "B_per_entry", "ratio", "rejections",
    ]
    rows = [
        [
            row["representation"],
            row["warm_hits"],
            row["requests"],
            row["warm_hit_rate"],
            row["work"],
            row["entries"],
            row["stored_bytes"],
            row["bytes_per_entry"],
            row["condensation_ratio"],
            row["rejections"],
        ]
        for row in warehouse_rows(dataset, seed)
    ]
    return headers, rows


def parallel_speedup_rows(
    dataset: str,
    seed: int = 0,
    jobs_grid: Sequence[int] = (1, 2, 4),
    task: str = "recycle",
    scale: int = 1,
    executor: str | None = None,
) -> list[dict[str, object]]:
    """Speedup-vs-jobs curve for the sharded engine on one dataset.

    Each row times a full request (Phase 1 compression where the task
    recycles + shard pass + merge recount) at the dataset's middle sweep
    support and checks the result bit-identical to the serial ``jobs=1``
    run. ``task`` selects warm recycling (``"recycle"``, native size) or
    cold scratch mining (``"mine"``); for the latter ``scale`` replicates
    the database so the row-dependent mining cost dominates the
    per-pattern constants, the regime the paper's full-size datasets
    (30–60x these surrogates) live in.

    Two timings are reported: measured wall-clock, and the critical path
    (Phase 1 + slowest shard + merge) — what an ideally parallel host
    would pay. ``speedup`` uses whichever basis the machine can honestly
    deliver: wall-clock through the real process pool when there are at
    least ``jobs`` CPUs; otherwise the critical path from the *inline*
    executor, whose sequential shard timings are free of the CPU
    contention that inflates concurrent workers sharing one core.

    Every row also carries ``serving_serial_seconds``: one serial run of
    what the service runs on the same input and support, a cold
    ``eclat-bitset`` mine for either task (the service never recycles),
    the baseline a sharded run has to beat to be worth serving.
    """
    import os

    from repro.core.planner import PATH_MINE, MiningPlan, execute_plan
    from repro.data.transactions import TransactionDatabase
    from repro.parallel import ParallelEngine

    if task not in ("recycle", "mine"):
        raise BenchmarkError(f"unknown parallel task {task!r}")
    cpus = os.cpu_count() or 1
    if executor is None:
        executor = "process" if cpus >= max(jobs_grid) else "inline"
    workload = prepare_workload(dataset, seed)
    db = workload.db
    xi_new = workload.spec.xi_new_sweep[len(workload.spec.xi_new_sweep) // 2]
    absolute = workload.absolute_support(xi_new)
    if scale > 1:
        db = TransactionDatabase(list(db) * scale)
        absolute *= scale
    started = time.perf_counter()
    serving = execute_plan(MiningPlan(PATH_MINE), db, absolute)
    serving_seconds = round(time.perf_counter() - started, 4)
    rows: list[dict[str, object]] = []
    reference = None
    serial_seconds = 0.0
    for jobs in jobs_grid:
        engine = ParallelEngine(jobs, executor=executor)
        if task == "recycle":
            outcome = engine.recycle_mine(
                db, workload.old_patterns, absolute, algorithm="hmine"
            )
        else:
            outcome = engine.mine(db, absolute, algorithm="hmine")
        if outcome.fallback:
            raise BenchmarkError(
                f"parallel {dataset} jobs={jobs} fell back: "
                f"{outcome.fallback_reason}"
            )
        if reference is None:
            if outcome.patterns != serving:
                raise BenchmarkError(
                    f"parallel {dataset} serving kernel diverged from serial"
                )
            reference = outcome.patterns
            serial_seconds = outcome.elapsed_seconds
        identical = outcome.patterns == reference
        if not identical:
            raise BenchmarkError(
                f"parallel {dataset} jobs={jobs} diverged from serial "
                f"({len(outcome.patterns)} vs {len(reference)} patterns)"
            )
        basis = (
            "wall"
            if (jobs == 1 or (executor == "process" and cpus >= jobs))
            else "critical_path"
        )
        effective = (
            outcome.elapsed_seconds if basis == "wall"
            else outcome.critical_path_seconds
        )
        rows.append(
            {
                "dataset": dataset,
                "task": task,
                "scale": scale,
                "transactions": len(db),
                "xi_new": xi_new,
                "abs_support": absolute,
                "jobs": jobs,
                "shards": len(outcome.shards),
                "patterns": len(outcome.patterns),
                "executor": executor,
                "wall_seconds": round(outcome.elapsed_seconds, 4),
                "critical_path_seconds": round(outcome.critical_path_seconds, 4),
                "serving_serial_seconds": serving_seconds,
                "speedup_basis": basis,
                "cpus": cpus,
                "speedup": round(serial_seconds / effective, 2) if effective else 0.0,
                "identical": identical,
            }
        )
    return rows


def parallel_benchmark(
    dataset: str, seed: int = 0
) -> tuple[list[str], list[list[object]]]:
    """CLI-report wrapper around :func:`parallel_speedup_rows`."""
    headers = [
        "jobs", "shards", "wall_s", "critical_s", "basis", "speedup", "patterns",
    ]
    rows = [
        [
            row["jobs"],
            row["shards"],
            row["wall_seconds"],
            row["critical_path_seconds"],
            row["speedup_basis"],
            row["speedup"],
            row["patterns"],
        ]
        for row in parallel_speedup_rows(dataset, seed)
    ]
    return headers, rows


#: Delta sizes (fraction of the base database appended) swept by the
#: incremental experiment: from warehouse-refresh-sized trickles to a
#: bulk load where re-mining should win.
INCREMENTAL_CHURNS: tuple[float, ...] = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)


def incremental_rows(
    dataset: str,
    seed: int = 0,
    churns: Sequence[float] | None = None,
) -> list[dict[str, object]]:
    """Update-path economics: FUP vs recycle-update vs scratch per churn.

    For each churn level an insert-only delta of ``churn * |db|``
    transactions (drawn cyclically from the base database, so the
    distribution is preserved and the sweep is deterministic) is applied
    at *constant relative support* — the threshold grows with the
    database, FUP's home-turf precondition. Three contenders re-derive
    the post-update pattern set:

    * **scratch** — H-Mine on the grown database (the cold baseline);
    * **fup** — :func:`~repro.core.fup.fup_update_delta`, scanning only
      the increment for surviving patterns and holding newcomers to the
      delta threshold — run only when :func:`~repro.core.fup.
      fup_applicable` certifies the feedstock/threshold pair (``fup_work
      = None`` otherwise, mirroring how the planner would refuse the
      mode);
    * **recycle** — :func:`~repro.core.incremental.incremental_mine`,
      compressing the grown database with the old patterns and running
      a recycling miner.

    Every contender is checked bit-identical to scratch before it
    counts. Both machine-independent work (``CostCounters.total_work``)
    and wall seconds are recorded; the ``winner`` column is decided on
    work. Each row also replays the same update through a warehoused
    :class:`~repro.service.MiningService` with the version chain
    attached and reports whether the service actually served the
    post-delta request on the ``update`` path.
    """
    from repro.core.fup import fup_applicable, fup_update_delta
    from repro.core.incremental import incremental_mine
    from repro.data.versioned import DatabaseDelta, VersionedDatabase
    from repro.metrics.counters import CostCounters
    from repro.mining.hmine import mine_hmine
    from repro.service import MineRequest, MiningService, PatternWarehouse

    workload = prepare_workload(dataset, seed)
    db = workload.db
    old_support = workload.xi_old_absolute
    old_patterns = workload.old_patterns
    base_rows = db.transactions
    rows: list[dict[str, object]] = []
    for churn in churns or INCREMENTAL_CHURNS:
        delta_size = max(1, int(churn * len(db)))
        appended = tuple(
            base_rows[index % len(base_rows)] for index in range(delta_size)
        )
        delta = DatabaseDelta.append(appended)
        v0 = VersionedDatabase.initial(db)
        v1 = v0.apply(delta)
        new_db = v1.db
        # Constant relative support: the threshold the feedstock was
        # mined at, rescaled to the grown database.
        new_support = max(1, int(workload.spec.xi_old * len(new_db)))

        scratch_counters = CostCounters()
        started = time.perf_counter()
        scratch = mine_hmine(new_db, new_support, scratch_counters)
        scratch_wall = time.perf_counter() - started

        works: dict[str, int] = {"scratch": scratch_counters.total_work()}
        fup_wall: float | None = None
        if fup_applicable(delta, old_support, new_support, len(db)):
            fup_counters = CostCounters()
            started = time.perf_counter()
            fup = fup_update_delta(
                db, delta, old_patterns, new_support, fup_counters
            )
            fup_wall = round(time.perf_counter() - started, 4)
            if fup != scratch:
                raise BenchmarkError(
                    f"incremental {dataset} churn={churn}: "
                    "FUP disagreed with scratch"
                )
            works["fup"] = fup_counters.total_work()

        recycle_counters = CostCounters()
        started = time.perf_counter()
        recycled = incremental_mine(
            new_db, old_patterns, new_support, counters=recycle_counters
        )
        recycle_wall = time.perf_counter() - started
        if recycled != scratch:
            raise BenchmarkError(
                f"incremental {dataset} churn={churn}: "
                "recycle-update disagreed with scratch"
            )
        works["recycle"] = recycle_counters.total_work()
        winner = min(works, key=works.get)

        update_hits = 0
        with MiningService(warehouse=PatternWarehouse()) as service:
            service.execute(MineRequest(db=db, support=old_support, version=v0))
            response = service.execute(
                MineRequest(db=new_db, support=new_support, version=v1)
            )
            if response.patterns != scratch:
                raise BenchmarkError(
                    f"incremental {dataset} churn={churn}: "
                    "service update path disagreed with scratch"
                )
            if response.path == "update":
                update_hits += 1
        rows.append(
            {
                "dataset": dataset,
                "churn": churn,
                "delta_rows": delta_size,
                "old_support": old_support,
                "new_support": new_support,
                "patterns": len(scratch),
                "scratch_work": works["scratch"],
                "scratch_wall_s": round(scratch_wall, 4),
                "fup_work": works.get("fup"),
                "fup_wall_s": fup_wall,
                "recycle_work": works["recycle"],
                "recycle_wall_s": round(recycle_wall, 4),
                "winner": winner,
                "update_path_hits": update_hits,
                "update_path_requests": 1,
            }
        )
    return rows


def incremental_crossover(rows: Sequence[dict[str, object]]) -> float | None:
    """The smallest swept churn at which scratch mining wins on work.

    ``None`` when the update path won everywhere — an honest record
    either way, written into ``BENCH_incremental.json``.
    """
    for row in sorted(rows, key=lambda r: r["churn"]):
        if row["winner"] == "scratch":
            return float(row["churn"])
    return None


def incremental_benchmark(
    dataset: str, seed: int = 0
) -> tuple[list[str], list[list[object]]]:
    """CLI-report wrapper around :func:`incremental_rows`."""
    headers = [
        "churn", "delta_rows", "patterns", "scratch_work", "fup_work",
        "recycle_work", "winner", "scratch_s", "fup_s", "recycle_s", "update_hit",
    ]
    rows = [
        [
            row["churn"],
            row["delta_rows"],
            row["patterns"],
            row["scratch_work"],
            row["fup_work"] if row["fup_work"] is not None else "n/a",
            row["recycle_work"],
            row["winner"],
            row["scratch_wall_s"],
            row["fup_wall_s"] if row["fup_wall_s"] is not None else "n/a",
            row["recycle_wall_s"],
            f"{row['update_path_hits']}/{row['update_path_requests']}",
        ]
        for row in incremental_rows(dataset, seed)
    ]
    return headers, rows


def run_experiment(name: str, seed: int = 0) -> tuple[list[str], list[list[object]]]:
    """Dispatch an experiment by CLI-friendly name."""
    if name == "table3":
        return table3(seed)
    if name.startswith("fig"):
        number = int(name[3:])
        if number in FIGURES:
            return figure(number, seed)
        if number in MEMORY_FIGURES:
            return memory_limited_figure(number, seed)
        raise BenchmarkError(f"unknown figure {number}")
    if name == "observations":
        return observations(seed)
    if name.startswith("ablation-strategies-"):
        return ablation_strategies(name.rsplit("-", 1)[1], seed)
    if name.startswith("ablation-shortcut-"):
        return ablation_single_group_shortcut(name.rsplit("-", 1)[1], seed)
    if name.startswith("two-step-"):
        return two_step_cold_start(name.rsplit("-", 1)[1], seed)
    if name.startswith("miners-"):
        return miner_sweep(name.split("-", 1)[1], seed)
    if name.startswith("service-load-"):
        return service_load_benchmark(name.split("-", 2)[2], seed)
    if name.startswith("service-"):
        return service_benchmark(name.split("-", 1)[1], seed)
    if name.startswith("warehouse-"):
        return warehouse_benchmark(name.split("-", 1)[1], seed)
    if name.startswith("grouped-"):
        return grouped_kernel_benchmark(name.split("-", 1)[1], seed)
    if name.startswith("parallel-"):
        return parallel_benchmark(name.split("-", 1)[1], seed)
    if name.startswith("incremental-"):
        return incremental_benchmark(name.split("-", 1)[1], seed)
    raise BenchmarkError(
        f"unknown experiment {name!r} — try table3, fig9..fig24, observations, "
        "ablation-strategies-<dataset>, ablation-shortcut-<dataset>, "
        "two-step-<dataset>, miners-<dataset>, service-<dataset>, "
        "service-load-<dataset>, warehouse-<dataset>, grouped-<dataset>, "
        "parallel-<dataset>, incremental-<dataset>"
    )
