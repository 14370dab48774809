"""Command-line interface: ``repro mine | recycle | update | compress | bench |
miners | serve-batch | warehouse | report``.

Examples::

    repro mine --dataset weather --support 0.05
    repro mine --input data.dat --support 100 --algorithm fpgrowth \
        --output patterns.txt
    repro recycle --dataset weather --old-support 0.05 --support 0.02
    repro update --dataset weather --support 0.05 --append new.dat --delete 0,7
    repro compress --dataset connect4 --old-support 0.95 --strategy mlp
    repro bench --experiment table3
    repro miners --kind baseline
    repro serve-batch --workload traffic.json --byte-budget 1000000
    repro serve-batch --workload traffic.json --queue-depth 32 \
        --deadline 5 --priority interactive
    repro warehouse --dir ./wh --verify
    repro warehouse recover --dir ./wh
    repro warehouse migrate --dir ./wh --representation closed
    repro warehouse --dir ./wh --gc --dry-run
    repro report render --output-dir report
    repro report gate --policy trends/policy.toml
"""

from __future__ import annotations

import argparse
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

from repro.bench.experiments import EXPERIMENT_FAMILIES, run_experiment
from repro.bench.report import render_report
from repro.core.compression import compress
from repro.core.recycle import recycle_mine_detailed
from repro.data.datasets import DATASETS, get_dataset
from repro.data.io import read_patterns, read_transactions, write_patterns
from repro.data.patterns import REPRESENTATIONS
from repro.data.transactions import TransactionDatabase
from repro.errors import ReproError, StorageError
from repro.metrics.counters import CostCounters
from repro.mining.registry import KINDS, get_miner, iter_miners, miner_names


def _load_database(args: argparse.Namespace) -> TransactionDatabase:
    if args.input:
        return read_transactions(args.input)
    if args.dataset:
        return get_dataset(args.dataset).load(args.seed)
    raise ReproError("provide either --dataset or --input")


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=sorted(DATASETS), help="built-in synthetic dataset"
    )
    parser.add_argument("--input", help="FIMI-format transaction file")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")


def _command_mine(args: argparse.Namespace) -> int:
    db = _load_database(args)
    support = db.relative_to_absolute(args.support)
    started = time.perf_counter()
    patterns = get_miner(args.algorithm, kind="baseline").fn(db, support)
    elapsed = time.perf_counter() - started
    print(
        f"{args.algorithm}: {len(patterns)} patterns (max length "
        f"{patterns.max_length()}) at support {support} in {elapsed:.2f}s"
    )
    if args.output:
        write_patterns(patterns, args.output)
        print(f"wrote {args.output}")
    return 0


def _command_compress(args: argparse.Namespace) -> int:
    db = _load_database(args)
    old_support = db.relative_to_absolute(args.old_support)
    old_patterns = (
        read_patterns(args.patterns)
        if args.patterns
        else get_miner("hmine", kind="baseline").fn(db, old_support)
    )
    result = compress(db, old_patterns, args.strategy)
    compressed = result.compressed
    print(
        f"{args.strategy.upper()}: {len(compressed.groups)} groups, "
        f"{compressed.grouped_tuple_count()}/{compressed.original_tuple_count} "
        f"tuples grouped, ratio {compressed.compression_ratio():.3f}, "
        f"{result.elapsed_seconds:.2f}s"
    )
    return 0


def _command_recycle(args: argparse.Namespace) -> int:
    db = _load_database(args)
    old_support = db.relative_to_absolute(args.old_support)
    support = db.relative_to_absolute(args.support)
    old_patterns = (
        read_patterns(args.patterns)
        if args.patterns
        else get_miner("hmine", kind="baseline").fn(db, old_support)
    )
    counters = CostCounters()
    started = time.perf_counter()
    outcome = recycle_mine_detailed(
        db, old_patterns, support,
        algorithm=args.algorithm, strategy=args.strategy, counters=counters,
    )
    elapsed = time.perf_counter() - started
    print(
        f"{args.algorithm}-{args.strategy}: {len(outcome.patterns)} patterns at "
        f"support {support} in {elapsed:.2f}s "
        f"(compression ratio {outcome.compression.ratio:.3f}, "
        f"group-count shortcuts {counters.group_counts})"
    )
    if args.output:
        write_patterns(outcome.patterns, args.output)
        print(f"wrote {args.output}")
    return 0


def _command_update(args: argparse.Namespace) -> int:
    """Mine, evolve the database by a delta, and re-mine via the update path."""
    from repro.core.session import MiningSession

    db = _load_database(args)
    if not args.append and not args.delete:
        raise ReproError("provide --append and/or --delete to form a delta")
    session = MiningSession(db, algorithm=args.algorithm, strategy=args.strategy)
    session.mine(args.support)
    first = session.last_report
    print(
        f"initial: {first.pattern_count} patterns at support "
        f"{first.absolute_support} in {first.elapsed_seconds:.2f}s "
        f"(work {first.counters.total_work()})"
    )
    appended = deleted = 0
    if args.append:
        batch = read_transactions(args.append).transactions
        session.append_batch(batch)
        appended = len(batch)
    if args.delete:
        try:
            tids = [int(part) for part in args.delete.split(",") if part.strip()]
        except ValueError:
            raise ReproError(
                f"--delete must be a comma-separated tid list, got {args.delete!r}"
            ) from None
        session.delete_tids(tids)
        deleted = len(tids)
    churn = (appended + deleted) / max(1, len(session.db))
    print(f"delta: +{appended}/-{deleted} rows against {len(session.db)} "
          f"current rows (churn {churn:.1%})")
    patterns = session.mine(args.support)
    report = session.last_report
    mode = f" mode={report.update_mode}" if report.update_mode else ""
    print(
        f"re-mine: path={report.path}{mode}, {len(patterns)} patterns in "
        f"{report.elapsed_seconds:.2f}s (work {report.counters.total_work()})"
    )
    scratch = CostCounters()
    miner = get_miner(
        args.algorithm if args.algorithm != "naive" else "hmine", kind="baseline"
    ).fn
    scratch_patterns = miner(
        session.db, session.db.relative_to_absolute(args.support), scratch
    )
    if scratch_patterns != patterns:
        raise ReproError("update path diverged from scratch mining")
    update_work = report.counters.total_work()
    scratch_work = scratch.total_work()
    if scratch_work > 0 and update_work < scratch_work:
        print(
            f"scratch re-mine work {scratch_work} — update path saved "
            f"{1 - update_work / scratch_work:.1%} (verified identical)"
        )
    else:
        print(
            f"scratch re-mine work {scratch_work} — update path cost more "
            "at this churn (verified identical)"
        )
    return 0


def _command_miners(args: argparse.Namespace) -> int:
    headers = ["name", "kind", "input", "memory-budget", "description"]
    rows: list[list[object]] = [
        [
            spec.name,
            spec.kind,
            "compressed" if spec.needs_compressed else "database",
            "yes" if spec.supports_memory_budget else "-",
            spec.description,
        ]
        for spec in iter_miners(args.kind)
    ]
    print(render_report("registered miners", headers, rows))
    return 0


def _command_serve_batch(args: argparse.Namespace) -> int:
    """Replay a workload through a manual-mode gateway.

    The mining requests between two database operations are queued
    together, so contemporaries batch, and served before the operation
    registers its version: ops are barriers, and a request after an
    append is planned against the answers banked before it. Manual mode
    computes each plan on this thread, so the replay is deterministic
    unless ``--deadline`` lets wall-clock time expire requests.
    """
    from repro.gateway import PRIORITY_CLASSES, GatewayConfig, MiningGateway
    from repro.service import DeltaOp, MiningService, PatternWarehouse
    from repro.service.workload import load_workload_items

    items = load_workload_items(args.workload)
    config = GatewayConfig(
        max_queue_depth=args.queue_depth,
        batching=not args.no_batching,
        max_batch_size=args.max_batch,
        default_priority=args.priority,
        default_deadline_seconds=args.deadline,
    )
    warehouse = (
        None
        if args.cold
        else PatternWarehouse(
            byte_budget=args.byte_budget,
            directory=args.warehouse_dir,
            representation=args.representation,
        )
    )
    started = time.perf_counter()
    with MiningService(warehouse=warehouse) as service:
        with MiningGateway(service, config, start=False) as gateway:
            outcomes = []
            pending = []
            for item in items:
                if isinstance(item, DeltaOp):
                    outcomes += gateway.execute_many(pending)
                    pending = []
                    service.register_version(item.version)
                    service.stats.record_delta_applied()
                else:
                    pending.append(item)
            outcomes += gateway.execute_many(pending)
        elapsed = time.perf_counter() - started
        stats = service.stats.snapshot()
    headers = [
        "tenant", "priority", "status", "support",
        "path", "batch", "patterns", "work", "seconds",
    ]
    rows: list[list[object]] = []
    for outcome in outcomes:
        response = outcome.response
        rows.append(
            [
                outcome.tenant,
                outcome.priority,
                outcome.status,
                outcome.gateway_request.request.absolute_support(),
                response.path if response else "-",
                f"{outcome.batch_size}@{outcome.batch_support}"
                if outcome.batched
                else "-",
                response.pattern_count if response else "-",
                response.counters.total_work() if response else "-",
                response.elapsed_seconds if response else "-",
            ]
        )
    print(render_report(f"serve-batch: {args.workload}", headers, rows))
    gauges = gateway.stats.gauges()
    paths = Counter(outcome.response.path for outcome in outcomes if outcome.ok)
    print(
        f"{len(outcomes)} requests in {elapsed:.2f}s — "
        f"{gauges['gateway_served']:.0f} served / "
        f"{gauges['gateway_shed']:.0f} shed / "
        f"{gauges['gateway_rejected']:.0f} rejected / "
        f"{gauges['gateway_expired']:.0f} expired; "
        f"{paths['filter']} filter / {paths['update']} update / "
        f"{paths['mine']} mine"
    )
    print(
        f"gateway: queue depth HWM {gauges['gateway_queue_high_water']:.0f}, "
        f"{gauges['gateway_batches']:.0f} dispatches, "
        f"{gauges['gateway_merged_batches']:.0f} merged batches covering "
        f"{gauges['gateway_batched_requests']:.0f} requests, "
        f"{gauges['gateway_work_executed']:.0f} work executed"
    )
    for cls in PRIORITY_CLASSES:
        p50 = gauges[f"gateway_p50_{cls}_s"]
        p99 = gauges[f"gateway_p99_{cls}_s"]
        if p50 or p99:
            print(f"gateway {cls}: p50 {p50:.4f}s, p99 {p99:.4f}s")
    if stats["deltas_applied"] or paths["update"]:
        print(
            f"incremental: {stats['deltas_applied']:.0f} deltas applied, "
            f"{stats['versions_registered']:.0f} versions registered, "
            f"{paths['update']} update-path responses"
        )
    if stats["degraded"]:
        degradations = service.stats.degradation_summary()
        details = ", ".join(
            f"{label} ×{count}" for label, count in degradations.items()
        )
        print(f"degraded: {stats['degraded']:.0f} computations ({details})")
    if warehouse is not None:
        wh = warehouse.stats()
        print(
            f"warehouse: {wh['entries']} entries, {wh['stored_bytes']} bytes "
            f"(budget {wh['byte_budget'] or 'unbounded'}), "
            f"{wh['evictions']} evictions, {wh['rejections']} rejections"
        )
        if (
            wh["condensed_entries"]
            or wh["pressure_condensations"]
            or wh["futile_condensations"]
            or wh["promotions"]
        ):
            print(
                f"warehouse: {wh['condensed_entries']} of {wh['entries']} "
                f"entries held condensed; {wh['full_bytes']} full-set bytes "
                f"served from {wh['stored_bytes']} stored "
                f"(condensation ×{warehouse.condensation_ratio():.1f}); "
                f"{wh['pressure_condensations']} condensed under the budget "
                f"to {warehouse.representation}, {wh['futile_condensations']} "
                f"futile, {wh['promotions']} promoted back to full"
            )
        if wh["quarantined"]:
            print(
                f"warehouse: {wh['quarantined']} corrupt pattern file(s) "
                "quarantined at load"
            )
        if wh["recovered_entries"] or wh["recovered_chains"]:
            print(
                f"warehouse: recovered {wh['recovered_entries']} entr"
                f"{'y' if wh['recovered_entries'] == 1 else 'ies'} and "
                f"{wh['recovered_chains']} chain record(s) from disk"
            )
        if wh["gc_dropped_chains"] or wh["gc_collapsed_hops"]:
            print(
                f"warehouse: gc dropped {wh['gc_dropped_chains']} dead "
                f"chain record(s), collapsed {wh['gc_collapsed_hops']} "
                "chain hop(s)"
            )
        if wh["memory_only"]:
            print(
                "warehouse: degraded to memory-only "
                f"({warehouse.memory_only_reason})"
            )
    return 0


def _command_warehouse(args: argparse.Namespace) -> int:
    """Inspect, audit-recover, migrate or garbage-collect a disk-backed
    warehouse."""
    from repro.service import PatternWarehouse

    # A typo in --dir must not make an empty warehouse, whatever the verb.
    if not Path(args.dir).is_dir():
        raise StorageError(f"warehouse directory {args.dir} does not exist")
    # Inspection must not rewrite files behind the user's back: crash
    # recovery runs in audit mode (counted, not applied) unless the
    # invocation explicitly mutates — the `recover` and `migrate` verbs
    # repair, and so does a non-dry `--gc`, which writes the directory
    # anyway.
    mutating = args.verb in ("recover", "migrate") or (args.gc and not args.dry_run)
    warehouse = PatternWarehouse(
        directory=args.dir,
        representation=args.representation,
        repair_on_load=mutating,
    )
    if args.verb == "recover":
        return _warehouse_recover(args, warehouse)
    if args.verb == "migrate":
        migrated = warehouse.migrate()
        print(f"migrate: {migrated} of {len(warehouse)} entries re-written "
              f"as {warehouse.representation} in {args.dir}")
        return 0
    result = _warehouse_list(args, warehouse)
    if args.gc:
        _warehouse_gc(args, warehouse)
    return result


def _warehouse_list(args: argparse.Namespace, warehouse) -> int:
    """The default verb: entry table, stats, optional ``--verify`` audit."""
    rows_data = warehouse.describe_entries()
    headers = [
        "fingerprint", "support", "repr", "entries",
        "expanded", "stored-bytes", "full-bytes", "ratio",
    ]
    rows: list[list[object]] = [
        [
            row["fingerprint"],
            row["absolute_support"],
            row["representation"],
            row["entries"],
            row["expanded"] if row["expanded"] is not None else "-",
            row["stored_bytes"],
            row["full_bytes"] if row["full_bytes"] is not None else "-",
            f"{row['condensation_ratio']:.1f}",
        ]
        for row in rows_data
    ]
    print(render_report(f"warehouse: {args.dir}", headers, rows))
    stats = warehouse.stats()
    print(
        f"{stats['entries']} entries ({stats['condensed_entries']} condensed), "
        f"{stats['stored_bytes']} stored bytes serving {stats['full_bytes']} "
        f"full-set bytes (condensation ×{warehouse.condensation_ratio():.1f})"
    )
    if stats["quarantined"]:
        print(f"{stats['quarantined']} corrupt file(s) not loaded "
              "(`repro warehouse recover` quarantines them)")
    if not args.verify:
        return 0
    failures = 0
    for fingerprint, support in warehouse.keys():
        report = warehouse.verify_entry(fingerprint, support)
        if report.ok:
            print(
                f"verify {fingerprint}@{support} [{report.representation}]: "
                f"ok ({report.checks} checks)"
            )
        else:
            failures += 1
            print(
                f"verify {fingerprint}@{support} [{report.representation}]: "
                f"FAILED ({len(report.violations)} violation(s))"
            )
            for violation in report.violations:
                print(f"  - {violation}")
    return 1 if failures else 0


def _warehouse_recover(args: argparse.Namespace, warehouse) -> int:
    """The ``recover`` verb: sweep crash residue and report what it took.

    Exit status 1 signals quarantined damage — recovery still restored
    everything restorable, but some file was torn beyond its checksum.
    """
    report = warehouse.recovery_report
    stats = warehouse.stats()
    print(f"recover: {args.dir}")
    print(
        f"{stats['entries']} entries, {stats['chain_records']} chain "
        "record(s) recovered"
    )
    if report.stray_tmp_removed:
        print(f"{report.stray_tmp_removed} stray temp file(s) swept")
    for name, reason in report.quarantined:
        print(f"quarantined {name}: {reason}")
    if args.gc:
        _warehouse_gc(args, warehouse)
    return 1 if report.quarantined else 0


def _warehouse_gc(args: argparse.Namespace, warehouse) -> None:
    """Run (or plan, with ``--dry-run``) one garbage-collection pass."""
    report = warehouse.gc(dry_run=args.dry_run)
    verb = "would drop" if report.dry_run else "dropped"
    print(
        f"gc{' (dry run)' if report.dry_run else ''}: "
        f"{verb} {report.dropped_chains} dead chain record(s), collapsed "
        f"{report.collapsed_hops} hop(s) into "
        f"{report.rewritten_chains} rewritten chain(s)"
    )


def _command_report_render(args: argparse.Namespace) -> int:
    """Render markdown + HTML trend reports from the committed BENCH files."""
    from repro.trends import (
        build_report_data,
        load_history,
        load_policy,
        write_report,
    )

    series = [entry.metric for entry in load_policy(args.policy).metrics]
    data = build_report_data(load_history(args.root), series)
    md_path, html_path = write_report(data, args.output_dir)
    benches = len(data["benches"])
    print(
        f"rendered {data['snapshot_count']} snapshot(s) across "
        f"{len(data['commits'])} commit(s) ({benches} bench(es))"
    )
    print(f"wrote {md_path}")
    print(f"wrote {html_path}")
    return 0


def _command_report_gate(args: argparse.Namespace) -> int:
    """Run the counter-based regression gate against the committed history."""
    from repro.trends import (
        evaluate_gate,
        format_gate,
        load_history,
        load_policy,
    )

    result = evaluate_gate(load_history(args.root), load_policy(args.policy))
    print(format_gate(result))
    return 0 if result.ok else 1


def _command_bench(args: argparse.Namespace) -> int:
    headers, rows = run_experiment(args.experiment, args.seed)
    print(render_report(f"experiment: {args.experiment}", headers, rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Recycle and reuse frequent patterns (ICDE 2004 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    # recycle and update resolve a name as resolve_recycling_algorithm
    # does: any baseline, or "naive" for RP-Mine.
    recycle_algorithms = (*miner_names("baseline"), "naive")

    mine = commands.add_parser("mine", help="mine frequent patterns from scratch")
    _add_common_arguments(mine)
    mine.add_argument("--support", type=float, required=True,
                      help="min support (fraction <= 1.0, or absolute count)")
    mine.add_argument("--algorithm", default="hmine",
                      choices=miner_names("baseline"))
    mine.add_argument("--output", help="write patterns to this file")
    mine.set_defaults(handler=_command_mine)

    comp = commands.add_parser("compress", help="compress a database with patterns")
    _add_common_arguments(comp)
    comp.add_argument("--old-support", type=float, required=True,
                      help="support whose patterns compress the database")
    comp.add_argument("--patterns", help="pattern file (else mined with H-Mine)")
    comp.add_argument("--strategy", default="mcp", choices=("mcp", "mlp"))
    comp.set_defaults(handler=_command_compress)

    recycle = commands.add_parser("recycle", help="compress + mine (two phases)")
    _add_common_arguments(recycle)
    recycle.add_argument("--old-support", type=float, required=True)
    recycle.add_argument("--support", type=float, required=True,
                         help="the relaxed (lower) support to mine at")
    recycle.add_argument("--patterns", help="pattern file (else mined with H-Mine)")
    recycle.add_argument("--algorithm", default="hmine",
                         choices=recycle_algorithms)
    recycle.add_argument("--strategy", default="mcp", choices=("mcp", "mlp"))
    recycle.add_argument("--output", help="write patterns to this file")
    recycle.set_defaults(handler=_command_recycle)

    update = commands.add_parser(
        "update",
        help="mine, evolve the database by a delta (append/delete), and "
             "re-mine through the incremental update path",
    )
    _add_common_arguments(update)
    update.add_argument("--support", type=float, required=True,
                        help="min support (fraction <= 1.0, or absolute count)")
    update.add_argument("--append",
                        help="FIMI-format file of transactions to append")
    update.add_argument("--delete",
                        help="comma-separated tids to delete")
    update.add_argument("--algorithm", default="hmine",
                        choices=recycle_algorithms)
    update.add_argument("--strategy", default="mcp", choices=("mcp", "mlp"))
    update.set_defaults(handler=_command_update)

    # argparse wraps help at hyphens, splitting names like
    # ablation-strategies-<ds>; the list is wrapped here at spaces only, 54
    # wide, so each line fits 80 columns after argparse's indent of 24.
    bench = commands.add_parser("bench", help="run a paper experiment",
                                formatter_class=argparse.RawTextHelpFormatter)
    bench.add_argument("--experiment", required=True,
                       help="\n".join(textwrap.wrap(
                           ", ".join(EXPERIMENT_FAMILIES), 54,
                           break_on_hyphens=False)))
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(handler=_command_bench)

    serve = commands.add_parser(
        "serve-batch",
        help="replay a JSON workload of multi-tenant requests through the "
             "gateway and the mining service",
    )
    serve.add_argument("--workload", required=True,
                       help="workload JSON file (see repro.service.workload)")
    serve.add_argument("--byte-budget", type=int, default=None,
                       help="warehouse byte budget (default: unbounded)")
    serve.add_argument("--warehouse-dir", default=None,
                       help="directory for a disk-backed (persistent) warehouse")
    serve.add_argument("--cold", action="store_true",
                       help="disable the warehouse; with --no-batching, "
                            "each request mines once")
    serve.add_argument("--representation", default="closed",
                       choices=REPRESENTATIONS,
                       help="the form warehouse entries are condensed to "
                            "when --byte-budget needs the room; entries are "
                            "stored full otherwise, and full never "
                            "condenses (default: closed)")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="gateway admission bound: arrivals beyond this "
                            "queue depth shed lower-priority work or are "
                            "rejected (default: unbounded)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-request deadline in seconds; "
                            "requests still queued when it elapses are "
                            "rejected instead of mined")
    serve.add_argument("--priority", default="standard",
                       choices=("interactive", "standard", "batch"),
                       help="default gateway priority class "
                            "(default: standard)")
    serve.add_argument("--no-batching", action="store_true",
                       help="disable cross-request batching in the gateway")
    serve.add_argument("--max-batch", type=int, default=None,
                       help="cap on requests merged into one gateway batch "
                            "(default: unlimited)")
    serve.set_defaults(handler=_command_serve_batch)

    warehouse = commands.add_parser(
        "warehouse",
        help="inspect a disk-backed pattern warehouse (entries, "
             "representations, condensation; --verify audits integrity)",
    )
    warehouse.add_argument("verb", nargs="?",
                           choices=["list", "recover", "migrate"],
                           default="list",
                           help="list entries (default), run and audit "
                                "crash recovery, or "
                                "re-write every entry in --representation")
    warehouse.add_argument("--dir", required=True,
                           help="the warehouse directory to inspect")
    warehouse.add_argument("--representation", default="closed",
                           choices=REPRESENTATIONS,
                           help="with migrate: the representation entries "
                                "are re-written in (default: closed)")
    warehouse.add_argument("--gc", action="store_true",
                           help="garbage-collect dead chain records and "
                                "compact ancient chain hops")
    warehouse.add_argument("--dry-run", action="store_true",
                           help="with --gc: plan and report without "
                                "touching the directory")
    warehouse.add_argument("--verify", action="store_true",
                           help="run verify_entry() integrity audits on "
                                "every entry (exit 1 on any violation)")
    warehouse.set_defaults(handler=_command_warehouse)

    report = commands.add_parser(
        "report",
        help="benchmark trend pipeline over the git history of the "
             "BENCH_*.json files: render trend reports, run the counter "
             "regression gate",
    )
    verbs = report.add_subparsers(dest="verb", required=True)

    def _add_root(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--root", default=".",
            help="git checkout whose committed BENCH_*.json versions are "
                 "the history (default: current directory)",
        )

    def _add_policy(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--policy", default="trends/policy.toml",
            help="policy file naming the trend series the report draws "
                 "and the gate judges (default: trends/policy.toml)",
        )

    render = verbs.add_parser(
        "render",
        help="render markdown + HTML trend reports from the committed "
             "BENCH_*.json versions",
    )
    _add_root(render)
    render.add_argument("--output-dir", default="report",
                        help="directory for trends.md / trends.html "
                             "(default: report)")
    _add_policy(render)
    render.set_defaults(handler=_command_report_render)

    gate = verbs.add_parser(
        "gate",
        help="fail (exit 1) when a machine-independent counter regressed "
             "past the policy budget against the best committed baseline",
    )
    _add_root(gate)
    _add_policy(gate)
    gate.set_defaults(handler=_command_report_gate)

    miners = commands.add_parser(
        "miners", help="list the miner registry and its capabilities"
    )
    miners.add_argument("--kind", choices=KINDS, default=None,
                        help="restrict the listing to one kind")
    miners.set_defaults(handler=_command_miners)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
