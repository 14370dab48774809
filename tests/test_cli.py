"""Tests for the repro command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main
from repro.data.io import read_patterns, write_transactions
from repro.data.transactions import TransactionDatabase
from repro.mining.apriori import mine_apriori
from repro.mining.registry import KINDS, miner_names


@pytest.fixture
def db_file(tmp_path):
    db = TransactionDatabase(
        [[1, 2, 3], [1, 2, 3], [1, 2], [2, 3], [1, 3], [1, 2, 3, 4]]
    )
    path = tmp_path / "db.dat"
    write_transactions(db, path)
    return path, db


def _subparser(command: str) -> argparse.ArgumentParser:
    """The parser of one ``repro`` subcommand."""
    return next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices[command]


class TestMine:
    def test_mine_from_file(self, db_file, capsys):
        path, _db = db_file
        assert main(["mine", "--input", str(path), "--support", "3"]) == 0
        out = capsys.readouterr().out
        assert "patterns" in out

    def test_mine_writes_output(self, db_file, tmp_path, capsys):
        path, db = db_file
        out_path = tmp_path / "patterns.txt"
        code = main(
            ["mine", "--input", str(path), "--support", "3", "--output", str(out_path)]
        )
        assert code == 0
        assert read_patterns(out_path) == mine_apriori(db, 3)

    def test_relative_support(self, db_file, capsys):
        path, _db = db_file
        assert main(["mine", "--input", str(path), "--support", "0.5"]) == 0
        assert "support 3" in capsys.readouterr().out

    def test_support_one_is_hundred_percent(self, db_file, capsys):
        """The boundary: 1.0 is a relative fraction, not absolute count 1."""
        path, db = db_file
        assert main(["mine", "--input", str(path), "--support", "1.0"]) == 0
        assert f"support {len(db)}" in capsys.readouterr().out

    def test_support_just_above_one_is_absolute(self, db_file, capsys):
        path, _db = db_file
        assert main(["mine", "--input", str(path), "--support", "2"]) == 0
        assert "support 2" in capsys.readouterr().out

    def test_relative_support_rounds_up(self, db_file, capsys):
        # 0.4 of 6 transactions = 2.4 -> threshold 3 under >= semantics.
        path, _db = db_file
        assert main(["mine", "--input", str(path), "--support", "0.4"]) == 0
        assert "support 3" in capsys.readouterr().out

    def test_nonpositive_support_errors(self, db_file, capsys):
        path, _db = db_file
        assert main(["mine", "--input", str(path), "--support", "0"]) == 1
        assert "must be positive" in capsys.readouterr().err

    def test_any_registered_baseline_accepted(self, db_file, capsys):
        from repro.mining.registry import miner_names

        path, _db = db_file
        for name in miner_names("baseline"):
            assert main(
                ["mine", "--input", str(path), "--support", "3",
                 "--algorithm", name]
            ) == 0
            assert f"{name}:" in capsys.readouterr().out

    def test_missing_source_errors(self, capsys):
        assert main(["mine", "--support", "2"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRecycleAndCompress:
    def test_recycle_matches_mine(self, db_file, tmp_path, capsys):
        path, db = db_file
        out_path = tmp_path / "recycled.txt"
        code = main(
            [
                "recycle", "--input", str(path),
                "--old-support", "4", "--support", "2",
                "--output", str(out_path),
            ]
        )
        assert code == 0
        assert read_patterns(out_path) == mine_apriori(db, 2)

    def test_recycle_with_pattern_file(self, db_file, tmp_path, capsys):
        from repro.data.io import write_patterns

        path, db = db_file
        pattern_path = tmp_path / "old.txt"
        write_patterns(mine_apriori(db, 4), pattern_path)
        code = main(
            [
                "recycle", "--input", str(path), "--patterns", str(pattern_path),
                "--old-support", "4", "--support", "2",
            ]
        )
        assert code == 0
        assert "patterns at support 2" in capsys.readouterr().out

    def test_compress_reports_ratio(self, db_file, capsys):
        path, _db = db_file
        code = main(["compress", "--input", str(path), "--old-support", "4"])
        assert code == 0
        assert "ratio" in capsys.readouterr().out

    def test_recycle_takes_a_baseline_name(self, db_file, tmp_path, capsys):
        """Like a session, a baseline with no recycler of its own
        recycles with RP-Mine; the answer is the scratch one."""
        path, db = db_file
        out_path = tmp_path / "recycled.txt"
        code = main(
            ["recycle", "--input", str(path), "--old-support", "4",
             "--support", "2", "--algorithm", "eclat-bitset",
             "--output", str(out_path)]
        )
        assert code == 0
        assert read_patterns(out_path) == mine_apriori(db, 2)

    def test_recycle_and_update_take_the_same_algorithms(self):
        def choices(command):
            return next(
                action.choices for action in _subparser(command)._actions
                if "--algorithm" in action.option_strings
            )

        assert choices("recycle") == choices("update")
        assert "naive" in choices("recycle")
        assert "eclat-bitset" in choices("recycle")

    def test_any_registered_recycler_accepted(self, db_file, capsys):
        from repro.mining.registry import miner_names

        path, db = db_file
        for name in miner_names("recycling"):
            code = main(
                ["recycle", "--input", str(path),
                 "--old-support", "4", "--support", "2", "--algorithm", name]
            )
            assert code == 0
            assert "patterns at support 2" in capsys.readouterr().out


class TestMiners:
    def test_lists_registry_with_capabilities(self, capsys):
        assert main(["miners"]) == 0
        out = capsys.readouterr().out
        for name in ("apriori", "eclat-bitset", "hmine", "naive", "treeprojection"):
            assert name in out
        assert "bitset" in out
        assert "compressed" in out

    def test_condensed_miner_is_closed(self, capsys):
        assert main(["miners"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        condensed = [row[0] for row in rows if row[1:2] == ["condensed"]]
        assert condensed == ["closed"]

    def test_kind_filter(self, capsys):
        for kind in KINDS:
            assert main(["miners", "--kind", kind]) == 0
            rows = [line.split() for line in capsys.readouterr().out.splitlines()]
            listed = [row for row in rows if row[1:2] and row[1] in KINDS]
            assert {row[1] for row in listed} == {kind}
            names = [row[0] for row in listed]
            assert names == miner_names(kind)
            if kind == "condensed":
                assert names == ["closed"]


class TestServeBatch:
    @pytest.fixture
    def workload_file(self, tmp_path):
        import json

        path = tmp_path / "trace.json"
        path.write_text(
            json.dumps(
                {
                    "dataset": "weather",
                    "requests": [
                        {"tenant": "alice", "support": 0.5},
                        {"tenant": "bob", "support": 0.5},
                        {"tenant": "carol", "support": 0.4},
                    ],
                }
            ),
            encoding="utf-8",
        )
        return path

    def test_replays_workload_with_warehouse(self, workload_file, capsys):
        code = main(
            ["serve-batch", "--workload", str(workload_file), "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for tenant in ("alice", "bob", "carol"):
            assert tenant in out
        assert "warehouse:" in out
        assert "requests in" in out

    def test_cold_mode_disables_warehouse(self, workload_file, capsys):
        code = main(["serve-batch", "--workload", str(workload_file), "--cold"])
        assert code == 0
        out = capsys.readouterr().out
        assert "warehouse:" not in out

    def test_persistent_warehouse_directory(self, workload_file, tmp_path, capsys):
        store = tmp_path / "warehouse"
        code = main(
            [
                "serve-batch", "--workload", str(workload_file),
                "--warehouse-dir", str(store),
            ]
        )
        assert code == 0
        assert list(store.glob("*.patterns"))

    def test_missing_workload_errors_cleanly(self, tmp_path, capsys):
        code = main(["serve-batch", "--workload", str(tmp_path / "nope.json")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.fixture
    def dense_workload(self, tmp_path):
        """Two connect4 entries of 13,304 modelled bytes each, whose
        closed form is 832 bytes."""
        import json

        path = tmp_path / "dense.json"
        path.write_text(
            json.dumps(
                {
                    "dataset": "connect4",
                    "requests": [
                        {"tenant": "alice", "support": 0.95},
                        {"tenant": "carol", "support": 0.93},
                    ],
                }
            ),
            encoding="utf-8",
        )
        return path

    def test_condensation_gauges_printed(self, dense_workload, capsys):
        """Under a budget that holds one entry full and one closed, the
        summary names the mix; unbudgeted, nothing is condensed."""
        argv = ["serve-batch", "--workload", str(dense_workload), "--workers", "1"]
        assert main(argv + ["--byte-budget", "16000"]) == 0
        out = capsys.readouterr().out
        assert "condensation ×" in out
        assert "1 of 2 entries held condensed" in out
        assert "1 condensed under the budget to closed" in out
        assert main(argv) == 0
        assert "condensation ×" not in capsys.readouterr().out

    def test_full_representation_suppresses_gauges(self, dense_workload, capsys):
        code = main(
            [
                "serve-batch", "--workload", str(dense_workload),
                "--representation", "full", "--byte-budget", "16000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "condensation" not in out
        assert "1 evictions" in out

    def test_gateway_mode_prints_gauges_and_batches(
        self, workload_file, capsys
    ):
        code = main(
            [
                "serve-batch", "--workload", str(workload_file),
                "--gateway", "--queue-depth", "8",
                "--priority", "interactive",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve-batch (gateway)" in out
        assert "queue depth HWM" in out
        assert "merged batches" in out
        assert "gateway interactive: p50" in out
        # All three tenants queued together → one merged batch.
        assert "1 merged batches covering 3 requests" in out

    def test_gateway_admission_rejects_overflow(self, workload_file, capsys):
        code = main(
            [
                "serve-batch", "--workload", str(workload_file),
                "--gateway", "--queue-depth", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 rejected" in out
        status_rows = [
            line
            for line in out.splitlines()
            if " rejected " in line and not line.startswith("gateway:")
        ]
        assert len(status_rows) == 2  # per-request status rows

    def test_gateway_no_batching_serves_singly(self, workload_file, capsys):
        code = main(
            [
                "serve-batch", "--workload", str(workload_file),
                "--gateway", "--no-batching",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 dispatches, 0 merged batches" in out


class TestWarehouseCommand:
    @pytest.fixture
    def store(self, tmp_path):
        from repro.mining.hmine import mine_hmine
        from repro.service.warehouse import PatternWarehouse

        from repro.data.patterns import CondensedPatternSet

        db = TransactionDatabase([[1, 2, 3, 4]] * 4 + [[1, 2]] * 4)
        warehouse = PatternWarehouse(directory=tmp_path)
        warehouse.put(
            db.fingerprint(), 4, mine_hmine(db, 4), n_transactions=len(db)
        )
        # An entry condensed before it was put is written as it is.
        warehouse.put(
            db.fingerprint(),
            6,
            CondensedPatternSet.condense(mine_hmine(db, 6), 6, "closed"),
        )
        return tmp_path, db

    def test_lists_entries_with_representation(self, store, capsys):
        """A directory holding a full and a closed entry lists both."""
        directory, db = store
        assert main(["warehouse", "--dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert db.fingerprint() in out
        rows = [line for line in out.splitlines() if db.fingerprint() in line]
        assert len(rows) == 2
        assert any(" full " in row for row in rows)
        assert any(" closed " in row for row in rows)
        assert "2 entries (1 condensed)" in out
        assert "condensation" in out

    def test_verify_audits_every_entry(self, store, capsys):
        directory, _db = store
        assert main(["warehouse", "--dir", str(directory), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "ok (" in out
        assert "FAILED" not in out

    def test_verify_fails_on_corrupt_entry(self, tmp_path, capsys):
        # A full-representation entry whose supports violate
        # anti-monotonicity: every file-level check (headers, checksum,
        # threshold) passes, so only the semantic audit can catch it.
        from repro.data.io import write_warehouse_entry
        from repro.data.patterns import CondensedPatternSet, pattern

        bad = CondensedPatternSet(
            "full",
            {pattern([1]): 5, pattern([2]): 6, pattern([1, 2]): 6},
            4,
        )
        write_warehouse_entry(bad, tmp_path / "corrupt-4.patterns")
        code = main(["warehouse", "--dir", str(tmp_path), "--verify"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out

    def test_inspection_does_not_migrate_files(self, tmp_path, capsys):
        from repro.data.io import write_patterns_with_support
        from repro.mining.hmine import mine_hmine

        db = TransactionDatabase([[1, 2, 3, 4]] * 4 + [[1, 2]] * 4)
        path = tmp_path / f"{db.fingerprint()}-4.patterns"
        write_patterns_with_support(mine_hmine(db, 4), path, 4)
        before = path.read_text()
        assert main(["warehouse", "--dir", str(tmp_path)]) == 0
        assert path.read_text() == before
        assert "full" in capsys.readouterr().out

    def test_inspection_writes_nothing_beside_a_truncated_entry(
        self, tmp_path, capsys
    ):
        """Listing a directory whose only chain-reaching entry is torn
        leaves every file, the chain record included, byte for byte."""
        from repro.data.versioned import DatabaseDelta, VersionedDatabase
        from repro.mining.hmine import mine_hmine
        from repro.service.warehouse import PatternWarehouse

        db = TransactionDatabase([[1, 2, 3, 4]] * 4 + [[1, 2]] * 4)
        v0 = VersionedDatabase(db)
        v1 = v0.apply(DatabaseDelta(appends=((1, 2, 3),)))
        warehouse = PatternWarehouse(directory=tmp_path)
        warehouse.put(v0.fingerprint(), 4, mine_hmine(db, 4))
        warehouse.record_version(v1)
        entry = tmp_path / f"{v0.fingerprint()}-4.patterns"
        entry.write_text(entry.read_text()[:-8])

        def snapshot():
            return {
                path.relative_to(tmp_path): path.read_bytes()
                for path in sorted(tmp_path.rglob("*"))
                if path.is_file()
            }

        before = snapshot()
        assert len(list((tmp_path / "chains").glob("*.chain"))) == 1
        assert main(["warehouse", "--dir", str(tmp_path)]) == 0
        assert "1 corrupt file(s) not loaded" in capsys.readouterr().out
        assert snapshot() == before

    @pytest.mark.parametrize(
        "extra",
        [[], ["--verify"], ["--gc", "--dry-run"], ["recover"], ["migrate"], ["--gc"]],
    )
    def test_inspecting_a_missing_directory_fails_and_creates_nothing(
        self, tmp_path, capsys, extra
    ):
        missing = tmp_path / "no-such-warehouse"
        assert main(["warehouse", "--dir", str(missing), *extra]) == 1
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()
        assert list(tmp_path.iterdir()) == []

    def test_migrate_verb_rewrites_legacy_files(self, tmp_path, capsys):
        from repro.data.io import read_warehouse_entry, write_patterns_with_support
        from repro.mining.hmine import mine_hmine

        db = TransactionDatabase([[1, 2, 3, 4]] * 4 + [[1, 2]] * 4)
        path = tmp_path / f"{db.fingerprint()}-4.patterns"
        write_patterns_with_support(mine_hmine(db, 4), path, 4)
        argv = ["warehouse", "migrate", "--dir", str(tmp_path),
                "--representation", "closed"]
        assert main(argv) == 0
        assert "1 of 1 entries re-written as closed" in capsys.readouterr().out
        condensed, _full_bytes = read_warehouse_entry(path)
        assert condensed.representation == "closed"
        assert condensed.expand() == mine_hmine(db, 4)
        assert main(argv) == 0
        assert "0 of 1 entries" in capsys.readouterr().out


class TestReport:
    @pytest.fixture
    def archived_history(self, tmp_path):
        """A two-commit archive plus a policy file, no git required."""
        from repro.trends import Snapshot, SnapshotArchive

        archive = SnapshotArchive(tmp_path / ".bench_history")
        for commit, stamp, work in (
            ("a" * 40, "2026-01-01T00:00:00+00:00", 1000),
            ("b" * 40, "2026-02-01T00:00:00+00:00", 900),
        ):
            archive.write(Snapshot(
                bench="service_load", commit=commit, timestamp=stamp,
                seed=0, python="3.11", platform="test",
                payload={"seed": 0, "results": [{
                    "dataset": "connect4", "scenario": "batched",
                    "total_work": work, "wall_s": 1.0,
                }]},
            ))
        policy = tmp_path / "policy.toml"
        policy.write_text(
            "[gate]\nmax_regression_pct = 10.0\n\n"
            "[[metric]]\n"
            'name = "batched work"\n'
            'bench = "service_load"\n'
            'field = "total_work"\n'
            'where = { dataset = "connect4", scenario = "batched" }\n'
            'direction = "lower"\n',
            encoding="utf-8",
        )
        return tmp_path, archive, policy

    def test_archive_ingests_legacy_files(self, tmp_path, capsys):
        import json

        (tmp_path / "BENCH_parallel.json").write_text(
            json.dumps({"seed": 0, "results": [{"jobs": 1, "speedup": 1.0}]})
        )
        code = main([
            "report", "archive", "--root", str(tmp_path),
            "--history-dir", str(tmp_path / ".bench_history"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "archived parallel" in out
        assert (tmp_path / ".bench_history").is_dir()

    def test_archive_empty_root_errors(self, tmp_path, capsys):
        code = main([
            "report", "archive", "--root", str(tmp_path),
            "--history-dir", str(tmp_path / ".bench_history"),
        ])
        assert code == 1
        assert "nothing to archive" in capsys.readouterr().out

    def test_render_draws_the_policy_series(self, archived_history, capsys):
        tmp_path, _archive, policy = archived_history
        out_dir = tmp_path / "report"
        code = main([
            "report", "render",
            "--history-dir", str(tmp_path / ".bench_history"),
            "--output-dir", str(out_dir), "--policy", str(policy),
        ])
        assert code == 0
        md = (out_dir / "trends.md").read_text("utf-8")
        html = (out_dir / "trends.html").read_text("utf-8")
        assert "2 commit(s)" in capsys.readouterr().out
        assert "aaaaaaaaaa" in md and "bbbbbbbbbb" in md
        assert "<svg" in html
        # The trend section lists exactly the policy's one series.
        assert [line for line in md.splitlines() if line.startswith("### ")] == [
            "### batched work"
        ]

    def test_render_rejects_a_missing_policy(self, archived_history, capsys):
        tmp_path, _archive, _policy = archived_history
        code = main([
            "report", "render",
            "--history-dir", str(tmp_path / ".bench_history"),
            "--output-dir", str(tmp_path / "report"),
            "--policy", str(tmp_path / "absent.toml"),
        ])
        assert code == 1
        assert "cannot read gate policy" in capsys.readouterr().err

    def test_render_empty_archive_errors(self, tmp_path, capsys):
        code = main([
            "report", "render",
            "--history-dir", str(tmp_path / "absent"),
            "--output-dir", str(tmp_path / "report"),
        ])
        assert code == 1
        assert "no archived snapshots" in capsys.readouterr().err

    def test_gate_passes_on_improvement(self, archived_history, capsys):
        tmp_path, _archive, policy = archived_history
        code = main([
            "report", "gate",
            "--history-dir", str(tmp_path / ".bench_history"),
            "--policy", str(policy),
        ])
        assert code == 0
        assert "gate: PASS" in capsys.readouterr().out

    def test_gate_exits_nonzero_on_counter_regression(
        self, archived_history, capsys
    ):
        from repro.trends import Snapshot

        tmp_path, archive, policy = archived_history
        # A third snapshot whose machine-independent counter is 50% worse
        # than the best baseline; wall clock unchanged.
        archive.write(Snapshot(
            bench="service_load", commit="c" * 40,
            timestamp="2026-03-01T00:00:00+00:00",
            seed=0, python="3.11", platform="test",
            payload={"seed": 0, "results": [{
                "dataset": "connect4", "scenario": "batched",
                "total_work": 1350, "wall_s": 1.0,
            }]},
        ))
        code = main([
            "report", "gate",
            "--history-dir", str(tmp_path / ".bench_history"),
            "--policy", str(policy),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "gate: FAIL" in out
        assert "+50.0% worse" in out

    def test_gate_missing_policy_errors(self, archived_history, capsys):
        tmp_path, _archive, _policy = archived_history
        code = main([
            "report", "gate",
            "--history-dir", str(tmp_path / ".bench_history"),
            "--policy", str(tmp_path / "absent.toml"),
        ])
        assert code == 1
        assert "cannot read gate policy" in capsys.readouterr().err


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "mine", "compress", "recycle", "bench", "serve-batch",
            "warehouse", "report",
        ):
            assert command in text

    def test_report_requires_verb(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_bench_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    @pytest.mark.parametrize("argv", [
        ["serve-batch", "--workload", "w.json"],
        ["warehouse", "migrate", "--dir", "wh"],
    ])
    def test_representation_is_full_or_closed(self, argv, capsys):
        for representation in ("full", "closed"):
            args = build_parser().parse_args([*argv, "--representation", representation])
            assert args.representation == representation
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, "--representation", "ndi"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'ndi'" in capsys.readouterr().err

    def test_bench_help_lists_every_experiment_family(self):
        from repro.bench.experiments import EXPERIMENT_FAMILIES

        bench = _subparser("bench")
        text = next(
            action.help for action in bench._actions
            if "--experiment" in action.option_strings
        )
        for family in EXPERIMENT_FAMILIES:
            assert family in text
        assert "service-load-<ds>" in text and "parallel-<ds>" in text

    def test_bench_help_keeps_each_family_on_one_line(self, monkeypatch, capsys):
        from repro.bench.experiments import EXPERIMENT_FAMILIES

        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--help"])
        lines = capsys.readouterr().out.splitlines()
        assert max(map(len, lines)) <= 80
        for family in EXPERIMENT_FAMILIES:
            assert any(family in line for line in lines), family

    @pytest.mark.parametrize(
        "argv",
        [
            ["mine", "--dataset", "weather", "--support", "0.3"],
            ["recycle", "--dataset", "weather", "--old-support", "0.5",
             "--support", "0.3"],
        ],
    )
    def test_no_command_takes_jobs(self, argv):
        """The sharded engine is reachable only from ``repro bench``."""
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--jobs", "2"])
        build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["compress", "--dataset", "weather", "--old-support", "0.5"],
            ["recycle", "--dataset", "weather", "--old-support", "0.5",
             "--support", "0.3"],
            ["update", "--dataset", "weather", "--support", "0.3"],
        ],
    )
    def test_no_command_takes_a_backend(self, argv):
        """Which implementation counts is decided by the code, not a flag."""
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--backend", "python"])
        build_parser().parse_args(argv)


class TestPlot:
    def test_plot_rejects_memory_figures(self, capsys):
        assert main(["plot", "--figure", "21"]) == 1
        assert "not plottable" in capsys.readouterr().err

    def test_plot_renders_chart(self, capsys, monkeypatch):
        import repro.bench.experiments as experiments

        def fake_figure(number, seed=0, sweep=None):
            headers = ["xi_new", "abs", "patterns", "HM_s", "HM-MCP_s",
                       "HM-MLP_s", "s1", "s2", "w1", "w2"]
            rows = [[0.9, 10, 5, 1.0, 0.5, 0.6, 2.0, 1.7, 1, 1],
                    [0.8, 8, 9, 2.0, 0.7, 0.8, 2.9, 2.5, 1, 1]]
            return headers, rows

        monkeypatch.setattr(experiments, "figure", fake_figure)
        assert main(["plot", "--figure", "15", "--log"]) == 0
        out = capsys.readouterr().out
        assert "Figure 15" in out
        assert "HM-MCP_s" in out
