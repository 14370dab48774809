"""Archive write/load ordering, the shared bench writer, legacy ingestion."""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.errors import TrendsError
from repro.trends import (
    SnapshotArchive,
    ingest_legacy,
    write_benchmark_snapshot,
)

from tests.trends.conftest import make_snapshot


class TestSnapshotArchive:
    def test_write_then_load_round_trips(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "hist")
        snap = make_snapshot()
        path = archive.write(snap)
        assert path == tmp_path / "hist" / snap.commit / "service_load.json"
        assert archive.load_all() == [snap]

    def test_load_all_orders_by_timestamp(self, tmp_path):
        archive = SnapshotArchive(tmp_path)
        late = make_snapshot(commit="b" * 40, timestamp="2026-06-01T00:00:00+00:00")
        early = make_snapshot(commit="c" * 40, timestamp="2026-01-01T00:00:00+00:00")
        archive.write(late)
        archive.write(early)
        assert [s.commit for s in archive.load_all()] == [early.commit, late.commit]

    def test_missing_root_loads_empty(self, tmp_path):
        assert SnapshotArchive(tmp_path / "absent").load_all() == []

    def test_unreadable_snapshot_raises(self, tmp_path):
        bad = tmp_path / "deadbeef" / "service_load.json"
        bad.parent.mkdir(parents=True)
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(TrendsError, match="unreadable snapshot"):
            SnapshotArchive(tmp_path).load_all()

    def test_by_bench_and_benches(self, tmp_path):
        archive = SnapshotArchive(tmp_path)
        archive.write(make_snapshot(bench="parallel", commit="d" * 40))
        archive.write(make_snapshot(bench="warehouse", commit="d" * 40))
        assert archive.benches() == ["parallel", "warehouse"]
        grouped = archive.by_bench()
        assert set(grouped) == {"parallel", "warehouse"}


class TestWriteBenchmarkSnapshot:
    def test_writes_the_root_file_and_no_snapshot(self, tmp_path):
        payload = {"seed": 3, "results": [{"dataset": "connect4", "work": 10}]}
        path = write_benchmark_snapshot("warehouse", payload, repo_root=tmp_path)
        assert path == tmp_path / "BENCH_warehouse.json"
        # The body is the bare payload: two-space JSON plus trailing newline.
        assert path.read_text("utf-8") == json.dumps(payload, indent=2) + "\n"
        assert not (tmp_path / ".bench_history").exists()

    def test_unknown_bench_rejected(self, tmp_path):
        with pytest.raises(TrendsError, match="unknown bench"):
            write_benchmark_snapshot("mystery", {}, repo_root=tmp_path)


def _git(cwd, *args):
    subprocess.run(
        ["git", "-C", str(cwd), *args], check=True, capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
            "GIT_AUTHOR_DATE": "2026-01-01T00:00:00+00:00",
            "GIT_COMMITTER_DATE": "2026-01-01T00:00:00+00:00",
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "HOME": str(cwd),
        },
    )


@pytest.fixture
def git_repo(tmp_path):
    _git(tmp_path, "init", "-q")
    legacy = tmp_path / "BENCH_backends.json"
    legacy.write_text(
        json.dumps({"seed": 0, "results": [{"dataset": "connect4", "speedup": 2.0}]})
    )
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "first")
    legacy.write_text(
        json.dumps({"seed": 0, "results": [{"dataset": "connect4", "speedup": 3.0}]})
    )
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "second")
    return tmp_path


class TestIngestLegacy:
    def test_ingests_head_version_by_default(self, git_repo):
        written = ingest_legacy(git_repo, benches=["backends"])
        assert len(written) == 1
        snap = written[0]
        assert snap.bench == "backends"
        assert snap.commit not in ("", "unknown")
        assert snap.rows()[0]["speedup"] == 3.0
        assert snap.python == "unknown"  # history never recorded it

    def test_git_history_replays_every_version(self, git_repo):
        written = ingest_legacy(git_repo, benches=["backends"], git_history=True)
        assert len(written) == 2
        assert len({s.commit for s in written}) == 2
        speedups = sorted(s.rows()[0]["speedup"] for s in written)
        assert speedups == [2.0, 3.0]

    def test_reingestion_is_idempotent(self, git_repo):
        ingest_legacy(git_repo, benches=["backends"], git_history=True)
        archive_root = git_repo / ".bench_history"
        before = {
            p.relative_to(archive_root): p.read_bytes()
            for p in archive_root.glob("*/*.json")
        }
        ingest_legacy(git_repo, benches=["backends"], git_history=True)
        after = {
            p.relative_to(archive_root): p.read_bytes()
            for p in archive_root.glob("*/*.json")
        }
        assert before == after

    def test_outside_git_falls_back_to_unknown(self, tmp_path):
        (tmp_path / "BENCH_parallel.json").write_text(
            json.dumps({"seed": 1, "results": []})
        )
        written = ingest_legacy(tmp_path, benches=["parallel"])
        assert len(written) == 1
        assert written[0].commit == "unknown"
        assert written[0].timestamp  # mtime fallback

    def test_missing_files_are_skipped(self, tmp_path):
        assert ingest_legacy(tmp_path) == []

    def test_unknown_bench_rejected(self, tmp_path):
        with pytest.raises(TrendsError, match="unknown bench"):
            ingest_legacy(tmp_path, benches=["mystery"])

    def test_non_json_legacy_raises(self, git_repo):
        (git_repo / "BENCH_parallel.json").write_text("{oops")
        with pytest.raises(TrendsError, match="not JSON"):
            ingest_legacy(git_repo, benches=["parallel"])


class TestDirtyTree:
    """A run never reaches the archive; only committed files do."""

    @pytest.fixture
    def source_repo(self, git_repo):
        source = git_repo / "src" / "kernel.py"
        source.parent.mkdir()
        source.write_text("SPEED = 1\n")
        _git(git_repo, "add", "-A")
        _git(git_repo, "commit", "-q", "-m", "source")
        return git_repo

    def _head(self, repo):
        return subprocess.run(
            ["git", "-C", str(repo), "rev-parse", "HEAD"],
            check=True, capture_output=True, text=True,
        ).stdout.strip()

    def test_clean_tree_is_archived_under_head(self, source_repo):
        payload = {"seed": 0, "results": [{"dataset": "connect4", "speedup": 4.0}]}
        write_benchmark_snapshot("backends", payload, repo_root=source_repo)
        assert not (source_repo / ".bench_history").exists()
        _git(source_repo, "commit", "-q", "-am", "rerun")
        [snapshot] = ingest_legacy(source_repo, benches=["backends"])
        assert snapshot.commit == self._head(source_repo)
        assert snapshot.payload == payload
        assert (
            source_repo / ".bench_history" / snapshot.commit / "backends.json"
        ).is_file()

    def test_dirty_tree_writes_the_root_file_but_no_snapshot(self, source_repo):
        (source_repo / "src" / "kernel.py").write_text("SPEED = 2\n")
        payload = {"seed": 0, "results": [{"dataset": "connect4", "speedup": 5.0}]}
        path = write_benchmark_snapshot("backends", payload, repo_root=source_repo)
        assert json.loads(path.read_text("utf-8")) == payload
        assert not (source_repo / ".bench_history").exists()
        # Archiving reads the committed body, not the uncommitted run.
        [snapshot] = ingest_legacy(source_repo, benches=["backends"])
        assert snapshot.rows()[0]["speedup"] == 3.0
        assert snapshot.commit != self._head(source_repo)
