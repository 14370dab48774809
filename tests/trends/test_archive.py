"""The root BENCH file writer and the history read out of git."""

from __future__ import annotations

import json

import pytest

from repro.errors import TrendsError
from repro.trends import load_history, write_benchmark_snapshot

from tests.trends.conftest import commit_bench_file, git, head

JANUARY = "2026-01-01T00:00:00+00:00"
FEBRUARY = "2026-02-01T00:00:00+00:00"


def _speedup(value):
    return {"seed": 0, "results": [{"dataset": "connect4", "speedup": value}]}


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


@pytest.fixture
def git_repo(tmp_path):
    """BENCH_backends.json committed twice: speedup 2.0, then 3.0."""
    git(tmp_path, "init", "-q")
    commit_bench_file(tmp_path, "BENCH_backends.json", _speedup(2.0), JANUARY)
    commit_bench_file(tmp_path, "BENCH_backends.json", _speedup(3.0), FEBRUARY)
    return tmp_path


class TestLoadHistory:
    def test_two_commits_give_two_snapshots_oldest_first(self, git_repo):
        first, second = load_history(git_repo)
        assert [s.bench for s in (first, second)] == ["backends", "backends"]
        assert [s.rows()[0]["speedup"] for s in (first, second)] == [2.0, 3.0]
        assert first.timestamp == JANUARY and second.timestamp == FEBRUARY
        assert second.commit == head(git_repo) != first.commit
        assert first.seed == 0

    def test_benches_interleave_by_commit_time(self, git_repo):
        commit_bench_file(
            git_repo, "BENCH_parallel.json", {"results": []},
            "2026-01-15T00:00:00+00:00",
        )
        history = load_history(git_repo)
        assert [s.bench for s in history] == ["backends", "parallel", "backends"]
        assert history == sorted(history, key=lambda s: s.sort_time())

    def test_a_committed_run_is_read_under_its_commit(self, git_repo):
        payload = _speedup(4.0)
        write_benchmark_snapshot("backends", payload, repo_root=git_repo)
        git(git_repo, "commit", "-q", "-am", "rerun", date="2026-03-01T00:00:00+00:00")
        latest = load_history(git_repo)[-1]
        assert latest.commit == head(git_repo)
        assert latest.payload == payload

    def test_an_uncommitted_edit_is_not_read(self, git_repo):
        write_benchmark_snapshot("backends", _speedup(5.0), repo_root=git_repo)
        history = load_history(git_repo)
        assert [s.rows()[0]["speedup"] for s in history] == [2.0, 3.0]
        assert not (git_repo / ".bench_history").exists()

    def test_a_file_no_commit_holds_is_read_under_unknown(self, git_repo):
        (git_repo / "BENCH_parallel.json").write_text(json.dumps({"results": []}))
        [untracked] = [s for s in load_history(git_repo) if s.bench == "parallel"]
        assert untracked.commit == "unknown"

    def test_outside_git_reads_the_working_tree_under_unknown(self, tmp_path):
        (tmp_path / "BENCH_parallel.json").write_text(
            json.dumps({"seed": 1, "results": []})
        )
        [snapshot] = load_history(tmp_path)
        assert (snapshot.bench, snapshot.commit, snapshot.seed) == (
            "parallel", "unknown", 1,
        )
        assert snapshot.sort_time() > 0  # stamped with the file's mtime

    def test_missing_files_are_skipped(self, tmp_path):
        assert load_history(tmp_path) == []

    def test_a_non_json_committed_version_names_the_commit(self, git_repo):
        (git_repo / "BENCH_parallel.json").write_text("{oops")
        git(git_repo, "add", "-A")
        git(git_repo, "commit", "-q", "-m", "broken", date=FEBRUARY)
        with pytest.raises(TrendsError, match="not JSON") as error:
            load_history(git_repo)
        assert head(git_repo)[:10] in str(error.value)
