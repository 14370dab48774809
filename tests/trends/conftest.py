"""Shared snapshot builders for the trend-pipeline tests."""

from __future__ import annotations

import json
import os
import subprocess

import pytest

from repro.trends import Snapshot


def make_snapshot(
    bench: str = "service_load",
    commit: str = "a" * 40,
    timestamp: str = "2026-08-01T00:00:00+00:00",
    rows: list[dict] | None = None,
    **payload_extra,
) -> Snapshot:
    rows = rows if rows is not None else [
        {
            "dataset": "connect4",
            "scenario": "batched",
            "total_work": 1000,
            "computations": 4,
            "interactive_p99_work": 500.0,
            "wall_s": 1.25,
        }
    ]
    return Snapshot(
        bench=bench,
        commit=commit,
        timestamp=timestamp,
        seed=0,
        payload={"seed": 0, "results": rows, **payload_extra},
    )


@pytest.fixture
def snapshot() -> Snapshot:
    return make_snapshot()


def git(repo, *args, date="2026-01-01T00:00:00+00:00"):
    """Run git in ``repo`` as a fixed test identity, committing at ``date``."""
    subprocess.run(
        ["git", "-C", str(repo), *args], check=True, capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
            "GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date,
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "HOME": str(repo),
        },
    )


def commit_bench_file(repo, name, payload, date):
    """Write the root file ``name`` and commit it at ``date``."""
    (repo / name).write_text(json.dumps(payload), encoding="utf-8")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", f"{name} @ {date}", date=date)


def head(repo) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "HEAD"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
