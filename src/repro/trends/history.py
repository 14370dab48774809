"""Benchmark history read straight from git.

Two jobs:

* :func:`write_benchmark_snapshot` — the root ``BENCH_*.json`` writer
  every ``benchmarks/bench_*.py`` script calls;
* :func:`load_history` — one snapshot per committed version of each
  root file, stamped with the commit that holds it, so a run joins the
  history only once its code and its file are committed.
"""

from __future__ import annotations

import json
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping

from repro.errors import TrendsError
from repro.trends.schema import (
    LEGACY_FILES,
    UNKNOWN,
    Snapshot,
    snapshot_from_legacy,
)


def _git(repo_root: Path, *args: str) -> str | None:
    """Run one git command; None when git or the repo is unavailable."""
    try:
        completed = subprocess.run(
            ["git", "-C", str(repo_root), *args],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout


def _committed_versions(repo_root: Path, relative: str) -> list[tuple[str, str, str]]:
    """(commit, ISO commit time, body) for every commit touching a file."""
    out = _git(repo_root, "log", "--follow", "--format=%H %cI", "--", relative)
    versions = []
    for line in (out or "").splitlines():
        commit, _, stamp = line.strip().partition(" ")
        if not (commit and stamp):
            continue
        body = _git(repo_root, "show", f"{commit}:{relative}")
        if body is not None:
            versions.append((commit, stamp, body))
    return versions


def write_benchmark_snapshot(
    bench: str, payload: Mapping[str, Any], *, repo_root: str | Path
) -> Path:
    """Write one benchmark run's root ``BENCH_*.json``; returns its path.

    The body is the bare payload (two-space JSON, trailing newline).
    :func:`load_history` reads only committed versions of this file, so
    an uncommitted run is never attributed to a commit that does not
    hold its code.
    """
    if bench not in LEGACY_FILES:
        raise TrendsError(
            f"unknown bench {bench!r} (known: {sorted(LEGACY_FILES)})"
        )
    path = Path(repo_root) / LEGACY_FILES[bench]
    path.write_text(json.dumps(dict(payload), indent=2) + "\n", encoding="utf-8")
    return path


def load_history(repo_root: str | Path) -> list[Snapshot]:
    """Every committed version of the root ``BENCH_*.json`` files.

    One snapshot per (touching commit, bench), stamped with the commit's
    time, oldest first by (timestamp, commit, bench). Inside a git
    checkout the working tree is never read, so an uncommitted run
    cannot pass for a commit's. Outside one, or for a file no commit
    holds, the working-tree body is read under ``unknown`` with the
    file's mtime. Raises :class:`TrendsError` for a body that is not
    JSON.
    """
    repo_root = Path(repo_root)
    snapshots = []
    for bench, relative in sorted(LEGACY_FILES.items()):
        path = repo_root / relative
        if not path.is_file():
            continue
        versions = _committed_versions(repo_root, relative) or [(
            UNKNOWN,
            datetime.fromtimestamp(path.stat().st_mtime, tz=timezone.utc).isoformat(),
            path.read_text("utf-8"),
        )]
        for commit, stamp, body in versions:
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as exc:
                raise TrendsError(
                    f"{relative} at {commit[:10]} is not JSON: {exc}"
                ) from exc
            snapshots.append(
                snapshot_from_legacy(bench, payload, commit=commit, timestamp=stamp)
            )
    snapshots.sort(key=lambda s: (s.sort_time(), s.commit, s.bench))
    return snapshots
