"""The snapshot archive: ``.bench_history/<commit>/<bench>.json``.

Three jobs:

* :class:`SnapshotArchive` — write/load validated snapshots, one file
  per (commit, bench), ordered by timestamp for the trend queries;
* :func:`write_benchmark_snapshot` — the root ``BENCH_*.json`` writer
  every ``benchmarks/bench_*.py`` script calls; it writes nothing here;
* :func:`ingest_legacy` (``repro report archive``) — the archive's only
  writer: it stamps each committed version of the root files with the
  commit that holds it (every version with ``git_history=True``), so a
  run is archived only once its code and its file are committed.
"""

from __future__ import annotations

import json
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import TrendsError
from repro.trends.schema import (
    LEGACY_FILES,
    UNKNOWN,
    Snapshot,
    snapshot_from_legacy,
)

#: Default archive directory name, relative to the repo root.
HISTORY_DIR = ".bench_history"


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


def _file_commits(repo_root: Path, relative: str) -> list[tuple[str, str]]:
    """(commit, ISO commit time) pairs touching a file, oldest first."""
    out = _git(repo_root, "log", "--follow", "--format=%H %cI", "--", relative)
    if not out:
        return []
    pairs = []
    for line in out.splitlines():
        commit, _, stamp = line.strip().partition(" ")
        if commit and stamp:
            pairs.append((commit, stamp))
    pairs.reverse()
    return pairs


def _file_at_commit(repo_root: Path, commit: str, relative: str) -> str | None:
    return _git(repo_root, "show", f"{commit}:{relative}")


def _mtime_iso(path: Path) -> str:
    return datetime.fromtimestamp(
        path.stat().st_mtime, tz=timezone.utc
    ).isoformat()


class SnapshotArchive:
    """A directory of per-commit snapshot files."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, commit: str, bench: str) -> Path:
        return self.root / commit / f"{bench}.json"

    def write(self, snapshot: Snapshot) -> Path:
        """Persist one snapshot (one file per commit x bench, overwritten)."""
        path = self.path_for(snapshot.commit, snapshot.bench)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(snapshot.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    def load_all(self) -> list[Snapshot]:
        """Every archived snapshot, oldest first (timestamp, commit, bench)."""
        snapshots = []
        if not self.root.is_dir():
            return snapshots
        for path in sorted(self.root.glob("*/*.json")):
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise TrendsError(f"unreadable snapshot {path}: {exc}") from exc
            snapshots.append(Snapshot.from_dict(data, source=str(path)))
        snapshots.sort(key=lambda s: (s.sort_time(), s.commit, s.bench))
        return snapshots

    def benches(self) -> list[str]:
        return sorted({s.bench for s in self.load_all()})

    def by_bench(self) -> dict[str, list[Snapshot]]:
        grouped: dict[str, list[Snapshot]] = {}
        for snapshot in self.load_all():
            grouped.setdefault(snapshot.bench, []).append(snapshot)
        return grouped


def write_benchmark_snapshot(
    bench: str, payload: Mapping[str, Any], *, repo_root: str | Path
) -> Path:
    """Write one benchmark run's root ``BENCH_*.json``; returns its path.

    The body is the bare payload (two-space JSON, trailing newline). The
    archive is not written here: :func:`ingest_legacy` (``repro report
    archive``) stamps the committed versions of this file, so an
    uncommitted run is never attributed to a commit that does not hold
    its code.
    """
    if bench not in LEGACY_FILES:
        raise TrendsError(
            f"unknown bench {bench!r} (known: {sorted(LEGACY_FILES)})"
        )
    path = Path(repo_root) / LEGACY_FILES[bench]
    path.write_text(json.dumps(dict(payload), indent=2) + "\n", encoding="utf-8")
    return path


def ingest_legacy(
    repo_root: str | Path,
    *,
    history_dir: str | Path | None = None,
    benches: Iterable[str] | None = None,
    git_history: bool = False,
) -> list[Snapshot]:
    """Backfill the archive from the legacy root ``BENCH_*.json`` files.

    Each file is attributed to the commit that last touched it, stamped
    with that commit's time; ``git_history=True`` additionally replays
    every historical version of the file out of git, one snapshot per
    touching commit. Outside a git checkout the working-tree body is
    archived under ``unknown`` with the file's mtime.
    """
    repo_root = Path(repo_root)
    archive = SnapshotArchive(history_dir or repo_root / HISTORY_DIR)
    names = sorted(benches) if benches is not None else sorted(LEGACY_FILES)
    written = []
    for bench in names:
        if bench not in LEGACY_FILES:
            raise TrendsError(
                f"unknown bench {bench!r} (known: {sorted(LEGACY_FILES)})"
            )
        relative = LEGACY_FILES[bench]
        path = repo_root / relative
        if not path.is_file():
            continue
        commits = _file_commits(repo_root, relative)
        if not git_history:
            commits = commits[-1:]
        versions: list[tuple[str, str, str]] = []  # (commit, stamp, body)
        for commit, stamp in commits:
            body = _file_at_commit(repo_root, commit, relative)
            if body is not None:
                versions.append((commit, stamp, body))
        if not versions:
            versions = [(UNKNOWN, _mtime_iso(path), path.read_text("utf-8"))]
        for commit, stamp, body in versions:
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as exc:
                raise TrendsError(
                    f"legacy {relative} at {commit[:10]} is not JSON: {exc}"
                ) from exc
            snapshot = snapshot_from_legacy(
                bench, payload, commit=commit, timestamp=stamp
            )
            archive.write(snapshot)
            written.append(snapshot)
    return written
