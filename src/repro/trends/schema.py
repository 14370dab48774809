"""The benchmark snapshot: one committed ``BENCH_*.json`` version.

A *snapshot* is one benchmark's full result payload stamped with the
provenance the trend pipeline needs to compare runs across history:
commit hash, commit timestamp and generator seed. The payload is
exactly the body of the root ``BENCH_*.json`` file — a dict whose
``results`` key holds the row dicts the queries layer consumes.

Pure value objects only; filesystem and git live in
:mod:`repro.trends.history`.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Mapping

from repro.errors import TrendsError

#: Snapshot name -> the root file its benchmark writes through
#: :func:`repro.trends.history.write_benchmark_snapshot`.
LEGACY_FILES: dict[str, str] = {
    "backends": "BENCH_backends.json",
    "incremental": "BENCH_incremental.json",
    "paper": "BENCH_paper.json",
    "parallel": "BENCH_parallel.json",
    "service_load": "BENCH_service_load.json",
    "warehouse": "BENCH_warehouse.json",
}

#: The commit stamp of a file no commit holds (no git, or not committed).
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Snapshot:
    """One benchmark run's payload plus its provenance stamps."""

    bench: str
    commit: str
    timestamp: str  # ISO-8601 commit time; the file's mtime when uncommitted
    seed: int | None
    payload: dict[str, Any]

    @property
    def commit_short(self) -> str:
        return self.commit[:10]

    def rows(self) -> list[dict[str, Any]]:
        """The payload's result rows (the unit the queries layer selects on)."""
        rows = self.payload.get("results", [])
        if not isinstance(rows, list):
            return []
        return [row for row in rows if isinstance(row, dict)]

    def sort_time(self) -> float:
        """Epoch seconds for ordering snapshots; malformed stamps sort first."""
        try:
            parsed = datetime.fromisoformat(self.timestamp)
        except (TypeError, ValueError):
            return 0.0
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=timezone.utc)
        return parsed.timestamp()


def snapshot_from_legacy(
    bench: str,
    payload: Mapping[str, Any],
    *,
    commit: str = UNKNOWN,
    timestamp: str = "",
) -> Snapshot:
    """Wrap a root ``BENCH_*.json`` body into a snapshot.

    The seed is lifted from the payload, where the benchmarks always
    store it.
    """
    if not isinstance(payload, Mapping):
        raise TrendsError(f"legacy {bench} payload is not a JSON object")
    seed = payload.get("seed")
    if not isinstance(seed, int):
        seed = None
    return Snapshot(
        bench=bench,
        commit=commit or UNKNOWN,
        timestamp=timestamp or datetime.now(timezone.utc).isoformat(),
        seed=seed,
        payload=dict(payload),
    )
