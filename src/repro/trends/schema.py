"""The versioned benchmark-snapshot schema.

A *snapshot* is one benchmark's full result payload stamped with the
provenance the trend pipeline needs to compare runs across history:
commit hash, commit/run timestamp, generator seed, python version and
platform. The payload itself is exactly what the benchmark used to
write to its legacy root ``BENCH_*.json`` file — a dict whose
``results`` key holds the row dicts the queries layer consumes — so a
legacy file wraps into a snapshot losslessly.

Pure value objects and validation only; filesystem and git live in
:mod:`repro.trends.archive`.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Mapping

from repro.errors import TrendsError

#: Bumped when the envelope changes shape. Loaders accept anything at or
#: below the version they know.
SCHEMA_VERSION = 1

#: Snapshot name -> the root file its benchmark writes through
#: :func:`repro.trends.archive.write_benchmark_snapshot`.
LEGACY_FILES: dict[str, str] = {
    "backends": "BENCH_backends.json",
    "incremental": "BENCH_incremental.json",
    "paper": "BENCH_paper.json",
    "parallel": "BENCH_parallel.json",
    "service_load": "BENCH_service_load.json",
    "warehouse": "BENCH_warehouse.json",
}

#: Provenance value when a stamp cannot be recovered (no git, ingested
#: history whose interpreter/platform was never recorded).
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Snapshot:
    """One benchmark run's payload plus its provenance stamps."""

    bench: str
    commit: str
    timestamp: str  # ISO-8601; commit time for ingested history, run time else
    seed: int | None
    python: str
    platform: str
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

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "bench": self.bench,
            "commit": self.commit,
            "timestamp": self.timestamp,
            "seed": self.seed,
            "python": self.python,
            "platform": self.platform,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, source: str = "") -> "Snapshot":
        """Validate and build a snapshot; raises :class:`TrendsError`."""
        where = f" in {source}" if source else ""
        if not isinstance(data, Mapping):
            raise TrendsError(f"snapshot{where} is not a JSON object")
        version = data.get("schema_version")
        if not isinstance(version, int) or version < 1:
            raise TrendsError(f"snapshot{where} has no integer schema_version")
        if version > SCHEMA_VERSION:
            raise TrendsError(
                f"snapshot{where} has schema_version {version}; this build "
                f"reads up to {SCHEMA_VERSION}"
            )
        bench = data.get("bench")
        if not isinstance(bench, str) or not bench:
            raise TrendsError(f"snapshot{where} has no bench name")
        commit = data.get("commit")
        if not isinstance(commit, str) or not commit:
            raise TrendsError(f"snapshot{where} has no commit stamp")
        timestamp = data.get("timestamp")
        if not isinstance(timestamp, str) or not timestamp:
            raise TrendsError(f"snapshot{where} has no timestamp stamp")
        seed = data.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise TrendsError(f"snapshot{where} has a non-integer seed")
        payload = data.get("payload")
        if not isinstance(payload, dict):
            raise TrendsError(f"snapshot{where} has no payload object")
        return cls(
            bench=bench,
            commit=commit,
            timestamp=timestamp,
            seed=seed,
            python=str(data.get("python", UNKNOWN)),
            platform=str(data.get("platform", UNKNOWN)),
            payload=payload,
        )


def snapshot_from_legacy(
    bench: str,
    payload: Mapping[str, Any],
    *,
    commit: str = UNKNOWN,
    timestamp: str = "",
) -> Snapshot:
    """Wrap a legacy root ``BENCH_*.json`` body into a snapshot.

    The legacy files never recorded interpreter or platform, so those
    stamps default to ``unknown``; the seed is lifted from the payload
    where the benchmarks always stored it.
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
        python=UNKNOWN,
        platform=UNKNOWN,
        payload=dict(payload),
    )
