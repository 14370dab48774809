"""JSON workloads: replayable multi-tenant request traces.

A workload file describes an interleaved stream of mining requests from
several users — the shared-platform traffic of Section 2 — so service
behaviour (warehouse hits, batching, eviction pressure) can be
reproduced from a plain text artifact; ``repro serve-batch`` replays one
through a manual-mode gateway::

    {
      "dataset": "weather",
      "seed": 0,
      "requests": [
        {"tenant": "alice", "support": 0.05},
        {"tenant": "bob",   "support": 0.02},
        {"tenant": "carol", "support": 0.05, "dataset": "forest"}
      ]
    }

Top-level keys are defaults; each request may override ``dataset``,
``seed`` and ``jobs`` (at least 1; accepted for compatibility, the
service computes every request in-process); ``seed`` and ``jobs`` must
be integers. A workload does not choose the miner: the service serves
every request with its one kernel
(the paper's miner comparison runs through ``repro recycle
--algorithm`` and :func:`~repro.core.recycle.recycle_mine`). Unknown
keys are ignored, so files that still carry ``algorithm`` or
``strategy`` replay with identical answers. Databases are resolved through
the built-in dataset catalog and materialized once per (dataset, seed),
so every request for the same dataset shares one
:class:`TransactionDatabase` object (and therefore one fingerprint and
one encoded form).

Since the versioned-chain refactor a workload entry may also be a
**database operation** instead of a mining request::

    {"op": "append", "transactions": [[1, 2, 5], [3, 4]]},
    {"op": "delete", "tids": [0, 7]}

Each operation advances that (dataset, seed) pair's
:class:`~repro.data.versioned.VersionedDatabase` chain; every mining
entry after it is built against the *current* version (and carries the
chain, so the service can serve it from a warehoused ancestor through
the planner's update path). The replay treats an operation as a
barrier: the requests before it are served, and their answers banked,
before any request after it is planned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.data.datasets import DATASETS, get_dataset
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.errors import DataError
from repro.service.service import MineRequest


@dataclass(frozen=True)
class DeltaOp:
    """One parsed ``append``/``delete`` workload operation.

    ``version`` is the chain state *after* the operation — the version
    every subsequent mining entry for the same (dataset, seed) is built
    against.
    """

    kind: str  # "append" | "delete"
    dataset: str
    seed: int
    delta: DatabaseDelta
    version: VersionedDatabase


def parse_workload_items(spec: dict) -> "list[MineRequest | DeltaOp]":
    """Build the interleaved request/operation list from a workload dict."""
    if not isinstance(spec, dict):
        raise DataError(f"workload must be a JSON object, got {type(spec).__name__}")
    raw_requests = spec.get("requests")
    if not isinstance(raw_requests, list) or not raw_requests:
        raise DataError("workload needs a non-empty 'requests' list")
    versions: dict[tuple[str, int], VersionedDatabase] = {}

    def resolve_version(dataset: str, seed: int) -> VersionedDatabase:
        if dataset not in DATASETS:
            raise DataError(
                f"unknown dataset {dataset!r} (known: {', '.join(sorted(DATASETS))})"
            )
        key = (dataset, seed)
        if key not in versions:
            versions[key] = VersionedDatabase.initial(get_dataset(dataset).load(seed))
        return versions[key]

    items: "list[MineRequest | DeltaOp]" = []
    for index, entry in enumerate(raw_requests):
        if not isinstance(entry, dict):
            raise DataError(f"request #{index} must be an object, got {entry!r}")
        dataset = entry.get("dataset", spec.get("dataset"))
        if dataset is None:
            raise DataError(f"request #{index} has no dataset (and no default)")
        dataset = str(dataset)
        seed = _integer(index, "seed", entry.get("seed", spec.get("seed", 0)))
        op = entry.get("op")
        if op is not None:
            items.append(_parse_op(index, entry, op, dataset, seed,
                                   resolve_version, versions))
            continue
        support = entry.get("support")
        if support is None:
            raise DataError(f"request #{index} has no support")
        if isinstance(support, bool) or not isinstance(support, (int, float)):
            raise DataError(f"request #{index}: support must be a number")
        if isinstance(support, float) and not math.isfinite(support):
            raise DataError(f"request #{index}: support must be finite, got {support}")
        jobs = _integer(index, "jobs", entry.get("jobs", spec.get("jobs", 1)))
        if jobs < 1:
            raise DataError(f"request #{index}: jobs must be >= 1, got {jobs}")
        version = resolve_version(dataset, seed)
        items.append(
            MineRequest(
                db=version.db,
                # Passed through as-is: a JSON int stays an absolute
                # count, a JSON float stays a relative fraction (the
                # library-wide support convention).
                support=support,
                tenant=str(entry.get("tenant", f"user-{index}")),
                jobs=jobs,
                version=version,
            )
        )
    return items


def _integer(index: int, key: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"request #{index}: {key} must be an integer, got {value!r}")
    return value


def _parse_op(
    index: int,
    entry: dict,
    op: object,
    dataset: str,
    seed: int,
    resolve_version,
    versions: dict,
) -> DeltaOp:
    if op == "append":
        rows = entry.get("transactions")
        if not isinstance(rows, list) or not rows:
            raise DataError(
                f"request #{index}: append op needs a non-empty "
                "'transactions' list of item lists"
            )
        make_delta = DatabaseDelta.append
    elif op == "delete":
        rows = entry.get("tids")
        if not isinstance(rows, list) or not rows:
            raise DataError(
                f"request #{index}: delete op needs a non-empty 'tids' list"
            )
        make_delta = DatabaseDelta.delete
    else:
        raise DataError(
            f"request #{index}: unknown op {op!r} (expected 'append' or 'delete')"
        )
    try:
        delta = make_delta(rows)
        version = resolve_version(dataset, seed).apply(delta)
    except DataError as exc:
        raise DataError(f"request #{index}: {exc}") from None
    versions[(dataset, seed)] = version
    return DeltaOp(
        kind=str(op), dataset=dataset, seed=seed, delta=delta, version=version
    )


def load_workload_items(path: str | Path) -> "list[MineRequest | DeltaOp]":
    """Read and parse a workload JSON file, operations included."""
    return parse_workload_items(_load_spec(path))


def _load_spec(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read workload file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc

