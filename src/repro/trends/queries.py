"""Dataframe-free queries over benchmark snapshots.

Everything here works on plain dicts and lists: a snapshot's payload
``results`` rows are filtered with a subset-match ``where`` clause, a
named ``field`` is aggregated into one float, and a sequence of
snapshots becomes a trend series of (commit, value) points. The named
extractors at the bottom turn one bench's latest payload into
chart-ready (x, series) structures — speedup-vs-jobs, warm-vs-cold
work, condensation ratios, update-path economics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import TrendsError
from repro.trends.schema import Snapshot

#: Aggregations available to policies and trend metrics.
AGGREGATIONS = ("mean", "sum", "min", "max", "first")


def select(
    rows: Iterable[Mapping[str, Any]], where: Mapping[str, Any] | None = None
) -> list[dict[str, Any]]:
    """Rows whose items are a superset of ``where`` (equality match)."""
    clause = dict(where or {})
    return [
        dict(row)
        for row in rows
        if all(key in row and row[key] == value for key, value in clause.items())
    ]


def _numeric(value: Any) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def aggregate(values: Sequence[float], agg: str) -> float | None:
    if agg not in AGGREGATIONS:
        raise TrendsError(f"unknown aggregation {agg!r} (known: {AGGREGATIONS})")
    if not values:
        return None
    if agg == "mean":
        return sum(values) / len(values)
    if agg == "sum":
        return sum(values)
    if agg == "min":
        return min(values)
    if agg == "max":
        return max(values)
    return values[0]


def metric_value(
    snapshot: Snapshot,
    field_name: str,
    where: Mapping[str, Any] | None = None,
    agg: str = "mean",
) -> float | None:
    """One aggregated float from a snapshot's rows; None when absent."""
    values = [
        numeric
        for row in select(snapshot.rows(), where)
        if (numeric := _numeric(row.get(field_name))) is not None
    ]
    return aggregate(values, agg)


def series(
    snapshots: Sequence[Snapshot],
    field_name: str,
    where: Mapping[str, Any] | None = None,
    agg: str = "mean",
) -> list[dict[str, Any]]:
    """Trend points across snapshots, skipping those missing the metric."""
    points = []
    for snapshot in snapshots:
        value = metric_value(snapshot, field_name, where, agg)
        if value is None:
            continue
        points.append(
            {
                "commit": snapshot.commit,
                "commit_short": snapshot.commit_short,
                "timestamp": snapshot.timestamp,
                "value": value,
            }
        )
    return points


@dataclass(frozen=True)
class TrendMetric:
    """One named series over the history, as ``trends/policy.toml``
    declares it for both the report and the gate.

    ``direction`` says which way is better; ``advisory`` marks
    wall-clock-derived metrics that render in reports and gate output
    but must never fail the gate (shared CI hosts are not clocks).
    """

    name: str
    bench: str
    field: str
    where: Mapping[str, Any] = field(default_factory=dict)
    agg: str = "mean"
    direction: str = "lower"  # "lower" | "higher" is better
    advisory: bool = False

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher"):
            raise TrendsError(
                f"metric {self.name!r}: direction must be lower|higher, "
                f"got {self.direction!r}"
            )
        if self.agg not in AGGREGATIONS:
            raise TrendsError(
                f"metric {self.name!r}: unknown aggregation {self.agg!r}"
            )

    def value(self, snapshot: Snapshot) -> float | None:
        return metric_value(snapshot, self.field, self.where, self.agg)

    def trend(self, snapshots: Sequence[Snapshot]) -> list[dict[str, Any]]:
        return series(snapshots, self.field, self.where, self.agg)


def _labelled_series(
    rows: Iterable[Mapping[str, Any]],
    x_field: str,
    y_field: str,
    label_fields: Sequence[str],
) -> tuple[list[float], dict[str, list[float | None]]]:
    """Pivot rows into (sorted x values, {series label: y per x})."""
    xs: list[float] = []
    table: dict[str, dict[float, float]] = {}
    for row in rows:
        x = _numeric(row.get(x_field))
        y = _numeric(row.get(y_field))
        if x is None or y is None:
            continue
        label = " ".join(str(row.get(name, "?")) for name in label_fields)
        if x not in xs:
            xs.append(x)
        table.setdefault(label, {})[x] = y
    xs.sort()
    return xs, {
        label: [points.get(x) for x in xs] for label, points in table.items()
    }


def speedup_vs_jobs(snapshot: Snapshot) -> tuple[list[float], dict]:
    """The parallel bench's speedup curves: x=jobs, one series per
    dataset/task."""
    return _labelled_series(
        snapshot.rows(), "jobs", "speedup", ("dataset", "task")
    )


def work_by_churn(snapshot: Snapshot) -> tuple[list[float], dict]:
    """The incremental bench's work curves: x=churn, scratch vs fup vs
    recycle per dataset."""
    rows = snapshot.rows()
    xs = sorted(
        {x for row in rows if (x := _numeric(row.get("churn"))) is not None}
    )
    result: dict[str, list[float | None]] = {}
    for kind in ("scratch_work", "fup_work", "recycle_work"):
        per_label: dict[str, dict[float, float]] = {}
        for row in rows:
            x = _numeric(row.get("churn"))
            y = _numeric(row.get(kind))
            if x is None or y is None:
                continue
            label = f"{row.get('dataset', '?')} {kind.removesuffix('_work')}"
            per_label.setdefault(label, {})[x] = y
        for label, points in per_label.items():
            result[label] = [points.get(x) for x in xs]
    return xs, result


def category_bars(
    snapshot: Snapshot, y_field: str, label_fields: Sequence[str]
) -> tuple[list[str], list[float]]:
    """One bar per row: labels from ``label_fields``, heights from
    ``y_field``."""
    labels: list[str] = []
    values: list[float] = []
    for row in snapshot.rows():
        y = _numeric(row.get(y_field))
        if y is None:
            continue
        labels.append(" ".join(str(row.get(name, "?")) for name in label_fields))
        values.append(y)
    return labels, values
