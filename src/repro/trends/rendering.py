"""Markdown and self-contained HTML trend reports.

Mirrors fuzzbench's ``generate_report`` split: the archive supplies
cached data, :mod:`repro.trends.queries` extracts series, this module
renders them. Both outputs are built from the same report-data dict, so
``repro report render`` regenerates them offline from the archive alone
— no benchmark re-runs, no network, no plotting dependency (charts are
inline SVG from :mod:`repro.trends.svg`). The trend series are the
gate policy's, so the report and the gate read one list.
"""

from __future__ import annotations

from datetime import datetime, timezone
from html import escape
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.bench.report import format_cell
from repro.errors import TrendsError
from repro.trends.queries import (
    TrendMetric,
    category_bars,
    speedup_vs_jobs,
    work_by_churn,
)
from repro.trends.schema import Snapshot
from repro.trends.svg import bar_chart, line_chart


def _row_headers(rows: Sequence[Mapping[str, Any]]) -> list[str]:
    """Column order: first row's key order, then stragglers, sorted."""
    if not rows:
        return []
    headers = list(rows[0])
    extras = sorted({key for row in rows for key in row} - set(headers))
    return headers + extras


def _bench_charts(bench: str, latest: Snapshot) -> list[dict[str, str]]:
    """Chart specs (title + svg) for one bench's latest snapshot."""
    charts = []
    if bench == "parallel":
        xs, curves = speedup_vs_jobs(latest)
        charts.append(
            {
                "title": "speedup vs jobs",
                "svg": line_chart(
                    xs,
                    curves,
                    title="parallel: speedup vs jobs (wall clock, advisory)",
                    y_label="speedup (x)",
                ),
            }
        )
    elif bench == "incremental":
        xs, curves = work_by_churn(latest)
        charts.append(
            {
                "title": "update-path work vs churn",
                "svg": line_chart(
                    xs,
                    curves,
                    title="incremental: work vs churn (counters)",
                    y_label="total work",
                ),
            }
        )
    elif bench == "backends":
        labels, values = category_bars(latest, "speedup", ("dataset", "task"))
        charts.append(
            {
                "title": "bitset speedup by task",
                "svg": bar_chart(
                    labels,
                    values,
                    title="backends: bitset speedup (wall clock, advisory)",
                    y_label="speedup (x)",
                ),
            }
        )
    elif bench == "warehouse":
        for field_name, chart_title in (
            ("warm_hit_rate", "warehouse: warm-hit rate (gauge)"),
            ("condensation_ratio", "warehouse: condensation ratio (gauge)"),
        ):
            labels, values = category_bars(
                latest, field_name, ("dataset", "representation")
            )
            charts.append(
                {
                    "title": field_name.replace("_", " "),
                    "svg": bar_chart(
                        labels, values, title=chart_title, y_label=field_name
                    ),
                }
            )
    elif bench == "service_load":
        for field_name, chart_title in (
            ("total_work", "service-load: total work by scenario (counters)"),
            ("computations", "service-load: computations by scenario"),
        ):
            labels, values = category_bars(
                latest, field_name, ("dataset", "scenario")
            )
            charts.append(
                {
                    "title": field_name.replace("_", " "),
                    "svg": bar_chart(
                        labels, values, title=chart_title, y_label=field_name
                    ),
                }
            )
    return charts


def build_report_data(
    snapshots: Sequence[Snapshot], metrics: Sequence[TrendMetric]
) -> dict[str, Any]:
    """Everything both renderers need, extracted once; ``metrics`` are
    the trend series (the gate policy's)."""
    if not snapshots:
        raise TrendsError(
            "no archived snapshots to report on — run `repro report archive` "
            "(or a benchmark) first"
        )
    ordered = sorted(snapshots, key=lambda s: (s.sort_time(), s.commit, s.bench))
    by_bench: dict[str, list[Snapshot]] = {}
    for snapshot in ordered:
        by_bench.setdefault(snapshot.bench, []).append(snapshot)
    commits: list[str] = []
    for snapshot in ordered:
        if snapshot.commit_short not in commits:
            commits.append(snapshot.commit_short)
    trends = [
        {"metric": metric, "points": metric.trend(by_bench.get(metric.bench, []))}
        for metric in metrics
    ]
    benches = {}
    for bench, snaps in sorted(by_bench.items()):
        latest = snaps[-1]
        rows = latest.rows()
        benches[bench] = {
            "latest": latest,
            "snapshot_count": len(snaps),
            "headers": _row_headers(rows),
            "rows": rows,
            "charts": _bench_charts(bench, latest),
        }
    return {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "snapshot_count": len(ordered),
        "commits": commits,
        "benches": benches,
        "trends": trends,
    }


def _md_cell(value: Any) -> str:
    return format_cell(value).replace("|", "\\|")


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [
        "| " + " | ".join(_md_cell(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_md_cell(v) for v in row) + " |")
    return "\n".join(lines)


def _trend_summary(points: Sequence[Mapping[str, Any]], metric: TrendMetric) -> str:
    if not points:
        return "no archived data for this metric yet."
    latest = points[-1]["value"]
    note = f"latest {format_cell(latest)} @ {points[-1]['commit_short']}"
    if len(points) > 1:
        earlier = [p["value"] for p in points[:-1]]
        best = min(earlier) if metric.direction == "lower" else max(earlier)
        note += f", best earlier {format_cell(best)}"
    if metric.advisory:
        note += " (advisory: wall-clock basis, never gates)"
    return note + "."


def render_markdown(data: Mapping[str, Any]) -> str:
    parts = [
        "# Benchmark trends",
        "",
        f"Generated {data['generated']} from {data['snapshot_count']} archived "
        f"snapshot(s) across {len(data['commits'])} commit(s): "
        + ", ".join(f"`{c}`" for c in data["commits"])
        + ".",
        "",
        "## Gateable trends",
        "",
        "Machine-independent counters and gauges; wall-clock series are "
        "marked advisory and never fail the gate (see "
        "`trends/policy.toml` and docs/observability.md).",
    ]
    for entry in data["trends"]:
        metric: TrendMetric = entry["metric"]
        points = entry["points"]
        parts += ["", f"### {metric.name}", ""]
        parts.append(
            f"`{metric.bench}.{metric.field}` ({metric.agg}, "
            f"{metric.direction} is better) — "
            + _trend_summary(points, metric)
        )
        if points:
            parts += [
                "",
                _md_table(
                    ["commit", "timestamp", "value"],
                    [
                        [p["commit_short"], p["timestamp"], p["value"]]
                        for p in points
                    ],
                ),
            ]
    for bench, section in data["benches"].items():
        latest: Snapshot = section["latest"]
        parts += [
            "",
            f"## {bench}",
            "",
            f"{section['snapshot_count']} snapshot(s); latest from commit "
            f"`{latest.commit_short}` at {latest.timestamp} "
            f"(seed {latest.seed}, python {latest.python}).",
        ]
        if section["rows"]:
            headers = section["headers"]
            parts += [
                "",
                _md_table(
                    headers,
                    [[row.get(h, "") for h in headers] for row in section["rows"]],
                ),
            ]
    return "\n".join(parts) + "\n"


def render_html(data: Mapping[str, Any]) -> str:
    head = (
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">"
        "<title>Benchmark trends</title><style>"
        "body{font-family:system-ui,sans-serif;margin:2rem auto;"
        "max-width:72rem;padding:0 1rem;color:#111827}"
        "table{border-collapse:collapse;font-size:0.8rem;margin:0.75rem 0}"
        "th,td{border:1px solid #d1d5db;padding:0.25rem 0.5rem;"
        "text-align:right}th{background:#f3f4f6}"
        "td:first-child,th:first-child{text-align:left}"
        ".advisory{color:#92400e}.meta{color:#6b7280;font-size:0.85rem}"
        "figure{margin:1rem 0}</style></head><body>"
    )
    parts = [head, "<h1>Benchmark trends</h1>"]
    parts.append(
        f"<p class=\"meta\">Generated {escape(data['generated'])} from "
        f"{data['snapshot_count']} archived snapshot(s) across "
        f"{len(data['commits'])} commit(s): "
        + ", ".join(f"<code>{escape(c)}</code>" for c in data["commits"])
        + ".</p>"
    )
    parts.append("<h2>Gateable trends</h2>")
    for entry in data["trends"]:
        metric: TrendMetric = entry["metric"]
        points = entry["points"]
        advisory = " <span class=\"advisory\">(advisory)</span>" if metric.advisory else ""
        parts.append(f"<h3>{escape(metric.name)}{advisory}</h3>")
        parts.append(
            f"<p class=\"meta\">{escape(_trend_summary(points, metric))}</p>"
        )
        if points:
            parts.append(
                "<figure>"
                + line_chart(
                    [p["commit_short"] for p in points],
                    {metric.field: [p["value"] for p in points]},
                    title=metric.name,
                    y_label=metric.field,
                )
                + "</figure>"
            )
    for bench, section in data["benches"].items():
        latest: Snapshot = section["latest"]
        parts.append(f"<h2>{escape(bench)}</h2>")
        parts.append(
            f"<p class=\"meta\">{section['snapshot_count']} snapshot(s); "
            f"latest from commit <code>{escape(latest.commit_short)}</code> "
            f"at {escape(latest.timestamp)} (seed {latest.seed}, python "
            f"{escape(latest.python)}, {escape(latest.platform)}).</p>"
        )
        for chart in section["charts"]:
            parts.append("<figure>" + chart["svg"] + "</figure>")
        if section["rows"]:
            headers = section["headers"]
            cells = "".join(f"<th>{escape(str(h))}</th>" for h in headers)
            body = []
            for row in section["rows"]:
                body.append(
                    "<tr>"
                    + "".join(
                        f"<td>{escape(format_cell(row.get(h, '')))}</td>"
                        for h in headers
                    )
                    + "</tr>"
                )
            parts.append(
                f"<table><thead><tr>{cells}</tr></thead>"
                f"<tbody>{''.join(body)}</tbody></table>"
            )
    parts.append("</body></html>")
    return "".join(parts)


def write_report(
    data: Mapping[str, Any], out_dir: str | Path
) -> tuple[Path, Path]:
    """Write ``trends.md`` and ``trends.html``; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    md_path = out_dir / "trends.md"
    html_path = out_dir / "trends.html"
    md_path.write_text(render_markdown(data), encoding="utf-8")
    html_path.write_text(render_html(data), encoding="utf-8")
    return md_path, html_path
