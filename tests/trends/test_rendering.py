"""Markdown/HTML report rendering and the inline SVG charts."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import TrendsError
from repro.trends import (
    bar_chart,
    build_report_data,
    line_chart,
    load_policy,
    render_html,
    render_markdown,
    write_report,
)

from tests.trends.conftest import make_snapshot

#: The series the report draws: the shipped policy's, as the CLI reads it.
SERIES = [
    entry.metric
    for entry in load_policy(
        Path(__file__).resolve().parents[2] / "trends" / "policy.toml"
    ).metrics
]


def _two_commit_history():
    return [
        make_snapshot(
            commit="a" * 40,
            timestamp="2026-01-01T00:00:00+00:00",
            rows=[{"dataset": "connect4", "scenario": "batched",
                   "total_work": 1000, "computations": 4,
                   "interactive_p99_work": 500.0}],
        ),
        make_snapshot(
            commit="b" * 40,
            timestamp="2026-02-01T00:00:00+00:00",
            rows=[{"dataset": "connect4", "scenario": "batched",
                   "total_work": 900, "computations": 4,
                   "interactive_p99_work": 450.0}],
        ),
        make_snapshot(
            bench="parallel",
            commit="b" * 40,
            timestamp="2026-02-01T00:01:00+00:00",
            rows=[{"dataset": "connect4", "task": "mine", "jobs": 1,
                   "speedup": 1.0},
                  {"dataset": "connect4", "task": "mine", "jobs": 4,
                   "speedup": 2.2}],
        ),
    ]


class TestBuildReportData:
    def test_empty_archive_rejected(self):
        with pytest.raises(TrendsError, match="no benchmark snapshots"):
            build_report_data([], SERIES)

    def test_shape(self):
        data = build_report_data(_two_commit_history(), SERIES)
        assert data["snapshot_count"] == 3
        assert data["commits"] == ["a" * 10, "b" * 10]
        assert set(data["benches"]) == {"parallel", "service_load"}
        section = data["benches"]["service_load"]
        assert section["snapshot_count"] == 2
        assert section["latest"].commit == "b" * 40
        # Trend points span both commits of the service-load history.
        work_trend = next(
            e for e in data["trends"]
            if e["metric"].field == "total_work"
        )
        assert [p["value"] for p in work_trend["points"]] == [1000.0, 900.0]

    def test_headers_follow_first_row_then_extras(self):
        snap = make_snapshot(rows=[
            {"b_col": 1, "a_col": 2},
            {"b_col": 1, "z_extra": 3, "c_extra": 4},
        ])
        data = build_report_data([snap], SERIES)
        headers = data["benches"]["service_load"]["headers"]
        assert headers == ["b_col", "a_col", "c_extra", "z_extra"]

    def test_paper_snapshot_charts_each_runtime_figure(self):
        """One line chart per Fig. 9-20, its curves the figure's seconds
        columns over xi_new; the memory figures and tables draw none."""
        tags = {9: "HM", 13: "FP", 20: "TP"}
        rows = [{"experiment": "table3", "dataset": "weather", "ratio": 0.5}]
        for number in range(9, 21):
            tag = tags.get(number, "HM")
            for xi, seconds in ((0.9, 1.0), (0.8, 2.0)):
                rows.append({
                    "experiment": f"fig{number}", "xi_new": xi, "patterns": 5,
                    f"{tag}_s": seconds, f"{tag}-MCP_s": seconds / 2,
                    f"{tag}-MLP_s": seconds / 3, "speedup_mcp": 2.0,
                    "work_base": 10, "work_mcp": 4,
                })
        rows.append({"experiment": "fig23", "xi_new": 0.93, "budget_bytes": 1,
                     "HM_s": 1.0, "HM-MCP_s": 0.5})
        data = build_report_data([make_snapshot(bench="paper", rows=rows)], SERIES)
        charts = data["benches"]["paper"]["charts"]
        assert [chart["title"] for chart in charts] == [
            f"fig{number}" for number in range(9, 21)
        ]
        fig13 = charts[13 - 9]["svg"]
        assert "fig13: runtime vs xi_new (wall clock, advisory)" in fig13
        for curve in ("FP_s", "FP-MCP_s", "FP-MLP_s"):
            assert f">{curve}</text>" in fig13
        assert "speedup_mcp" not in fig13 and "work_base" not in fig13
        assert fig13.count("<polyline") == 3
        assert ">0.9</text>" in fig13 and ">0.8</text>" in fig13


class TestRenderers:
    def test_markdown_from_two_commits(self):
        md = render_markdown(build_report_data(_two_commit_history(), SERIES))
        assert md.startswith("# Benchmark trends")
        assert "`aaaaaaaaaa`" in md and "`bbbbbbbbbb`" in md
        assert "## service_load" in md
        assert "## parallel" in md
        assert "| commit | timestamp | value |" in md
        assert "advisory" in md  # wall-clock series are labelled

    def test_html_is_self_contained_with_inline_svg(self):
        html = render_html(build_report_data(_two_commit_history(), SERIES))
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        assert "</html>" in html
        # Self-contained: no external scripts, stylesheets or images.
        assert "<script" not in html
        assert "<link" not in html
        assert "<img" not in html

    def test_markdown_pipe_escaping(self):
        snap = make_snapshot(rows=[{"name": "a|b", "v": 1}])
        md = render_markdown(build_report_data([snap], SERIES))
        assert "a\\|b" in md

    def test_write_report(self, tmp_path):
        data = build_report_data(_two_commit_history(), SERIES)
        md_path, html_path = write_report(data, tmp_path / "report")
        assert md_path.read_text("utf-8").startswith("# Benchmark trends")
        assert "<svg" in html_path.read_text("utf-8")


class TestSvg:
    def test_line_chart_basics(self):
        svg = line_chart(
            ["c1", "c2", "c3"],
            {"work": [3.0, None, 1.0], "other": [1.0, 2.0, 3.0]},
            title="t", y_label="y",
        )
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "t</text>" in svg
        assert "work" in svg and "other" in svg
        # The None gap splits the first series into point markers without
        # a connecting polyline through the gap.
        assert "<circle" in svg

    def test_line_chart_empty(self):
        svg = line_chart([], {})
        assert svg.startswith("<svg") and svg.endswith("</svg>")

    def test_bar_chart_labels_and_values(self):
        svg = bar_chart(["a", "b"], [1.0, 4.0], title="bars", y_label="v")
        assert svg.count("<rect") >= 2
        assert "bars" in svg
        assert ">a<" in svg and ">b<" in svg

    def test_bar_chart_handles_constant_and_empty(self):
        assert "<svg" in bar_chart(["x"], [0.0])
        assert "<svg" in bar_chart([], [])

    def test_svg_escapes_labels(self):
        svg = bar_chart(["<&>"], [1.0], title='a "quoted" <title>')
        assert "<&>" not in svg.replace("&lt;&amp;&gt;", "")
        assert "&lt;title&gt;" in svg
