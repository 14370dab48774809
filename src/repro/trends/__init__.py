"""Benchmark history, perf-trend reports and the regression gate.

The observability layer over the benchmarks (see docs/observability.md),
modeled on fuzzbench's report pipeline: **history** (every committed
version of the root ``BENCH_*.json`` files, read out of git by
:func:`load_history` and stamped with commit / commit time / seed) →
**queries** (dataframe-free series extraction) → **rendering**
(markdown + HTML with inline SVG, regenerable offline from the
history) → **gate** (a declarative policy failing CI when a
machine-independent counter worsens past budget; wall-clock strictly
advisory). The report and the gate read one history and one series
list, the policy file.

Sits above :mod:`repro.bench` in the layer map: it may import
metrics/bench, never service/gateway (enforced by
``tests/test_layering.py``).
"""

from repro.trends.gate import (
    DEFAULT_MAX_REGRESSION_PCT,
    GatePolicy,
    GateResult,
    MetricVerdict,
    PolicyMetric,
    evaluate_gate,
    format_gate,
    load_policy,
    parse_minimal_toml,
)
from repro.trends.history import load_history, write_benchmark_snapshot
from repro.trends.queries import (
    AGGREGATIONS,
    TrendMetric,
    aggregate,
    category_bars,
    metric_value,
    select,
    series,
    speedup_vs_jobs,
    work_by_churn,
)
from repro.trends.rendering import (
    build_report_data,
    render_html,
    render_markdown,
    write_report,
)
from repro.trends.schema import (
    LEGACY_FILES,
    Snapshot,
    snapshot_from_legacy,
)
from repro.trends.svg import bar_chart, line_chart

__all__ = [
    "AGGREGATIONS",
    "DEFAULT_MAX_REGRESSION_PCT",
    "GatePolicy",
    "GateResult",
    "LEGACY_FILES",
    "MetricVerdict",
    "PolicyMetric",
    "Snapshot",
    "TrendMetric",
    "aggregate",
    "bar_chart",
    "build_report_data",
    "category_bars",
    "evaluate_gate",
    "format_gate",
    "line_chart",
    "load_history",
    "load_policy",
    "metric_value",
    "parse_minimal_toml",
    "render_html",
    "render_markdown",
    "select",
    "series",
    "snapshot_from_legacy",
    "speedup_vs_jobs",
    "work_by_churn",
    "write_benchmark_snapshot",
    "write_report",
]
