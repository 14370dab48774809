"""Benchmark snapshot archive, perf-trend reports and the regression gate.

The observability layer over the benchmarks (see docs/observability.md),
modeled on fuzzbench's report pipeline: **archive** (versioned
snapshots under ``.bench_history/<commit>/<bench>.json``, stamped with
commit / commit time / seed) → **queries**
(dataframe-free series extraction) → **rendering** (markdown + HTML
with inline SVG, regenerable offline from the archive) → **gate** (a
declarative policy failing CI when a machine-independent counter
worsens past budget; wall-clock strictly advisory). The archive has
one writer, ``repro report archive`` (:func:`ingest_legacy`), and the
report and the gate read one series list, the policy file.

Sits above :mod:`repro.bench` in the layer map: it may import
metrics/bench, never service/gateway (enforced by
``tests/test_layering.py``).
"""

from repro.trends.archive import (
    HISTORY_DIR,
    SnapshotArchive,
    ingest_legacy,
    write_benchmark_snapshot,
)
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
    SCHEMA_VERSION,
    Snapshot,
    snapshot_from_legacy,
)
from repro.trends.svg import bar_chart, line_chart

__all__ = [
    "AGGREGATIONS",
    "DEFAULT_MAX_REGRESSION_PCT",
    "GatePolicy",
    "GateResult",
    "HISTORY_DIR",
    "LEGACY_FILES",
    "MetricVerdict",
    "PolicyMetric",
    "SCHEMA_VERSION",
    "Snapshot",
    "SnapshotArchive",
    "TrendMetric",
    "aggregate",
    "bar_chart",
    "build_report_data",
    "category_bars",
    "evaluate_gate",
    "format_gate",
    "ingest_legacy",
    "line_chart",
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
