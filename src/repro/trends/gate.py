"""The counter-based regression gate.

A declarative policy (``trends/policy.toml``) names metrics over the
benchmark history — bench, field, row filter, aggregation, direction —
and a regression budget. The gate compares each metric's value in the
*candidate* (the newest committed snapshot of that bench) against the
*best* value any strictly older snapshot achieved, and fails when a
non-advisory metric worsened by more than the budget. Wall-clock
metrics are declared ``advisory = true``: they print in the gate output
but can never fail it, because shared CI hosts are not clocks — the
machine-independent :class:`repro.metrics.counters.CostCounters` and
the warehouse/gateway gauges are what the gate trusts.

Policy parsing uses :mod:`tomllib` where available (3.11+) and falls
back to a minimal parser covering the policy subset (tables, arrays of
tables, scalar and one-level inline-table values) on 3.10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import TrendsError
from repro.trends.queries import TrendMetric
from repro.trends.schema import Snapshot

try:  # python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised on 3.10 runners
    tomllib = None

#: Default regression budget (percent) when the policy sets none.
DEFAULT_MAX_REGRESSION_PCT = 10.0


@dataclass(frozen=True)
class PolicyMetric:
    """One gated metric: a trend metric plus its regression budget."""

    metric: TrendMetric
    max_regression_pct: float


@dataclass(frozen=True)
class GatePolicy:
    max_regression_pct: float = DEFAULT_MAX_REGRESSION_PCT
    metrics: tuple[PolicyMetric, ...] = ()


@dataclass(frozen=True)
class MetricVerdict:
    """The gate's decision for one policy metric.

    ``status`` is one of ``ok`` (within budget, or improved),
    ``regressed`` (over budget — fails the gate), ``advisory-regressed``
    (over budget but advisory — never fails), ``no-baseline`` (nothing
    older to compare against — passes) and ``missing`` (the candidate
    snapshot lacks the metric — fails unless advisory, so a payload
    that silently drops a gated counter is caught).
    """

    metric: TrendMetric
    max_regression_pct: float
    candidate: float | None
    candidate_commit: str
    baseline: float | None
    baseline_commit: str
    change_pct: float | None
    status: str

    @property
    def fails(self) -> bool:
        return self.status in ("regressed", "missing") and not self.metric.advisory


@dataclass(frozen=True)
class GateResult:
    verdicts: tuple[MetricVerdict, ...] = field(default=())

    @property
    def failures(self) -> tuple[MetricVerdict, ...]:
        return tuple(v for v in self.verdicts if v.fails)

    @property
    def ok(self) -> bool:
        return not self.failures


def _worsening_pct(
    candidate: float, baseline: float, direction: str
) -> float:
    """Signed worsening percentage: positive means the candidate is worse."""
    delta = candidate - baseline if direction == "lower" else baseline - candidate
    if baseline == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(baseline) * 100.0


def evaluate_gate(
    snapshots: Sequence[Snapshot], policy: GatePolicy
) -> GateResult:
    """Judge every policy metric against ``snapshots``, oldest first
    (as :func:`repro.trends.history.load_history` returns them)."""
    by_bench: dict[str, list[Snapshot]] = {}
    for snapshot in snapshots:
        by_bench.setdefault(snapshot.bench, []).append(snapshot)
    verdicts = []
    for entry in policy.metrics:
        metric = entry.metric
        history = by_bench.get(metric.bench, [])
        if not history:
            verdicts.append(
                MetricVerdict(
                    metric, entry.max_regression_pct,
                    None, "-", None, "-", None, "missing",
                )
            )
            continue
        candidate_snapshot = history[-1]
        candidate = metric.value(candidate_snapshot)
        baselines = [
            (value, snapshot.commit_short)
            for snapshot in history[:-1]
            if (value := metric.value(snapshot)) is not None
        ]
        if candidate is None:
            verdicts.append(
                MetricVerdict(
                    metric, entry.max_regression_pct,
                    None, candidate_snapshot.commit_short,
                    None, "-", None, "missing",
                )
            )
            continue
        if not baselines:
            verdicts.append(
                MetricVerdict(
                    metric, entry.max_regression_pct,
                    candidate, candidate_snapshot.commit_short,
                    None, "-", None, "no-baseline",
                )
            )
            continue
        best = (min if metric.direction == "lower" else max)(
            baselines, key=lambda pair: pair[0]
        )
        change = _worsening_pct(candidate, best[0], metric.direction)
        if change > entry.max_regression_pct:
            status = "advisory-regressed" if metric.advisory else "regressed"
        else:
            status = "ok"
        verdicts.append(
            MetricVerdict(
                metric, entry.max_regression_pct,
                candidate, candidate_snapshot.commit_short,
                best[0], best[1], change, status,
            )
        )
    return GateResult(tuple(verdicts))


def format_gate(result: GateResult) -> str:
    """Human-readable gate transcript, one line per metric."""
    lines = []
    for verdict in result.verdicts:
        metric = verdict.metric
        tag = "FAIL" if verdict.fails else "ok  "
        if verdict.status == "no-baseline":
            detail = f"candidate {verdict.candidate:g}, no older baseline"
        elif verdict.status == "missing":
            detail = "metric absent from the candidate snapshot"
        else:
            detail = (
                f"candidate {verdict.candidate:g} @ {verdict.candidate_commit} "
                f"vs best {verdict.baseline:g} @ {verdict.baseline_commit} "
                f"({verdict.change_pct:+.1f}% worse, budget "
                f"{verdict.max_regression_pct:g}%)"
            )
        advisory = " [advisory]" if metric.advisory else ""
        lines.append(
            f"{tag} [{verdict.status}]{advisory} {metric.name}: {detail}"
        )
    verdict_line = (
        "gate: PASS"
        if result.ok
        else f"gate: FAIL ({len(result.failures)} metric(s) regressed)"
    )
    lines.append(verdict_line)
    return "\n".join(lines)


def _policy_from_data(data: Mapping[str, Any], source: str) -> GatePolicy:
    gate_table = data.get("gate", {})
    if not isinstance(gate_table, Mapping):
        raise TrendsError(f"{source}: [gate] must be a table")
    default_budget = gate_table.get(
        "max_regression_pct", DEFAULT_MAX_REGRESSION_PCT
    )
    if isinstance(default_budget, bool) or not isinstance(
        default_budget, (int, float)
    ):
        raise TrendsError(f"{source}: gate.max_regression_pct must be a number")
    raw_metrics = data.get("metric", [])
    if not isinstance(raw_metrics, list) or not raw_metrics:
        raise TrendsError(f"{source}: policy declares no [[metric]] entries")
    metrics = []
    for index, raw in enumerate(raw_metrics):
        if not isinstance(raw, Mapping):
            raise TrendsError(f"{source}: metric #{index + 1} is not a table")
        label = raw.get("name") or f"metric #{index + 1}"
        for required in ("bench", "field"):
            if not isinstance(raw.get(required), str) or not raw.get(required):
                raise TrendsError(
                    f"{source}: {label} is missing the {required!r} key"
                )
        where = raw.get("where", {})
        if not isinstance(where, Mapping):
            raise TrendsError(f"{source}: {label} 'where' must be a table")
        budget = raw.get("max_regression_pct", default_budget)
        if isinstance(budget, bool) or not isinstance(budget, (int, float)):
            raise TrendsError(
                f"{source}: {label} max_regression_pct must be a number"
            )
        metric = TrendMetric(
            name=str(label),
            bench=raw["bench"],
            field=raw["field"],
            where=dict(where),
            agg=raw.get("agg", "mean"),
            direction=raw.get("direction", "lower"),
            advisory=bool(raw.get("advisory", False)),
        )
        metrics.append(PolicyMetric(metric, float(budget)))
    return GatePolicy(float(default_budget), tuple(metrics))


def load_policy(path: str | Path) -> GatePolicy:
    """Parse a policy file; raises :class:`TrendsError` on any defect."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TrendsError(f"cannot read gate policy {path}: {exc}") from exc
    if tomllib is not None:
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise TrendsError(f"invalid TOML in {path}: {exc}") from exc
    else:
        data = parse_minimal_toml(text, source=str(path))
    return _policy_from_data(data, str(path))


def _strip_comment(line: str) -> str:
    """Drop a trailing comment, respecting double-quoted strings."""
    out = []
    in_string = False
    for char in line:
        if char == '"':
            in_string = not in_string
        elif char == "#" and not in_string:
            break
        out.append(char)
    return "".join(out)


def _parse_scalar(text: str, source: str) -> Any:
    text = text.strip()
    if len(text) >= 2 and text.startswith('"') and text.endswith('"'):
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise TrendsError(f"{source}: cannot parse value {text!r}") from None


def parse_minimal_toml(text: str, *, source: str = "policy") -> dict[str, Any]:
    """Parse the policy subset of TOML.

    Supports ``[table]`` headers, ``[[array-of-tables]]`` headers,
    ``key = scalar`` (string / int / float / bool) and one-level inline
    tables (``where = { dataset = "connect4", jobs = 4 }``). This is the
    3.10 fallback for :mod:`tomllib`; both parsers accept
    ``trends/policy.toml``.
    """
    data: dict[str, Any] = {}
    current: dict[str, Any] = data
    for number, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        here = f"{source}:{number}"
        if line.startswith("[[") and line.endswith("]]"):
            name = line[2:-2].strip()
            if not name:
                raise TrendsError(f"{here}: empty table-array header")
            current = {}
            data.setdefault(name, []).append(current)
        elif line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise TrendsError(f"{here}: empty table header")
            current = data.setdefault(name, {})
        elif "=" in line:
            key, _, value = line.partition("=")
            key = key.strip().strip('"')
            value = value.strip()
            if not key:
                raise TrendsError(f"{here}: missing key")
            if value.startswith("{") and value.endswith("}"):
                inline: dict[str, Any] = {}
                body = value[1:-1].strip()
                if body:
                    for pair in body.split(","):
                        sub_key, eq, sub_value = pair.partition("=")
                        if not eq:
                            raise TrendsError(
                                f"{here}: malformed inline table entry "
                                f"{pair.strip()!r}"
                            )
                        inline[sub_key.strip().strip('"')] = _parse_scalar(
                            sub_value, here
                        )
                current[key] = inline
            else:
                current[key] = _parse_scalar(value, here)
        else:
            raise TrendsError(f"{here}: cannot parse line {line!r}")
    return data
