"""Dependency-free inline SVG line and bar charts.

The HTML trend report embeds these directly, so a rendered report is a
single self-contained file — no plotting library, no external assets,
regenerable offline from the committed benchmark files. Series may contain
``None`` gaps (a commit that predates a metric); line charts break the
polyline there instead of interpolating through the hole.
"""

from __future__ import annotations

import math
from html import escape
from typing import Mapping, Sequence

_PALETTE = (
    "#2563eb",
    "#dc2626",
    "#059669",
    "#d97706",
    "#7c3aed",
    "#0891b2",
    "#be185d",
    "#4d7c0f",
)
#: Every chart's size in pixels.
_WIDTH = 640
_HEIGHT = 300
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 46


def _fmt(value: float) -> str:
    """Short tick/bar label: 1234567 -> 1.23e+06, 0.93 -> 0.93."""
    if value == 0:
        return "0"
    if abs(value) >= 100000 or abs(value) < 0.001:
        return f"{value:.3g}"
    if abs(value) >= 100:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def _finite(values: Sequence[float | None]) -> list[float]:
    return [
        v
        for v in values
        if isinstance(v, (int, float))
        and not isinstance(v, bool)
        and math.isfinite(v)
    ]


def _empty(title: str, reason: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" role="img">'
        f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" '
        f'font-size="13" font-weight="bold">{escape(title)}</text>'
        f'<text x="{_WIDTH / 2}" y="{_HEIGHT / 2}" text-anchor="middle" '
        f'font-size="12" fill="#6b7280">{escape(reason)}</text></svg>'
    )


def _frame(
    title: str, y_label: str, lo: float, hi: float
) -> tuple[list[str], float, float, "_Scale"]:
    """Shared chart chrome: title, axes, y gridlines. Returns the open
    element list, plot-area origin, and the y scale."""
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    scale = _Scale(lo, hi, _MARGIN_TOP, plot_h)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" role="img" '
        f'font-family="system-ui, sans-serif">',
        f'<text x="{_WIDTH / 2}" y="18" text-anchor="middle" font-size="13" '
        f'font-weight="bold">{escape(title)}</text>',
    ]
    if y_label:
        parts.append(
            f'<text x="14" y="{_MARGIN_TOP + plot_h / 2}" font-size="11" '
            f'fill="#374151" text-anchor="middle" transform="rotate(-90 14 '
            f'{_MARGIN_TOP + plot_h / 2})">{escape(y_label)}</text>'
        )
    for tick in range(5):
        value = lo + (hi - lo) * tick / 4
        y = scale.y(value)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.1f}" '
            f'x2="{_MARGIN_LEFT + plot_w}" y2="{y:.1f}" stroke="#e5e7eb" '
            f'stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{y + 4:.1f}" font-size="10" '
            f'fill="#6b7280" text-anchor="end">{escape(_fmt(value))}</text>'
        )
    return parts, float(_MARGIN_LEFT), float(plot_w), scale


class _Scale:
    def __init__(self, lo: float, hi: float, top: float, plot_h: float):
        self.lo, self.hi, self.top, self.plot_h = lo, hi, top, plot_h

    def y(self, value: float) -> float:
        span = self.hi - self.lo
        frac = 0.5 if span == 0 else (value - self.lo) / span
        return self.top + self.plot_h * (1.0 - frac)


def line_chart(
    x_labels: Sequence[object],
    series: Mapping[str, Sequence[float | None]],
    *,
    title: str = "",
    y_label: str = "",
) -> str:
    """Multi-series line chart over ordinal x positions."""
    flat = [v for values in series.values() for v in _finite(values)]
    if not x_labels or not flat:
        return _empty(title, "no data points")
    lo, hi = min(flat), max(flat)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = (hi - lo) * 0.05
    parts, left, plot_w, scale = _frame(title, y_label, lo - pad, hi + pad)
    n = len(x_labels)
    xs = [left + plot_w * (0.5 if n == 1 else i / (n - 1)) for i in range(n)]
    for index, (name, values) in enumerate(sorted(series.items())):
        color = _PALETTE[index % len(_PALETTE)]
        segment: list[str] = []
        segments: list[list[str]] = []
        for i in range(min(n, len(values))):
            value = values[i]
            if value is None or not math.isfinite(float(value)):
                if segment:
                    segments.append(segment)
                segment = []
                continue
            x, y = xs[i], scale.y(float(value))
            segment.append(f"{x:.1f},{y:.1f}")
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}"/>'
            )
        if segment:
            segments.append(segment)
        for points in segments:
            if len(points) > 1:
                parts.append(
                    f'<polyline points="{" ".join(points)}" fill="none" '
                    f'stroke="{color}" stroke-width="2"/>'
                )
    _x_axis_labels(parts, x_labels, xs)
    _legend(parts, sorted(series))
    parts.append("</svg>")
    return "".join(parts)


def bar_chart(
    labels: Sequence[object],
    values: Sequence[float | None],
    *,
    title: str = "",
    y_label: str = "",
) -> str:
    """Single-series bar chart with a zero baseline."""
    finite = _finite(values)
    if not labels or not finite:
        return _empty(title, "no data points")
    lo, hi = min(0.0, min(finite)), max(0.0, max(finite))
    if lo == hi:
        hi = lo + 1.0
    parts, left, plot_w, scale = _frame(title, y_label, lo, hi)
    n = len(labels)
    slot = plot_w / n
    bar_w = max(4.0, slot * 0.6)
    centers = [left + slot * (i + 0.5) for i in range(n)]
    zero = scale.y(0.0)
    for i in range(min(n, len(values))):
        value = values[i]
        if value is None or not math.isfinite(float(value)):
            continue
        y = scale.y(float(value))
        top, bottom = min(y, zero), max(y, zero)
        color = _PALETTE[0] if float(value) >= 0 else _PALETTE[1]
        parts.append(
            f'<rect x="{centers[i] - bar_w / 2:.1f}" y="{top:.1f}" '
            f'width="{bar_w:.1f}" height="{max(bottom - top, 0.5):.1f}" '
            f'fill="{color}" fill-opacity="0.85"/>'
        )
        parts.append(
            f'<text x="{centers[i]:.1f}" y="{top - 4:.1f}" font-size="9" '
            f'fill="#374151" text-anchor="middle">'
            f"{escape(_fmt(float(value)))}</text>"
        )
    _x_axis_labels(parts, labels, centers)
    parts.append("</svg>")
    return "".join(parts)


def _x_axis_labels(
    parts: list[str],
    labels: Sequence[object],
    positions: Sequence[float],
) -> None:
    y = _HEIGHT - _MARGIN_BOTTOM + 14
    step = max(1, math.ceil(len(labels) / 16))
    for i in range(0, min(len(labels), len(positions)), step):
        text = str(labels[i])
        if len(text) > 14:
            text = text[:13] + "…"
        parts.append(
            f'<text x="{positions[i]:.1f}" y="{y}" font-size="9" '
            f'fill="#374151" text-anchor="end" transform="rotate(-30 '
            f'{positions[i]:.1f} {y})">{escape(text)}</text>'
        )


def _legend(parts: list[str], names: Sequence[str]) -> None:
    x = _MARGIN_LEFT
    y = 30
    for index, name in enumerate(names):
        color = _PALETTE[index % len(_PALETTE)]
        label = name if len(name) <= 28 else name[:27] + "…"
        parts.append(
            f'<rect x="{x}" y="{y - 8}" width="9" height="9" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x + 12}" y="{y}" font-size="10" '
            f'fill="#111827">{escape(label)}</text>'
        )
        x += 18 + 6 * len(label)
        if x > _WIDTH - 120:
            x = _MARGIN_LEFT
            y += 14
