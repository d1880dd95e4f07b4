"""Minimal deterministic SVG rendering of utility points and fitted curves.

A presentation layer only: the plot shows exactly the points and fitted
lines that appear in the CSV output, delta against log10 compute, with
the fitted line solid inside its compute range and dotted where it is
extrapolated. Hand-rolled so the bytes depend on nothing but the data.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .manifest import UtilityPoint
from .scaling import ScalingFit

__all__ = ["render_fit_svg"]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 160, 30, 50

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)
_DOTTED = ' stroke-dasharray="3,4"'


def _fmt(value: float) -> str:
    return format(value, ".2f")


def render_fit_svg(points: Sequence[UtilityPoint], fits: Sequence[ScalingFit]) -> str:
    """Render points and per-source fitted lines as an SVG document."""
    # Imported here: saxutils pulls in urllib.request, which only --svg needs.
    from xml.sax.saxutils import escape

    if not points:
        raise ValueError("nothing to plot: no utility points")
    xs = [math.log10(p.compute) for p in points]
    ys = [p.delta.value for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = max(0.05 * (x_hi - x_lo), 0.1)
    y_pad = max(0.05 * (y_hi - y_lo), 1e-6)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    # Each source's points in input order, so each fit visits only its own.
    by_source: dict[str, list[tuple[float, float]]] = {}
    for point, x, y in zip(points, xs, ys):
        by_source.setdefault(point.source_id, []).append((x, y))

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    # The canvas grows below the plot to hold one legend line per fit.
    height = max(_HEIGHT, _MARGIN_TOP + 16 * (len(fits) + 1))

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}"'
        f' viewBox="0 0 {_WIDTH} {height}">',
        f'<rect width="{_WIDTH}" height="{height}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}"'
        ' fill="none" stroke="#cccccc"/>',
    ]

    for tick in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        x = sx(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_MARGIN_TOP}" x2="{_fmt(x)}"'
            f' y2="{_MARGIN_TOP + plot_h}" stroke="#eeeeee"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_MARGIN_TOP + plot_h + 18}" font-size="11"'
            f' text-anchor="middle" font-family="sans-serif">1e{tick}</text>'
        )
    for i in range(5):
        y_val = y_lo + (y_hi - y_lo) * i / 4
        y = sy(y_val)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{_fmt(y)}" x2="{_MARGIN_LEFT + plot_w}"'
            f' y2="{_fmt(y)}" stroke="#eeeeee"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{_fmt(y + 4)}" font-size="11"'
            f' text-anchor="end" font-family="sans-serif">{format(y_val, ".4g")}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2}" y="{_HEIGHT - 12}" font-size="12"'
        ' text-anchor="middle" font-family="sans-serif">compute (FLOPs, log scale)</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2}" font-size="12" text-anchor="middle"'
        f' font-family="sans-serif" transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2})">'
        "utility delta</text>"
    )

    def line_points(fit: ScalingFit, lo: float, hi: float) -> str:
        # Straight on the log10 axis, so its two ends draw it.
        return " ".join(
            f"{_fmt(sx(x))},{_fmt(sy(fit.intercept + fit.slope * x * math.log(10)))}"
            for x in (lo, hi)
        )

    for idx, fit in enumerate(sorted(fits, key=lambda f: f.source_id)):
        color = _PALETTE[idx % len(_PALETTE)]
        # Solid inside the fitted range, dotted where the plot extrapolates
        # it; the range is clamped to the plot and empty segments skipped.
        r_lo, r_hi = (min(max(math.log10(c), x_lo), x_hi) for c in fit.compute_range)
        for lo, hi, dash in ((x_lo, r_lo, _DOTTED), (r_lo, r_hi, ""), (r_hi, x_hi, _DOTTED)):
            if lo < hi:
                parts.append(
                    f'<polyline points="{line_points(fit, lo, hi)}" fill="none"'
                    f' stroke="{color}" stroke-width="1.5"{dash}/>'
                )
        label_y = _MARGIN_TOP + 16 + 16 * idx
        parts.append(
            f'<line x1="{_WIDTH - _MARGIN_RIGHT + 10}" y1="{label_y - 4}"'
            f' x2="{_WIDTH - _MARGIN_RIGHT + 34}" y2="{label_y - 4}" stroke="{color}"'
            ' stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_RIGHT + 40}" y="{label_y}" font-size="11"'
            f' font-family="sans-serif">{escape(fit.source_id)}</text>'
        )
        for x, y in by_source.get(fit.source_id, ()):
            parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3.5" fill="{color}"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
