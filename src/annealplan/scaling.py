"""Per-source utility scaling laws: delta = intercept + slope * ln(compute).

The model is log-linear in the natural log of FLOPs, fitted by
ordinary least squares in closed form. Predictions outside the fitted
compute range are allowed but always flagged as extrapolation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .costs import CostBasis, _check_at_least, _check_positive_finite, _require_finite
from .manifest import UtilityPoint

__all__ = [
    "Crossover",
    "Prediction",
    "RankedSource",
    "ScalingFit",
    "crossover",
    "fit_by_source",
    "fit_log_linear",
    "predict",
    "rank_at_budget",
]

# Two predictions within this relative tolerance are reported as tied.
TIE_RTOL = 1e-12
# Each ln(compute), the fit's x, is rounded to about 1e-16 of its size.
# Points whose ln values spread less than this share of the largest
# |ln(compute)| (or of 1) would fit a slope that rounding alone moves by
# over 1e-7 of its value, so they count as sharing one ln(compute).
_LN_SPREAD_RTOL = 1e-9
_LN2 = math.log(2)


@dataclass(frozen=True)
class ScalingFit:
    """Fitted log-linear utility curve for one source.

    ``slope`` is per natural-log FLOPs. ``compute_range`` brackets the
    data the fit saw; predictions outside it are extrapolations.
    """

    source_id: str
    intercept: float
    slope: float
    n_points: int
    rmse: float
    compute_range: tuple[float, float]
    basis: CostBasis

    def __post_init__(self) -> None:
        _require_finite(self, "intercept", "slope", "rmse")
        _check_at_least(self.n_points, 2, "n_points")
        _check_at_least(self.rmse, 0, "rmse")
        c_lo, c_hi = self.compute_range
        if not (0 < c_lo <= c_hi):
            raise ValueError(f"invalid compute range [{c_lo}, {c_hi}]")


class Prediction(NamedTuple):
    value: float
    extrapolated: bool


class Crossover(NamedTuple):
    """Compute value where two fitted curves intersect and the lead flips."""

    compute: float
    leader_below: str
    leader_above: str
    in_range: bool


@dataclass(frozen=True)
class RankedSource:
    source_id: str
    predicted_delta: float
    extrapolated: bool
    tied: bool


def _ols(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    # Closed-form least squares on centered coordinates; returns
    # (intercept, slope, rmse).
    n = len(xs)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum([(x - x_mean) ** 2 for x in xs])
    sxy = math.fsum([(x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)])
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residuals = [y - (intercept + slope * x) for x, y in zip(xs, ys)]
    rmse = math.sqrt(math.fsum([r * r for r in residuals]) / n)
    return intercept, slope, rmse


def fit_log_linear(points: Sequence[UtilityPoint], drop_smallest: int = 0) -> ScalingFit:
    """Least-squares fit of delta against ln(compute) for one source.

    Args:
        points: utility points for a single source and basis, with at
            least two distinct positive compute values.
        drop_smallest: exclude this many smallest-compute points before
            fitting (small-scale runs can be noisy outliers).
    """
    source_ids = {p.source_id for p in points}
    if len(source_ids) > 1:
        raise ValueError(f"points mix sources: {sorted(source_ids)}")
    where = f"source {points[0].source_id!r}: " if points else ""
    if len(points) < 2:
        raise ValueError(f"{where}need at least 2 points to fit, got {len(points)}")
    if len({p.basis for p in points}) > 1:
        raise ValueError("points mix cost bases")
    for p in points:
        if not p.compute > 0:
            raise ValueError(
                f"compute must be positive to fit in log space, got {p.compute} for {p.source_id!r}"
            )
    if drop_smallest:
        _check_at_least(drop_smallest, 0, "drop_smallest")
        points = sorted(points, key=lambda p: p.compute)[drop_smallest:]
        if len(points) < 2:
            raise ValueError(
                f"{where}dropping {drop_smallest} smallest-compute points leaves fewer than 2"
            )
    xs = [math.log(p.compute) for p in points]
    # Distinct computes can share one ln, or nearly, and leave no spread.
    if max(xs) - min(xs) <= _LN_SPREAD_RTOL * max(1.0, *map(abs, xs)):
        raise ValueError(f"{where}degenerate design: all points share one ln(compute)")
    intercept, slope, rmse = _ols(xs, [p.delta.value for p in points])
    computes = [p.compute for p in points]
    return ScalingFit(
        source_id=points[0].source_id,
        intercept=intercept,
        slope=slope,
        n_points=len(points),
        rmse=rmse,
        compute_range=(min(computes), max(computes)),
        basis=points[0].basis,
    )


def predict(fit: ScalingFit, compute: float) -> Prediction:
    """Predicted delta at ``compute``, flagged when outside the fitted range."""
    _check_positive_finite(compute, "compute")
    value = fit.intercept + fit.slope * math.log(compute)
    c_lo, c_hi = fit.compute_range
    return Prediction(value=value, extrapolated=not c_lo <= compute <= c_hi)


def crossover(fit_a: ScalingFit, fit_b: ScalingFit) -> Crossover | None:
    """Compute value where the two fitted curves meet, if any.

    Parallel curves (equal slopes, identical fits included) have no
    crossover and yield None, as do intersections that over- or
    underflow out of the representable compute range.
    """
    if fit_a.basis is not fit_b.basis:
        raise ValueError("cannot intersect fits with different cost bases")
    a0, a1, b0, b1 = fit_a.intercept, fit_a.slope, fit_b.intercept, fit_b.slope
    if a1 == b1:
        return None
    log_c = (b0 - a0) / (a1 - b1)
    try:
        c_star = math.exp(log_c)
    except OverflowError:
        return None
    if not (math.isfinite(c_star) and c_star > 0):
        return None
    # Probe at half and double the crossover, directly in log space so
    # the probes stay representable even when c_star is near the float
    # range limits.
    below, above = log_c - _LN2, log_c + _LN2
    leader_below = fit_a.source_id if a0 + a1 * below >= b0 + b1 * below else fit_b.source_id
    leader_above = fit_a.source_id if a0 + a1 * above >= b0 + b1 * above else fit_b.source_id
    if leader_below == leader_above:
        return None
    (a_lo, a_hi), (b_lo, b_hi) = fit_a.compute_range, fit_b.compute_range
    in_range = a_lo <= c_star <= a_hi and b_lo <= c_star <= b_hi
    return Crossover(c_star, leader_below, leader_above, in_range)


def rank_at_budget(fits: Sequence[ScalingFit], budget: float) -> list[RankedSource]:
    """Sources ordered by predicted delta when the whole budget goes to each.

    Each source's compute axis already prices its tokens, so evaluating
    every fit at the same budget compares the best dataset each source
    could deliver for that spend. Ties within ``TIE_RTOL`` are flagged
    and broken lexicographically by source id.
    """
    if not fits:
        raise ValueError("need at least one fit to rank")
    _check_positive_finite(budget, "budget")
    bases = {fit.basis for fit in fits}
    if len(bases) > 1:
        raise ValueError("cannot rank fits with mixed cost bases")
    predictions = [(fit.source_id, predict(fit, budget)) for fit in fits]
    predictions.sort(key=lambda item: (-item[1].value, item[0]))

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= TIE_RTOL * max(1.0, abs(a), abs(b))

    ranked = []
    for i, (source_id, pred) in enumerate(predictions):
        tied = (i > 0 and close(pred.value, predictions[i - 1][1].value)) or (
            i + 1 < len(predictions) and close(pred.value, predictions[i + 1][1].value)
        )
        ranked.append(
            RankedSource(
                source_id=source_id,
                predicted_delta=pred.value,
                extrapolated=pred.extrapolated,
                tied=tied,
            )
        )
    return ranked


def fit_by_source(
    points: Sequence[UtilityPoint], drop_smallest: int = 0
) -> list[ScalingFit]:
    """Fit every source present in ``points``, sorted by source id."""
    by_source: dict[str, list[UtilityPoint]] = {}
    for point in points:
        by_source.setdefault(point.source_id, []).append(point)
    return [
        fit_log_linear(by_source[source_id], drop_smallest=drop_smallest)
        for source_id in sorted(by_source)
    ]
