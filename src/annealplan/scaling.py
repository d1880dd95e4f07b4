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

from .costs import CostBasis
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
        if self.n_points < 2:
            raise ValueError(f"a fit needs at least 2 points, got {self.n_points}")
        c_lo, c_hi = self.compute_range
        if not (0 < c_lo <= c_hi):
            raise ValueError(f"invalid compute range [{c_lo}, {c_hi}]")
        if not math.isfinite(self.rmse) or self.rmse < 0:
            raise ValueError(f"rmse must be finite and nonnegative, got {self.rmse}")


class Prediction(NamedTuple):
    value: float
    extrapolated: bool


@dataclass(frozen=True)
class Crossover:
    """Compute value where two fitted curves intersect and the lead flips."""

    compute: float
    leader_below: str
    leader_above: str
    in_range: bool

    def __post_init__(self) -> None:
        if self.leader_below == self.leader_above:
            raise ValueError("a crossover must have distinct leaders")
        if not (math.isfinite(self.compute) and self.compute > 0):
            raise ValueError(f"crossover compute must be finite and positive, got {self.compute}")


@dataclass(frozen=True)
class RankedSource:
    source_id: str
    predicted_delta: float
    extrapolated: bool
    tied: bool


def _check_points(points: Sequence[UtilityPoint], drop_smallest: int) -> list[UtilityPoint]:
    if len(points) < 2:
        raise ValueError(f"need at least 2 points to fit, got {len(points)}")
    source_ids = {p.source_id for p in points}
    if len(source_ids) > 1:
        raise ValueError(f"points mix sources: {sorted(source_ids)}")
    bases = {p.basis for p in points}
    if len(bases) > 1:
        raise ValueError("points mix cost bases")
    for p in points:
        if not p.compute > 0:
            raise ValueError(
                f"compute must be positive to fit in log space, got {p.compute} for {p.source_id!r}"
            )
    if drop_smallest:
        if drop_smallest < 0:
            raise ValueError(f"drop_smallest must be >= 0, got {drop_smallest}")
        points = sorted(points, key=lambda p: p.compute)[drop_smallest:]
        if len(points) < 2:
            raise ValueError(
                f"dropping {drop_smallest} smallest-compute points leaves fewer than 2"
            )
    if len({p.compute for p in points}) < 2:
        raise ValueError("degenerate design: all points share one compute value")
    return list(points)


def _ols(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    # Closed-form least squares on centered coordinates; returns
    # (intercept, slope, rmse).
    n = len(xs)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residuals = [y - (intercept + slope * x) for x, y in zip(xs, ys)]
    rmse = math.sqrt(math.fsum(r * r for r in residuals) / n)
    return intercept, slope, rmse


def fit_log_linear(points: Sequence[UtilityPoint], drop_smallest: int = 0) -> ScalingFit:
    """Least-squares fit of delta against ln(compute) for one source.

    Args:
        points: utility points for a single source and basis, with at
            least two distinct positive compute values.
        drop_smallest: exclude this many smallest-compute points before
            fitting (small-scale runs can be noisy outliers).
    """
    kept = _check_points(points, drop_smallest)
    xs = [math.log(p.compute) for p in kept]
    ys = [p.delta.value for p in kept]
    intercept, slope, rmse = _ols(xs, ys)
    computes = [p.compute for p in kept]
    return ScalingFit(
        source_id=kept[0].source_id,
        intercept=intercept,
        slope=slope,
        n_points=len(kept),
        rmse=rmse,
        compute_range=(min(computes), max(computes)),
        basis=kept[0].basis,
    )


def predict(fit: ScalingFit, compute: float) -> Prediction:
    """Predicted delta at ``compute``, flagged when outside the fitted range."""
    if not compute > 0:
        raise ValueError(f"compute must be positive, got {compute}")
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
    if fit_a.slope == fit_b.slope:
        return None
    log_c = (fit_b.intercept - fit_a.intercept) / (fit_a.slope - fit_b.slope)
    try:
        c_star = math.exp(log_c)
    except OverflowError:
        return None
    if not (math.isfinite(c_star) and c_star > 0):
        return None
    # Probe at half and double the crossover, directly in log space so
    # the probes stay representable even when c_star is near the float
    # range limits.
    below_a = fit_a.intercept + fit_a.slope * (log_c - math.log(2))
    below_b = fit_b.intercept + fit_b.slope * (log_c - math.log(2))
    above_a = fit_a.intercept + fit_a.slope * (log_c + math.log(2))
    above_b = fit_b.intercept + fit_b.slope * (log_c + math.log(2))
    leader_below = fit_a.source_id if below_a >= below_b else fit_b.source_id
    leader_above = fit_a.source_id if above_a >= above_b else fit_b.source_id
    if leader_below == leader_above:
        return None
    in_range = all(
        fit.compute_range[0] <= c_star <= fit.compute_range[1] for fit in (fit_a, fit_b)
    )
    return Crossover(
        compute=c_star,
        leader_below=leader_below,
        leader_above=leader_above,
        in_range=in_range,
    )


def rank_at_budget(fits: Sequence[ScalingFit], budget: float) -> list[RankedSource]:
    """Sources ordered by predicted delta when the whole budget goes to each.

    Each source's compute axis already prices its tokens, so evaluating
    every fit at the same budget compares the best dataset each source
    could deliver for that spend. Ties within ``TIE_RTOL`` are flagged
    and broken lexicographically by source id.
    """
    if not fits:
        raise ValueError("need at least one fit to rank")
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")
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
