"""Budget allocation across data sources with fitted utility curves.

Splitting a compute budget across sources whose utilities add as
intercept + slope * ln(assigned compute) is a concave maximization over
the simplex; its optimum assigns compute proportionally to the slopes.
Sources with non-positive slope are excluded outright: their terms have
no interior optimum, and granting them any budget only starves sources
that do improve with scale. A brute-force grid enumerator is provided
as an independent check on the closed form.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .costs import _check_at_least, _check_positive_finite
from .scaling import ScalingFit, predict

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AllocationPlan",
    "allocate_grid_oracle",
    "allocate_proportional",
    "mixture_utility",
]

EXCLUDED_NON_POSITIVE_SLOPE = "non-positive slope"
_Exclusions = tuple[tuple[str, str], ...]  # (source id, reason) pairs

# The oracle enumerates every composition of the budget grid; beyond a
# handful of sources that blows up combinatorially.
MAX_ORACLE_SOURCES = 4
# The fewest grid steps that can split the budget between two sources.
MIN_ORACLE_RESOLUTION = 2
# _compositions builds a dense grid of (resolution - k + 1) ** (k - 1)
# cells for k included sources. At this cap an oracle call peaks near
# 1 GB, so larger grids are refused before any of it is allocated.
MAX_ORACLE_GRID_CELLS = 1 << 24


@dataclass(frozen=True)
class AllocationPlan:
    """Per-source compute assignment summing to the total budget."""

    assignments: Mapping[str, float]
    total: float
    predicted_mixture_utility: float
    excluded: tuple[tuple[str, str], ...] = ()
    warnings: tuple[str, ...] = ()


def _check_fits(fits: Sequence[ScalingFit]) -> None:
    if not fits:
        raise ValueError("need at least one fit to allocate")
    ids = [fit.source_id for fit in fits]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate source ids in fits: {sorted(ids)}")
    if len({fit.basis for fit in fits}) > 1:
        raise ValueError("cannot allocate across fits with mixed cost bases")


def mixture_utility(fits: Sequence[ScalingFit], assignments: Mapping[str, float]) -> float:
    """Total predicted delta of a mixture under additive independence.

    Sources assigned zero compute are simply absent from the sum; a
    log-linear term has no finite value at zero, so "not buying" a
    source means dropping its term rather than evaluating it there.
    """
    by_id = {fit.source_id: fit for fit in fits}
    total = 0.0
    for source_id, compute in assignments.items():
        if compute == 0:
            continue
        if compute < 0:
            raise ValueError(f"negative assignment {compute} for {source_id!r}")
        if not math.isfinite(compute):
            raise ValueError(f"non-finite assignment {compute} for {source_id!r}")
        fit = by_id.get(source_id)
        if fit is None:
            raise ValueError(f"assignment for {source_id!r} has no fit")
        total += fit.intercept + fit.slope * math.log(compute)
    return total


def _by_slope(fits: Sequence[ScalingFit]) -> tuple[list[ScalingFit], _Exclusions]:
    """The positive-slope fits, and an exclusion for each non-positive slope."""
    included = [fit for fit in fits if fit.slope > 0]
    excluded = tuple(
        (fit.source_id, EXCLUDED_NON_POSITIVE_SLOPE) for fit in fits if fit.slope <= 0
    )
    return included, excluded


def _plan(
    fits: Sequence[ScalingFit],
    c_max: float,
    bought: Mapping[str, float],
    excluded: _Exclusions,
    warnings: Sequence[str] = (),
) -> AllocationPlan:
    """The plan that buys ``bought`` and assigns every other fit zero.

    A bought source leaves ``excluded``. Each share outside its fit's
    range adds a warning after ``warnings``.
    """
    assignments = {}
    warnings = list(warnings)
    for fit in fits:
        compute = assignments[fit.source_id] = bought.get(fit.source_id, 0.0)
        c_lo, c_hi = fit.compute_range
        if compute > 0 and not c_lo <= compute <= c_hi:
            warnings.append(
                f"{fit.source_id}: assignment {compute:.6g} outside fitted range"
                f" [{c_lo:.6g}, {c_hi:.6g}]; prediction is extrapolated"
            )
    excluded = tuple(e for e in excluded if e[0] not in bought)
    return AllocationPlan(
        assignments, c_max, mixture_utility(fits, assignments), excluded, tuple(warnings)
    )


def allocate_proportional(fits: Sequence[ScalingFit], c_max: float) -> AllocationPlan:
    """Optimal budget split: compute proportional to each positive slope.

    When no source has a positive slope the mixture objective is
    maximized by a single source, so the whole budget goes to whichever
    fit predicts best at ``c_max``.
    """
    _check_fits(fits)
    _check_positive_finite(c_max, "c_max")
    included, excluded = _by_slope(fits)
    if not included:
        best = min(fits, key=lambda fit: (-predict(fit, c_max).value, fit.source_id)).source_id
        warning = f"no source has a positive slope; assigning the whole budget to {best}"
        return _plan(fits, c_max, {best: c_max}, excluded, [warning])
    if len(included) == 1:  # s * c / s need not round to c
        return _plan(fits, c_max, {included[0].source_id: c_max}, excluded)
    slope_sum = math.fsum(fit.slope for fit in included)
    shares = {fit.source_id: fit.slope * c_max / slope_sum for fit in included}
    return _plan(fits, c_max, shares, excluded)


def _compositions(n_parts: int, total: int) -> np.ndarray:
    """All length-``n_parts`` nonnegative integer tuples summing to ``total``.

    Rows are in lexicographic order of the leading columns, which fixes
    the oracle's tie-breaking. Built by enumerating the free leading
    columns on a dense grid and solving for the last one.
    """
    import numpy as np

    if n_parts == 1:
        return np.array([[total]], dtype=np.int64)
    free = np.indices((total + 1,) * (n_parts - 1), dtype=np.int32)
    free = free.reshape(n_parts - 1, -1).T.astype(np.int64)
    remainder = total - free.sum(axis=1)
    keep = remainder >= 0
    return np.hstack([free[keep], remainder[keep, None]])


def allocate_grid_oracle(
    fits: Sequence[ScalingFit], c_max: float, resolution: int
) -> AllocationPlan:
    """Exhaustive search over the budget simplex at a fixed grid resolution.

    The oracle searches the same family of plans the closed form
    optimizes over: non-positive-slope sources are excluded up front
    (their terms reward vanishing assignments without bound, an
    artifact of extrapolating the log-linear form toward zero compute),
    and every remaining source receives a strictly positive multiple of
    c_max/resolution. The utility-maximizing grid point wins, ties
    resolved by enumeration order. Exists to verify the closed form, so
    the source count is deliberately capped.
    """
    _check_fits(fits)
    if not 1 <= len(fits) <= MAX_ORACLE_SOURCES:
        raise ValueError(
            f"grid oracle supports at most {MAX_ORACLE_SOURCES} sources;"
            f" use allocate_proportional for {len(fits)}"
        )
    _check_at_least(resolution, MIN_ORACLE_RESOLUTION, "resolution")
    _check_positive_finite(c_max, "c_max")

    included, excluded = _by_slope(fits)
    if not included:  # the closed form's fallback family, scored by the objective
        best = min((-mixture_utility(fits, {fit.source_id: c_max}), fit.source_id) for fit in fits)
        return _plan(fits, c_max, {best[1]: c_max}, excluded)

    if resolution < len(included):
        raise ValueError(
            f"resolution {resolution} cannot give {len(included)} sources"
            " a positive assignment each"
        )
    cells = (resolution - len(included) + 1) ** (len(included) - 1)
    if cells > MAX_ORACLE_GRID_CELLS:
        raise ValueError(
            f"oracle resolution {resolution} over {len(included)} positive-slope sources"
            f" needs a grid of {cells} cells; at most {MAX_ORACLE_GRID_CELLS} are allowed"
        )
    import numpy as np  # the oracle is numpy's only user here, so load it on first call

    # Strictly positive compositions: distribute the leftover grid steps
    # freely, then give every included source its mandatory one.
    grid = _compositions(len(included), resolution - len(included)) + 1
    step = c_max / resolution
    intercepts = np.array([fit.intercept for fit in included])
    slopes = np.array([fit.slope for fit in included])
    utilities = (intercepts + slopes * np.log(grid * step)).sum(axis=1)
    best = int(np.argmax(utilities))

    shares = {fit.source_id: float(grid[best, i]) * step for i, fit in enumerate(included)}
    return _plan(fits, c_max, shares, excluded)
