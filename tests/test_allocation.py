import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealplan.allocation import (
    EXCLUDED_NON_POSITIVE_SLOPE,
    allocate_grid_oracle,
    allocate_proportional,
    mixture_utility,
)
from annealplan.costs import CostBasis
from annealplan.manifest import UtilityPoint
from annealplan.metrics import MetricKind, UtilityDelta
from annealplan.scaling import ScalingFit, fit_log_linear

BASIS = CostBasis.CURATION_PLUS_ANNEALING


def make_fit(intercept, slope, source):
    points = [
        UtilityPoint(
            source_id=source,
            steps=i + 1,
            compute=c,
            tokens_upsampled=1e8,
            delta=UtilityDelta(
                value=intercept + slope * math.log(c), metric=MetricKind.BRIER, source_id=source
            ),
            basis=BASIS,
        )
        for i, c in enumerate((1e18, 1e22))
    ]
    return fit_log_linear(points)


class TestMixtureUtility:
    def test_slope_free_source(self):
        fit = make_fit(1.0, 0.0, "a")
        assert mixture_utility([fit], {"a": 123.0}) == 1.0

    def test_two_sources_at_e(self):
        fits = [make_fit(0.0, 1.0, "a"), make_fit(0.0, 1.0, "b")]
        assert mixture_utility(fits, {"a": math.e, "b": math.e}) == 2.0

    def test_empty_inclusion(self):
        assert mixture_utility([make_fit(1.0, 0.1, "a")], {"a": 0.0}) == 0.0
        assert mixture_utility([], {}) == 0.0

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="no fit"):
            mixture_utility([make_fit(1.0, 0.1, "a")], {"b": 1.0})

    def test_negative_assignment_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            mixture_utility([make_fit(1.0, 0.1, "a")], {"a": -1.0})

    @pytest.mark.parametrize("compute", [math.nan, math.inf])
    def test_non_finite_assignment_rejected(self, compute):
        with pytest.raises(ValueError, match=f"^non-finite assignment {compute} for 'a'$"):
            mixture_utility([make_fit(1.0, 0.1, "a")], {"a": compute})


class TestAllocateProportional:
    def test_slope_proportional_split(self):
        fits = [make_fit(0.0, 2.0, "a"), make_fit(0.0, 1.0, "b")]
        plan = allocate_proportional(fits, 3.0)
        assert plan.assignments["a"] == pytest.approx(2.0, rel=1e-12)
        assert plan.assignments["b"] == pytest.approx(1.0, rel=1e-12)
        assert plan.total == 3.0
        assert plan.excluded == ()

    def test_negative_slope_excluded(self):
        fits = [make_fit(0.0, 1.0, "a"), make_fit(0.0, 1.0, "b"), make_fit(0.0, -5.0, "c")]
        plan = allocate_proportional(fits, 2.0)
        assert plan.assignments["a"] == pytest.approx(1.0, rel=1e-12)
        assert plan.assignments["b"] == pytest.approx(1.0, rel=1e-12)
        assert plan.assignments["c"] == 0.0
        assert ("c", EXCLUDED_NON_POSITIVE_SLOPE) in plan.excluded

    def test_single_positive_slope_gets_everything(self):
        fits = [make_fit(0.0, 0.5, "a"), make_fit(9.0, -0.1, "b")]
        plan = allocate_proportional(fits, 7e20)
        assert plan.assignments["a"] == 7e20

    def test_no_positive_slope_falls_back_to_single_best(self):
        fits = [make_fit(0.0, -0.5, "a"), make_fit(5.0, -1.0, "b")]
        c_max = 1e20
        plan = allocate_proportional(fits, c_max)
        # a wins at this budget: -0.5 ln(c) > 5 - ln(c) once ln(c) > 10.
        assert plan.assignments["a"] == c_max
        assert plan.assignments["b"] == 0.0
        assert any("whole budget" in w for w in plan.warnings)

    def test_budget_conservation(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            fits = [
                make_fit(float(rng.uniform(-1, 1)), float(rng.uniform(1e-4, 0.1)), f"s{i}")
                for i in range(n)
            ]
            c_max = float(rng.uniform(1e18, 1e23))
            plan = allocate_proportional(fits, c_max)
            assert math.fsum(plan.assignments.values()) == pytest.approx(c_max, rel=1e-9)

    def test_scale_covariance_power_of_two(self):
        fits = [make_fit(0.0, 0.3, "a"), make_fit(0.0, 0.7, "b"), make_fit(0.0, 0.11, "c")]
        base = allocate_proportional(fits, 1e20)
        for lam in (0.5, 2.0, 1024.0):
            scaled = allocate_proportional(fits, lam * 1e20)
            for source, value in base.assignments.items():
                assert scaled.assignments[source] == lam * value

    def test_kkt_ratio_constant(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            fits = [
                make_fit(float(rng.uniform(-1, 1)), float(rng.uniform(1e-3, 0.1)), f"s{i}")
                for i in range(n)
            ]
            plan = allocate_proportional(fits, 1e21)
            ratios = [fit.slope / plan.assignments[fit.source_id] for fit in fits]
            assert max(ratios) - min(ratios) <= 1e-9 * max(abs(r) for r in ratios)

    @pytest.mark.parametrize("c_max", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
    def test_nonpositive_budget(self, c_max):
        with pytest.raises(ValueError) as info:
            allocate_proportional([make_fit(0.0, 1.0, "a")], c_max)
        assert str(info.value) == f"c_max must be positive, got {c_max}"

    def test_infinite_budget(self):
        with pytest.raises(ValueError, match="c_max must be finite, got inf"):
            allocate_proportional([make_fit(0.0, 1.0, "a")], math.inf)

    def test_extrapolation_warning(self):
        # Fit range is [1e18, 1e22]; a tiny budget lands below it.
        plan = allocate_proportional([make_fit(0.0, 1.0, "a")], 1e6)
        assert any("extrapolated" in w for w in plan.warnings)


class TestGridOracle:
    def test_matches_closed_form_within_grid_step(self):
        fits = [make_fit(0.0, 2.0, "a"), make_fit(0.0, 1.0, "b")]
        oracle = allocate_grid_oracle(fits, 3.0, resolution=300)
        assert oracle.assignments["a"] == pytest.approx(2.0, abs=3.0 / 300 + 1e-12)
        assert oracle.assignments["b"] == pytest.approx(1.0, abs=3.0 / 300 + 1e-12)

    def test_symmetric_split(self):
        fits = [make_fit(0.0, 1.0, "a"), make_fit(0.0, 1.0, "b")]
        oracle = allocate_grid_oracle(fits, 2.0, resolution=200)
        assert oracle.assignments["a"] == 1.0
        assert oracle.assignments["b"] == 1.0

    def test_single_source_full_budget(self):
        oracle = allocate_grid_oracle([make_fit(0.0, 1.0, "a")], 5.0, resolution=10)
        assert oracle.assignments["a"] == 5.0

    @pytest.mark.parametrize("c_max", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
    def test_nonpositive_budget(self, c_max):
        with pytest.raises(ValueError) as info:
            allocate_grid_oracle([make_fit(0.0, 1.0, "a")], c_max, resolution=10)
        assert str(info.value) == f"c_max must be positive, got {c_max}"

    def test_never_beats_closed_form(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            fits = [
                make_fit(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(1e-3, 0.05)), f"s{i}")
                for i in range(n)
            ]
            c_max = float(rng.uniform(1e19, 1e22))
            plan = allocate_proportional(fits, c_max)
            oracle = allocate_grid_oracle(fits, c_max, resolution=200)
            assert oracle.predicted_mixture_utility <= plan.predicted_mixture_utility

    def test_confirms_negative_slope_exclusion(self):
        # Hand-check on the raw objective: at FLOPs-scale assignments
        # every positive allocation to the negative-slope source costs
        # more than it adds, so exclusion is optimal.
        fits = [make_fit(0.0, 1.0, "a"), make_fit(0.0, 1.0, "b"), make_fit(0.0, -5.0, "c")]
        c_max = 2e20
        plan = allocate_proportional(fits, c_max)
        for share in (0.01, 0.1, 0.5):
            spoiled = {
                "a": (1 - share) * c_max / 2,
                "b": (1 - share) * c_max / 2,
                "c": share * c_max,
            }
            assert mixture_utility(fits, spoiled) < plan.predicted_mixture_utility

    def test_oracle_source_cap(self):
        fits = [make_fit(0.0, 1.0, f"s{i}") for i in range(5)]
        with pytest.raises(ValueError, match="at most"):
            allocate_grid_oracle(fits, 1.0, resolution=10)

    @pytest.mark.parametrize("resolution", [260, 10**6])
    def test_grid_cell_cap(self, resolution):
        # 197**3 cells at the CLI's default resolution of 200 pass; 257**3 do not.
        fits = [make_fit(0.0, 1.0, f"s{i}") for i in range(4)]
        cells = (resolution - 3) ** 3
        message = f"^oracle resolution {resolution} over 4 positive-slope sources needs a grid of"
        with pytest.raises(ValueError, match=f"{message} {cells} cells;"):
            allocate_grid_oracle(fits, 1.0, resolution=resolution)

    def test_resolution_floor(self):
        with pytest.raises(ValueError, match="resolution"):
            allocate_grid_oracle([make_fit(0.0, 1.0, "a")], 1.0, resolution=1)

    def test_infinite_budget(self):
        with pytest.raises(ValueError, match="c_max must be finite, got inf"):
            allocate_grid_oracle([make_fit(0.0, 1.0, "a")], math.inf, resolution=10)

    def test_keeps_no_grid_after_the_call(self):
        # numpy is imported above, so tracing sees only the oracle's own
        # allocations; the 2,000,000-row grid alone would hold 32 MB.
        fits = [make_fit(0.0, 2.0, "a"), make_fit(0.0, 1.0, "b")]
        tracemalloc.start()
        try:
            allocate_grid_oracle(fits, 3.0, resolution=2_000_000)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1 << 20

    def test_all_negative_fallback_matches_closed_form(self):
        fits = [make_fit(0.0, -0.5, "a"), make_fit(5.0, -1.0, "b")]
        plan = allocate_proportional(fits, 1e20)
        oracle = allocate_grid_oracle(fits, 1e20, resolution=50)
        assert oracle.assignments == plan.assignments
        assert oracle.predicted_mixture_utility == plan.predicted_mixture_utility


# Fits with no positive slope. Intercepts and slopes come from small sets
# so that equal scores, broken by source id, are common; the fitted
# ranges span 1e16 to 1e24 FLOPs, so a budget of 1e15 to 1e25 lands both
# inside and outside them.
NON_POSITIVE_FITS = st.lists(
    st.tuples(
        st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-5, 5),
        st.sampled_from([-1.0, -0.25, 0.0]) | st.floats(-2, 0),
        st.floats(16, 22),
        st.floats(0, 2),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(NON_POSITIVE_FITS, st.permutations("abcd"), st.floats(15, 25))
def test_fallbacks_agree_on_non_positive_slopes(params, ids, budget_exponent):
    fits = [
        ScalingFit(
            source_id=source,
            intercept=intercept,
            slope=slope,
            n_points=2,
            rmse=0.0,
            compute_range=(10.0**lo, 10.0 ** (lo + width)),
            basis=BASIS,
        )
        for source, (intercept, slope, lo, width) in zip(ids, params)
    ]
    c_max = 10.0**budget_exponent
    plan = allocate_proportional(fits, c_max)
    oracle = allocate_grid_oracle(fits, c_max, resolution=2)
    assert list(oracle.assignments.items()) == list(plan.assignments.items())
    assert oracle.excluded == plan.excluded
    assert oracle.predicted_mixture_utility == plan.predicted_mixture_utility
    assert plan.warnings[0].startswith("no source has a positive slope;")
    assert oracle.warnings == plan.warnings[1:]
