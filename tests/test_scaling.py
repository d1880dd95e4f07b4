import math

import numpy as np
import pytest

from annealplan.costs import CostBasis
from annealplan.manifest import UtilityPoint
from annealplan.metrics import MetricKind, UtilityDelta
from annealplan.scaling import (
    crossover,
    fit_by_source,
    fit_log_linear,
    predict,
    rank_at_budget,
)

BASIS = CostBasis.CURATION_PLUS_ANNEALING


def point(compute, delta, source="s", basis=BASIS, steps=1000):
    return UtilityPoint(
        source_id=source,
        steps=steps,
        compute=compute,
        tokens_upsampled=1e8,
        delta=UtilityDelta(value=delta, metric=MetricKind.BRIER, source_id=source),
        basis=basis,
    )


def curve_points(intercept, slope, computes, source="s"):
    return [
        point(c, intercept + slope * math.log(c), source=source, steps=i + 1)
        for i, c in enumerate(computes)
    ]


def make_fit(intercept, slope, source="s", c_range=(1e18, 1e22)):
    return fit_log_linear(curve_points(intercept, slope, c_range, source=source))


class TestFitLogLinear:
    def test_noiseless_recovery(self):
        fit = fit_log_linear(curve_points(0.01, 0.002, [1e19, 1e20, 1e21]))
        assert fit.intercept == pytest.approx(0.01, rel=1e-9)
        assert fit.slope == pytest.approx(0.002, rel=1e-9)
        assert fit.rmse < 1e-12
        assert fit.compute_range == (1e19, 1e21)
        assert fit.n_points == 3

    def test_two_points_interpolate_exactly(self):
        fit = fit_log_linear(curve_points(-0.3, 0.01, [1e18, 1e21]))
        assert fit.rmse < 1e-12
        assert fit.intercept == pytest.approx(-0.3, rel=1e-9)

    def test_single_compute_value_rejected(self):
        pts = [point(1e20, 0.1, steps=1), point(1e20, 0.2, steps=2)]
        with pytest.raises(ValueError, match="degenerate"):
            fit_log_linear(pts)

    def test_nonpositive_compute_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_log_linear([point(0.0, 0.1, steps=1), point(1e20, 0.2, steps=2)])

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_log_linear([point(1e20, 0.1)])

    def test_mixed_sources_rejected(self):
        with pytest.raises(ValueError, match="sources"):
            fit_log_linear([point(1e19, 0.1, source="a"), point(1e20, 0.2, source="b")])

    def test_mixed_bases_rejected(self):
        pts = [
            point(1e19, 0.1, basis=CostBasis.CURATION_ONLY, steps=1),
            point(1e20, 0.2, steps=2),
        ]
        with pytest.raises(ValueError, match="bases"):
            fit_log_linear(pts)

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            computes = np.exp(rng.uniform(40, 50, size=6))
            deltas = rng.normal(0, 0.1, size=6)
            pts = [point(c, d, steps=i + 1) for i, (c, d) in enumerate(zip(computes, deltas))]
            fit = fit_log_linear(pts)
            xs = np.log(computes)

            def ssr(a, b):
                return float(np.sum((deltas - (a + b * xs)) ** 2))

            best = ssr(fit.intercept, fit.slope)
            for da, db in [(1e-3, 0), (-1e-3, 0), (0, 1e-3), (0, -1e-3),
                           (1e-3, 1e-3), (-1e-3, -1e-3), (1e-3, -1e-3), (-1e-3, 1e-3)]:
                assert ssr(fit.intercept + da, fit.slope + db) >= best

    def test_shift_invariance(self):
        rng = np.random.default_rng(29)
        computes = np.exp(rng.uniform(42, 50, size=5))
        deltas = rng.normal(0, 0.05, size=5)
        base = fit_log_linear(
            [point(c, d, steps=i + 1) for i, (c, d) in enumerate(zip(computes, deltas))]
        )
        shift = 0.173
        shifted = fit_log_linear(
            [point(c, d + shift, steps=i + 1) for i, (c, d) in enumerate(zip(computes, deltas))]
        )
        assert shifted.intercept == pytest.approx(base.intercept + shift, abs=1e-12)
        assert shifted.slope == pytest.approx(base.slope, abs=1e-12)

    def test_drop_smallest(self):
        pts = curve_points(0.01, 0.002, [1e19, 1e20, 1e21])
        # An outlier at the smallest scale corrupts the plain fit.
        outlier = point(1e18, 5e-1, steps=99)
        corrupted = fit_log_linear(pts + [outlier])
        cleaned = fit_log_linear(pts + [outlier], drop_smallest=1)
        assert abs(cleaned.slope - 0.002) < abs(corrupted.slope - 0.002)
        assert cleaned.n_points == 3
        assert cleaned.compute_range == (1e19, 1e21)


class TestPredict:
    def test_natural_log(self):
        fit = make_fit(0.0, 1.0)
        assert predict(fit, math.e).value == 1.0

    def test_direct_evaluation(self):
        fit = make_fit(0.01, 0.002)
        got = predict(fit, 1e20).value
        assert got == pytest.approx(0.01 + 0.002 * math.log(1e20), rel=1e-12)
        assert got == pytest.approx(0.10210340371976183, rel=1e-9)

    def test_extrapolation_flag(self):
        fit = make_fit(0.0, 0.01, c_range=(1e19, 1e21))
        assert not predict(fit, 1e20).extrapolated
        assert not predict(fit, 1e19).extrapolated
        assert predict(fit, 1e22).extrapolated
        assert predict(fit, 1e18).extrapolated

    def test_nonpositive_compute(self):
        fit = make_fit(0.0, 0.01)
        with pytest.raises(ValueError, match="positive"):
            predict(fit, 0.0)


class TestCrossover:
    def test_hand_solved_intersection(self):
        # intercept 0 slope 2 meets intercept 10 slope 1 at ln c = 10.
        fit_a = make_fit(0.0, 2.0, source="steep")
        fit_b = make_fit(10.0, 1.0, source="head_start")
        got = crossover(fit_a, fit_b)
        assert got is not None
        assert got.compute == pytest.approx(math.exp(10), rel=1e-12)
        assert got.leader_below == "head_start"
        assert got.leader_above == "steep"
        assert not got.in_range  # e^10 is far below both fit ranges

    def test_parallel_lines(self):
        assert crossover(make_fit(0.0, 0.01, source="a"), make_fit(1.0, 0.01, source="b")) is None

    def test_identical_fits(self):
        assert crossover(make_fit(0.5, 0.01, source="a"), make_fit(0.5, 0.01, source="b")) is None

    def test_mixed_bases_rejected(self):
        fit_a = make_fit(0.0, 2.0, source="a")
        pts = [
            point(c, 0.1, source="b", basis=CostBasis.CURATION_ONLY, steps=i + 1)
            for i, c in enumerate([1e18, 1e22])
        ]
        fit_b = fit_log_linear(pts)
        with pytest.raises(ValueError, match="bases"):
            crossover(fit_a, fit_b)

    def test_prediction_equality_at_crossover(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a1, a2 = rng.uniform(-1, 1, size=2)
            b1 = rng.uniform(0.001, 0.05)
            b2 = b1 + rng.uniform(0.001, 0.05)
            fit_a = make_fit(a1, b1, source="a")
            fit_b = make_fit(a2, b2, source="b")
            got = crossover(fit_a, fit_b)
            if got is None:
                continue
            pa = predict(fit_a, got.compute).value
            pb = predict(fit_b, got.compute).value
            assert pa == pytest.approx(pb, rel=1e-9, abs=1e-12)

    def test_bisection_oracle(self):
        # Independent root finder for predict(a) - predict(b) on a log grid.
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 100:
            log_c_star = rng.uniform(0.5, 68.5)
            b1 = rng.uniform(-0.05, 0.05)
            b2 = rng.uniform(-0.05, 0.05)
            if abs(b1 - b2) < 1e-4:
                continue
            height = rng.uniform(-1, 1)
            fit_a = make_fit(height - b1 * log_c_star, b1, source="a")
            fit_b = make_fit(height - b2 * log_c_star, b2, source="b")

            def diff(log_c):
                return (fit_a.intercept + fit_a.slope * log_c) - (
                    fit_b.intercept + fit_b.slope * log_c
                )

            lo, hi = 0.0, math.log(1e30)
            if diff(lo) == 0 or diff(lo) * diff(hi) > 0:
                continue
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if diff(lo) * diff(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            oracle = math.exp(0.5 * (lo + hi))
            got = crossover(fit_a, fit_b)
            assert got is not None
            assert got.compute == pytest.approx(oracle, rel=1e-6)
            checked += 1

    def test_ranking_flips_across_crossover(self):
        fit_a = make_fit(-0.6, 0.015, source="a")
        fit_b = make_fit(0.14, -0.002, source="b")
        got = crossover(fit_a, fit_b)
        assert got is not None
        below = rank_at_budget([fit_a, fit_b], 0.9 * got.compute)
        above = rank_at_budget([fit_a, fit_b], 1.1 * got.compute)
        assert below[0].source_id == got.leader_below
        assert above[0].source_id == got.leader_above
        assert below[0].source_id != above[0].source_id


class TestRankAtBudget:
    def test_single_fit(self):
        ranked = rank_at_budget([make_fit(0.1, 0.01)], 1e20)
        assert len(ranked) == 1
        assert ranked[0].source_id == "s"

    def test_order_and_values(self):
        fits = [make_fit(0.0, 0.002, source="slow"), make_fit(0.0, 0.004, source="fast")]
        ranked = rank_at_budget(fits, 1e20)
        assert [r.source_id for r in ranked] == ["fast", "slow"]
        assert ranked[0].predicted_delta == pytest.approx(0.004 * math.log(1e20), rel=1e-12)

    def test_tie_flagged_and_lexicographic(self):
        fits = [make_fit(0.1, 0.01, source="zeta"), make_fit(0.1, 0.01, source="alpha")]
        ranked = rank_at_budget(fits, 1e20)
        assert [r.source_id for r in ranked] == ["alpha", "zeta"]
        assert all(r.tied for r in ranked)

    def test_tie_at_crossover(self):
        fit_a = make_fit(0.0, 2.0, source="a")
        fit_b = make_fit(10.0, 1.0, source="b")
        c_star = crossover(fit_a, fit_b).compute
        ranked = rank_at_budget([fit_a, fit_b], c_star)
        assert all(r.tied for r in ranked)
        assert ranked[0].source_id == "a"

    def test_mixed_bases_rejected(self):
        fit_a = make_fit(0.0, 0.01, source="a")
        pts = [
            point(c, 0.1, source="b", basis=CostBasis.CURATION_ONLY, steps=i + 1)
            for i, c in enumerate([1e18, 1e22])
        ]
        with pytest.raises(ValueError, match="bases"):
            rank_at_budget([fit_a, fit_log_linear(pts)], 1e20)

    def test_nonpositive_budget(self):
        with pytest.raises(ValueError, match="budget"):
            rank_at_budget([make_fit(0.0, 0.01)], 0.0)


class TestFitBySource:
    def test_groups_and_sorts(self):
        pts = curve_points(0.1, 0.01, [1e19, 1e20], source="zeta") + curve_points(
            0.2, 0.02, [1e19, 1e20], source="alpha"
        )
        fits = fit_by_source(pts)
        assert [f.source_id for f in fits] == ["alpha", "zeta"]
        assert fits[0].intercept == pytest.approx(0.2, rel=1e-9)
