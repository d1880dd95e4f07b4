import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealplan.costs import CostBasis
from annealplan.manifest import UtilityPoint
from annealplan.metrics import MetricKind, UtilityDelta
from annealplan.scaling import (
    Crossover,
    ScalingFit,
    crossover,
    fit_by_source,
    fit_log_linear,
    predict,
    rank_at_budget,
)

BASIS = CostBasis.CURATION_PLUS_ANNEALING
# Signed magnitudes from 1e-12 to 1e17.
MAGNITUDES = st.builds(
    lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([-1.0, 1.0]), st.floats(-12, 17)
)


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


# Two to eight points with distinct computes from 1e-3 to 1e30 FLOPs. Equal
# computes are left out: the stable sort behind drop_smallest would then
# pick which of them goes.
DISTINCT_POINTS = st.lists(
    st.tuples(st.floats(1e-3, 1e30), MAGNITUDES),
    min_size=2,
    max_size=8,
    unique_by=lambda row: row[0],
).map(lambda rows: [point(c, d, steps=i + 1) for i, (c, d) in enumerate(rows)])


def fit_outcome(points, drop_smallest=0):
    """The fit's repr, which pins every bit of its floats, or its error."""
    try:
        return repr(fit_log_linear(points, drop_smallest=drop_smallest))
    except ValueError as error:
        return f"ValueError: {error}"


def make_fit(intercept, slope, source="s", c_range=(1e18, 1e22)):
    return fit_log_linear(curve_points(intercept, slope, c_range, source=source))


def raw_fit(intercept, slope, source, c_range=(1e18, 1e22)):
    """A fit with exactly these fields, which no least-squares fit need reach."""
    return ScalingFit(source, intercept, slope, 2, 0.0, c_range, BASIS)


def reference_crossover(fit_a, fit_b):
    """The crossover formula as first written: (compute, leaders, in_range) or None."""
    if fit_a.slope == fit_b.slope:
        return None
    log_c = (fit_b.intercept - fit_a.intercept) / (fit_a.slope - fit_b.slope)
    try:
        c_star = math.exp(log_c)
    except OverflowError:
        return None
    if not (math.isfinite(c_star) and c_star > 0):
        return None
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
    return struct.pack("<d", c_star), leader_below, leader_above, in_range


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["intercept", "slope"])
def test_non_finite_coefficient_rejected(field, value):
    # A nan slope was neither bought nor excluded by the allocators, and a
    # nan or infinite coefficient ranked with a nan or infinite prediction.
    coefficients = {"intercept": 0.1, "slope": 0.01, field: value}
    with pytest.raises(ValueError) as info:
        raw_fit(coefficients["intercept"], coefficients["slope"], "b")
    assert str(info.value) == f"{field} must be finite, got {value}"


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

    @pytest.mark.parametrize(
        "computes, drop, message",
        [
            ([1e20], 0, "need at least 2 points to fit, got 1"),
            ([1e19, 1e20, 1e21], 2, "dropping 2 smallest-compute points leaves fewer than 2"),
            ([1e20, 1e20], 0, "degenerate design: all points share one ln(compute)"),
            # Adjacent floats: distinct computes with one ln leave no spread to fit.
            ([1e20, math.nextafter(1e20, math.inf)], 0,
             "degenerate design: all points share one ln(compute)"),
            # ln one ulp apart: a slope of 7e11 from rounding alone.
            ([1e20, 1.0000000000000044e20], 0,
             "degenerate design: all points share one ln(compute)"),
        ],
    )
    def test_fit_errors_name_the_source(self, computes, drop, message):
        pts = [point(c, 0.1, source="filt", steps=i + 1) for i, c in enumerate(computes)]
        with pytest.raises(ValueError) as excinfo:
            fit_by_source(pts, drop_smallest=drop)
        assert str(excinfo.value) == f"source 'filt': {message}"

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

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(DISTINCT_POINTS, st.data())
    def test_point_order_moves_no_bit(self, pts, data):
        assert fit_outcome(data.draw(st.permutations(pts))) == fit_outcome(pts)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(DISTINCT_POINTS, st.data())
    def test_drop_smallest_fits_the_larger_computes(self, pts, data):
        k = data.draw(st.integers(0, len(pts) - 2))
        rest = sorted(pts, key=lambda p: p.compute)[k:]
        assert fit_outcome(pts, drop_smallest=k) == fit_outcome(rest)


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

    @pytest.mark.parametrize(
        "compute, message",
        [(0.0, "positive, got 0.0"), (-1.0, "positive, got -1.0"), (math.nan, "positive, got nan"),
         (-math.inf, "positive, got -inf"), (math.inf, "finite, got inf")],
        ids=["zero", "negative", "nan", "-inf", "inf"],
    )
    @pytest.mark.parametrize("slope", [0.0, 0.01, -0.01], ids=["flat", "rising", "falling"])
    def test_compute_must_be_positive_and_finite(self, compute, message, slope):
        # inf gave a nan prediction on a flat fit and -inf on a falling one.
        with pytest.raises(ValueError) as info:
            predict(make_fit(0.0, slope), compute)
        assert str(info.value) == f"compute must be {message}"


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

    def test_result_is_an_immutable_named_tuple(self):
        assert Crossover._fields == ("compute", "leader_below", "leader_above", "in_range")
        got = crossover(make_fit(0.0, 2.0, source="a"), make_fit(10.0, 1.0, source="b"))
        with pytest.raises(AttributeError):
            got.compute = 1.0
        built = Crossover(got.compute, got.leader_below, got.leader_above, got.in_range)
        assert got == built
        assert hash(got) == hash(built)

    def test_crossing_fits_that_share_a_source_id_give_none(self):
        # The leader is told apart by id, so one id on both lines leads on both sides.
        assert crossover(make_fit(0.0, 2.0, source="s"), make_fit(10.0, 1.0, source="s")) is None

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

    def test_probes_that_round_equal_give_none(self):
        # The lines meet at c = 1, but at 1e17 a slope times ln 2 is below
        # half an ulp, so both probes name "a" although the slopes differ.
        assert crossover(raw_fit(1e17, 0.01, "a"), raw_fit(1e17, 0.02, "b")) is None

    @pytest.mark.parametrize("log_c", [709.8, 710.0, -745.2, -800.0])
    def test_exp_beyond_the_float_range_gives_none(self, log_c):
        # exp overflows above ln c = 709.78 and underflows to 0.0 below -745.13.
        assert crossover(raw_fit(0.0, 1.0, "a"), raw_fit(log_c, 0.0, "b")) is None

    def test_in_range_includes_both_ends(self):
        log_c = 45.5
        c_star = math.exp(log_c)
        above = math.nextafter(c_star, math.inf)
        for range_a, range_b, expected in [
            ((c_star, 1e22), (1e18, c_star), True),
            ((above, 1e22), (1e18, c_star), False),
            ((c_star, 1e22), (1e18, math.nextafter(c_star, 0.0)), False),
        ]:
            got = crossover(raw_fit(0.0, 1.0, "a", range_a), raw_fit(log_c, 0.0, "b", range_b))
            assert (got.compute, got.leader_below, got.leader_above) == (c_star, "b", "a")
            assert got.in_range is expected

    def test_bits_match_the_reference_formula(self):
        # Magnitudes from 1e-12 to 1e17; about one pair in five shares its
        # intercept's magnitude, so near-equal probes and parallel lines occur.
        rng = np.random.default_rng(2024)

        def magnitude():
            return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, 17))

        found = 0
        for _ in range(5000):
            a0, a1, b1 = magnitude(), magnitude(), magnitude()
            b0 = a0 * (1 + rng.choice([0.0, 1e-15, 1e-3])) if rng.random() < 0.2 else magnitude()
            if rng.random() < 0.05:
                b1 = a1
            lo = 10.0 ** rng.uniform(-5, 30)
            ranges = [(lo, lo * 10.0 ** rng.uniform(0, 10)) for _ in range(2)]
            fit_a = raw_fit(a0, a1, "a", ranges[0])
            fit_b = raw_fit(b0, b1, "b", ranges[1])
            got = crossover(fit_a, fit_b)
            expected = reference_crossover(fit_a, fit_b)
            if expected is None:
                assert got is None
                continue
            found += 1
            assert (struct.pack("<d", got.compute), got.leader_below, got.leader_above,
                    got.in_range) == expected
        assert found > 1000

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(
        a0=MAGNITUDES, a1=MAGNITUDES, b1=MAGNITUDES,
        b0=MAGNITUDES | st.none(),
        edge=st.sampled_from([709.782712893384, -745.1332191019411]),
        offset=st.floats(-1e-6, 1e-6),
    )
    def test_result_has_distinct_leaders_and_finite_positive_compute(
        self, a0, a1, b0, b1, edge, offset
    ):
        # Without a drawn b0 the lines meet near where exp over- or underflows.
        if b0 is None:
            b0 = a0 + (edge + offset) * (a1 - b1)
        got = crossover(raw_fit(a0, a1, "a"), raw_fit(b0, b1, "b"))
        if got is not None:
            assert got.leader_below != got.leader_above
            assert math.isfinite(got.compute) and got.compute > 0

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

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
    def test_nonpositive_budget(self, budget):
        with pytest.raises(ValueError) as info:
            rank_at_budget([make_fit(0.0, 0.01)], budget)
        assert str(info.value) == f"budget must be positive, got {budget}"

    def test_infinite_budget(self):
        with pytest.raises(ValueError, match="budget must be finite, got inf"):
            rank_at_budget([make_fit(0.0, 0.01)], math.inf)


class TestFitBySource:
    def test_groups_and_sorts(self):
        pts = curve_points(0.1, 0.01, [1e19, 1e20], source="zeta") + curve_points(
            0.2, 0.02, [1e19, 1e20], source="alpha"
        )
        fits = fit_by_source(pts)
        assert [f.source_id for f in fits] == ["alpha", "zeta"]
        assert fits[0].intercept == pytest.approx(0.2, rel=1e-9)
