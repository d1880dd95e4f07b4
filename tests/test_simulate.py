import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from annealplan.costs import CostBasis, ModelSpec, SourceCostModel, SourceKind
from annealplan.manifest import build_utility_points, loads_manifest
from annealplan.scaling import crossover, fit_by_source
from annealplan.simulate import (
    DEFAULT_STEPS_GRID,
    GroundTruthSource,
    Scenario,
    generate_manifest,
    scenario_rank_flip,
    true_crossover,
)

ZERO = SourceCostModel(kind=SourceKind.ZERO_COST)


def zero_cost_scenario(intercept, slope, seed=0, sigma=0.0, baseline=1.0):
    return Scenario(
        sources=(GroundTruthSource("probe", intercept, slope, ZERO, noise_sigma=sigma),),
        baseline_score=baseline,
        rng_seed=seed,
    )


def fits_from(manifest_bytes, basis=CostBasis.CURATION_PLUS_ANNEALING):
    runset = loads_manifest(manifest_bytes.decode("utf-8"))
    points = build_utility_points(runset, None, basis)
    return fit_by_source(points), points


class TestGenerateManifest:
    def test_noiseless_round_trip(self):
        scenario = zero_cost_scenario(0.013, -0.0041)
        fits, _ = fits_from(generate_manifest(scenario))
        assert fits[0].intercept == pytest.approx(0.013, rel=1e-9)
        assert fits[0].slope == pytest.approx(-0.0041, rel=1e-9)
        assert fits[0].rmse < 1e-12

    def test_byte_identical_per_seed(self):
        a = generate_manifest(scenario_rank_flip(7, noise_sigma=0.01))
        b = generate_manifest(scenario_rank_flip(7, noise_sigma=0.01))
        assert a == b
        c = generate_manifest(scenario_rank_flip(8, noise_sigma=0.01))
        assert a != c

    def test_validates_and_has_expected_shape(self):
        scenario = scenario_rank_flip(3)
        runset = loads_manifest(generate_manifest(scenario).decode("utf-8"))
        # Two baseline seeds per grid point plus one treated run per
        # source and grid point.
        grid = len(DEFAULT_STEPS_GRID)
        assert len(runset.runs) == 2 * grid + 2 * grid
        assert runset.baseline_id == "full_replay"
        assert {r.seed for r in runset.runs if r.source_id == "full_replay"} == {0, 1}

    def test_upsampled_token_grid(self):
        scenario = scenario_rank_flip(0)
        _, points = fits_from(generate_manifest(scenario))
        upsampled = sorted({p.tokens_upsampled for p in points})
        expected = [2.1e8, 4.2e8, 8.4e8, 1.9e9, 3.8e9, 7.5e9]
        for got, target in zip(upsampled, expected):
            assert got == pytest.approx(target, rel=0.011)

    def test_clamping_records_warning(self):
        # An absurd intercept pushes the treated score out of range.
        scenario = zero_cost_scenario(5.0, 0.0, baseline=0.1)
        runset = loads_manifest(generate_manifest(scenario).decode("utf-8"))
        treated = [r for r in runset.runs if r.source_id == "probe"]
        assert all("clamp_warning" in r.metadata for r in treated)
        for run in treated:
            assert 0.0 <= run.scores[0].value <= 2.0

    def test_noise_free_bytes_do_not_depend_on_seed(self):
        assert generate_manifest(scenario_rank_flip(7)) == generate_manifest(scenario_rank_flip(8))

    def test_bytes_match_the_pinned_digest(self):
        # One digest over noise-free, noisy and mixed scenarios, recorded from
        # the generator that drew every term from numpy. A changed draw order
        # or a skipped zero-sigma draw moves it, and so does a dropped
        # ``+ 0.0``: the last two scenarios' -0.0 scores would print as 0.0,
        # and their 0.0 baseline scores as -0.0.
        flip = scenario_rank_flip(5)
        scenarios = [
            *(scenario_rank_flip(seed, noise_sigma=sigma)
              for sigma in (0.0, 0.003, 0.02) for seed in range(60)),
            replace(flip, baseline_noise_sigma=0.01),
            replace(flip, sources=(flip.sources[0], replace(flip.sources[1], noise_sigma=0.01))),
            Scenario(sources=(GroundTruthSource("flat", -0.0, -0.0, ZERO),),
                     baseline_score=-0.0, rng_seed=3),
            Scenario(
                sources=(GroundTruthSource("flat", -0.0, -0.0, ZERO, noise_sigma=0.01),
                         GroundTruthSource("flat2", -0.0, -0.0, ZERO)),
                baseline_score=-0.0, rng_seed=3,
            ),
        ]
        digest = hashlib.sha256()
        for scenario in scenarios:
            digest.update(generate_manifest(scenario))
        assert digest.hexdigest() == (
            "c71e48962c99700f78e2e5dc755ff7e806712657a21e55cccc1d2a94a4e5773b"
        )

    def test_basis_recorded_in_metadata(self):
        runset = loads_manifest(generate_manifest(scenario_rank_flip(1)).decode("utf-8"))
        treated = [r for r in runset.runs if r.source_id != "full_replay"]
        assert all(r.metadata["generation_basis"] == "total" for r in treated)


class TestRecoveryProperties:
    def test_random_round_trips(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            intercept = float(rng.uniform(-0.1, 0.1))
            slope = float(rng.uniform(-0.01, 0.01))
            fits, _ = fits_from(generate_manifest(zero_cost_scenario(intercept, slope)))
            assert fits[0].intercept == pytest.approx(intercept, rel=1e-9)
            assert fits[0].slope == pytest.approx(slope, rel=1e-9)

    def test_noisy_slope_unbiased(self):
        true_slope = 0.004
        sigma = 0.02
        estimates = []
        for rep in range(1000):
            scenario = zero_cost_scenario(0.01, true_slope, seed=1000 + rep, sigma=sigma)
            fits, points = fits_from(generate_manifest(scenario))
            estimates.append(fits[0].slope)
        estimates = np.array(estimates)
        # OLS slope standard error from the fixed design.
        xs = np.log([p.compute for p in points])
        se = sigma / math.sqrt(((xs - xs.mean()) ** 2).sum()) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - true_slope) < 3 * se


class TestRankFlipScenario:
    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sources_are_pinned(self, seed, sigma):
        scenario = scenario_rank_flip(seed, noise_sigma=sigma)
        assert scenario.rng_seed == seed
        assert [
            (s.source_id, s.true_intercept.hex(), s.true_slope, s.noise_sigma)
            for s in scenario.sources
        ] == [
            ("wrap_like", "0x1.29e3df03d23c5p-3", -0.002, sigma),
            ("mbf_like", "-0x1.54f1a88d90976p-1", 0.015, sigma),
        ]

    def test_crossover_inside_grid(self):
        scenario = scenario_rank_flip(11)
        fits, points = fits_from(generate_manifest(scenario))
        flip = crossover(fits[0], fits[1])
        assert flip is not None
        assert flip.in_range

    def test_policies_disagree_noiselessly(self):
        scenario = scenario_rank_flip(2)
        _, points = fits_from(generate_manifest(scenario))
        smallest = min(p.steps for p in points)
        largest_compute = max(p.compute for p in points)
        point_estimate = max(
            (p for p in points if p.steps == smallest), key=lambda p: p.delta.value
        ).source_id
        fits, _ = fits_from(generate_manifest(scenario))
        from annealplan.scaling import rank_at_budget

        scaling_choice = rank_at_budget(fits, largest_compute)[0].source_id
        assert point_estimate == "wrap_like"
        assert scaling_choice == "mbf_like"

    def test_fitted_crossover_matches_truth(self):
        scenario = scenario_rank_flip(4)
        fits, _ = fits_from(generate_manifest(scenario))
        fitted = crossover(fits[0], fits[1]).compute
        truth = true_crossover(scenario, "wrap_like", "mbf_like")
        assert fitted == pytest.approx(truth, rel=1e-6)

    def test_true_utility_orders_at_scale(self):
        scenario = scenario_rank_flip(0)
        by_id = {s.source_id: s for s in scenario.sources}
        top = scenario.steps_grid[-1]
        bottom = scenario.steps_grid[0]
        assert scenario.true_delta(by_id["mbf_like"], top) > scenario.true_delta(
            by_id["wrap_like"], top
        )
        assert scenario.true_delta(by_id["wrap_like"], bottom) > scenario.true_delta(
            by_id["mbf_like"], bottom
        )


class TestScenarioValidation:
    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            Scenario(
                sources=(GroundTruthSource("s", 0.0, 0.0, ZERO),),
                steps_grid=(1000, 500),
            )

    @pytest.mark.parametrize("steps", [0, -5, 1000.5, True])
    def test_rejects_bad_grid_entry(self, steps):
        # Unchecked, each fails late and under another name: 0 as a math
        # domain error, -5 as a total_tokens bound, and 1000.5 or True in
        # the manifest loader when the written manifest is read back.
        with pytest.raises(ValueError) as info:
            Scenario(sources=(GroundTruthSource("s", 0.0, 0.0, ZERO),), steps_grid=(steps,))
        assert str(info.value) == f"steps_grid entries must be positive integers, got {steps!r}"

    @pytest.mark.parametrize("steps", [10**300, 10**400], ids=["10**300", "10**400"])
    def test_rejects_grid_entry_priced_past_the_float_range(self, steps):
        # Unchecked, 10**300 makes the compute infinite, so a zero-slope
        # source wrote a NaN score; 10**400 raised OverflowError from
        # source_compute.
        with pytest.raises(ValueError) as info:
            Scenario(sources=(GroundTruthSource("s", 0.0, 0.0, ZERO),), steps_grid=(1000, steps))
        assert str(info.value) == (
            f"steps_grid entry {steps} prices source 's' beyond the float range"
        )

    def test_grid_is_priced_for_every_source(self):
        dear = SourceCostModel(
            kind=SourceKind.SYNTHETIC, expansion_factor=3.0, generator=ModelSpec(1e300)
        )
        sources = (GroundTruthSource("cheap", 0.0, 0.0, ZERO),
                   GroundTruthSource("dear", 0.0, 0.0, dear))
        with pytest.raises(ValueError) as info:
            Scenario(sources=sources, steps_grid=(1000,))
        assert str(info.value) == (
            "steps_grid entry 1000 prices source 'dear' beyond the float range"
        )

    def test_accepts_numpy_integer_seed(self):
        scenario = zero_cost_scenario(0.0, 0.0, seed=np.int64(4), sigma=0.01)
        assert generate_manifest(scenario) == generate_manifest(zero_cost_scenario(
            0.0, 0.0, seed=4, sigma=0.01
        ))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            Scenario(
                sources=(
                    GroundTruthSource("s", 0.0, 0.0, ZERO),
                    GroundTruthSource("s", 0.1, 0.0, ZERO),
                )
            )

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            GroundTruthSource("s", 0.0, 0.0, ZERO, noise_sigma=-1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("baseline_score", math.nan, "baseline_score must be finite, got nan"),
            ("baseline_score", math.inf, "baseline_score must be finite, got inf"),
            ("baseline_noise_sigma", math.nan, "baseline_noise_sigma must be finite, got nan"),
            ("baseline_noise_sigma", -0.5, "baseline_noise_sigma must be >= 0, got -0.5"),
        ],
    )
    def test_rejects_bad_baseline_score_or_noise(self, field, value, message):
        # Left unchecked, a NaN is written into the manifest's scores and a
        # negative sigma fails only inside numpy at generation time.
        with pytest.raises(ValueError) as info:
            Scenario(sources=(GroundTruthSource("s", 0.0, 0.0, ZERO),), **{field: value})
        assert str(info.value) == message

    def test_manifest_is_valid_json(self):
        payload = generate_manifest(scenario_rank_flip(9))
        data = json.loads(payload.decode("utf-8"))
        assert set(data) == {"baseline_id", "training_model", "geometry", "sources", "runs"}
