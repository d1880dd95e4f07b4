import math

import numpy as np
import pytest

from annealplan.costs import (
    PRESET_FLOPS_PER_CURATED_TOKEN,
    AnnealingGeometry,
    CostBasis,
    ModelSpec,
    SourceCostModel,
    SourceKind,
    annealing_curation_cost,
    inference_flops_per_token,
    tinygsm_curation_cost,
    tinygsm_mind_curation_cost,
    tokens_per_step,
    total_cost,
    training_flops,
)

GEOM = AnnealingGeometry(batch_size=256, sequence_length=8192, upsample_ratio=0.1)


class TestTrainingFlops:
    def test_direct_product(self):
        assert training_flops(1e9, ModelSpec(7e9)) == 4.2e19

    def test_zero_tokens(self):
        assert training_flops(0, ModelSpec(7e9)) == 0.0

    def test_inference_rate_back_of_envelope(self):
        # 100B tokens generated by a 70B model at 2 FLOPs/param/token.
        assert inference_flops_per_token(ModelSpec(70e9)) * 100e9 == 1.4e22

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            training_flops(-1, ModelSpec(7e9))

    def test_nan_tokens_rejected(self):
        with pytest.raises(ValueError, match="tokens must be >= 0, got nan"):
            training_flops(math.nan, ModelSpec(7e9))


class TestInferenceFlops:
    @pytest.mark.parametrize(
        "params,expected", [(175e9, 350e9), (7e9, 14e9), (1, 2)]
    )
    def test_two_flops_per_param(self, params, expected):
        assert inference_flops_per_token(ModelSpec(params)) == expected

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            ModelSpec(0)


class TestTokensPerStep:
    def test_reference_geometry_exact(self):
        assert tokens_per_step(GEOM) == (2097152.0, 209715.2)

    def test_unit_case(self):
        geom = AnnealingGeometry(1, 1, 0.5)
        assert tokens_per_step(geom) == (1.0, 0.5)

    def test_small_ratio_is_valid(self):
        # The open-interval bound only rejects 0 and 1 themselves.
        geom = AnnealingGeometry(256, 8192, 0.0001)
        total, upsampled = tokens_per_step(geom)
        assert total == 2097152.0
        assert upsampled == pytest.approx(209.7152, rel=1e-12)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.1, 1.5])
    def test_ratio_bounds(self, ratio):
        with pytest.raises(ValueError):
            AnnealingGeometry(256, 8192, ratio)


# Half of every batch is upsampled, so the seed count m is exact.
HALF = AnnealingGeometry(batch_size=1, sequence_length=1, upsample_ratio=0.5)
# A recall-1, 1-FLOP annotator prices each seed token at exactly 1.
UNIT_ANNOTATOR = {"annotator_per_token_flops": 1.0}


class TestAnnealingCurationCost:
    @pytest.mark.parametrize(
        "model,geom,total_tokens,expected",
        [
            pytest.param(
                SourceCostModel(kind=SourceKind.MBF, **UNIT_ANNOTATOR), HALF, 2e9, 1e9,
                id="seed-count-without-expansion",
            ),
            # m = 0.5 * 8e9 / (1 + 3) = 1e9 seed tokens, each with 3
            # generated tokens at 1 FLOP: 1e9 + 3e9.
            pytest.param(
                SourceCostModel(
                    kind=SourceKind.SYNTHETIC, expansion_factor=3, generator=ModelSpec(0.5),
                    **UNIT_ANNOTATOR,
                ),
                HALF, 8e9, 4e9,
                id="seed-count-with-expansion",
            ),
            # Four epochs over m = 0.5 * 8e9 / (4 * 2) seed tokens and their
            # copies: m * (1 + 1) = 1e9, an eighth of the tokens.
            pytest.param(
                SourceCostModel(
                    kind=SourceKind.REPHRASE, expansion_factor=1, generator=ModelSpec(0.5),
                    **UNIT_ANNOTATOR,
                ),
                AnnealingGeometry(1, 1, 0.5, epochs=4.0), 8e9, 1e9,
                id="epochs-divide-seed-count",
            ),
            pytest.param(
                SourceCostModel(kind=SourceKind.MBF, annotator_training_flops=1e12),
                HALF, 2e6, 1e12,
                id="amortized-training",
            ),
            # 2**20 training FLOPs over m = 2**60 seed tokens add 2**-40 per
            # token, below half an ulp of 4.4e9.
            pytest.param(
                SourceCostModel(
                    kind=SourceKind.MBF, mbf_recall=22, annotator_per_token_flops=2e8,
                    annotator_training_flops=2.0**20,
                ),
                HALF, 2.0**61, 4.4e9 * 2.0**60,
                id="amortization-vanishes-at-scale",
            ),
            # No expansion: the generator only marks the source a rephrase;
            # m = 1e6 seed tokens at 4 * 1e8 + 1e12 / 1e6 FLOPs each.
            pytest.param(
                SourceCostModel(
                    kind=SourceKind.REPHRASE, generator=ModelSpec(3e9), mbf_recall=4,
                    annotator_per_token_flops=1e8, annotator_training_flops=1e12,
                ),
                HALF, 2e6, (4e8 + 1e6) * 1e6,
                id="rephrase-seed-selection",
            ),
            pytest.param(
                SourceCostModel(
                    kind=SourceKind.SYNTHETIC, expansion_factor=1, generator=ModelSpec(7e9)
                ),
                HALF, 4e9, 1.4e19,
                id="pure-generation",
            ),
            pytest.param(
                SourceCostModel(
                    kind=SourceKind.SYNTHETIC, expansion_factor=2, generator=ModelSpec(7e9),
                    annotator_training_flops=1e12,
                ),
                HALF, 0.0, 0.0,
                id="zero-tokens",
            ),
        ],
    )
    def test_exact_price(self, model, geom, total_tokens, expected):
        assert annealing_curation_cost(model, geom, total_tokens) == expected

    def test_round_trip_identity(self):
        # With a recall-1, 1-FLOP annotator and a generator at 1 FLOP per
        # token, a run costs one FLOP per seed or generated token, and
        # epochs passes over them fill the upsampled share.
        rng = np.random.default_rng(11)
        for _ in range(50):
            total = float(rng.uniform(1e6, 1e12))
            model = SourceCostModel(
                kind=SourceKind.SYNTHETIC, expansion_factor=float(rng.uniform(0, 10)),
                generator=ModelSpec(0.5), **UNIT_ANNOTATOR,
            )
            e = float(rng.uniform(1, 4))
            geom = AnnealingGeometry(256, 8192, float(rng.uniform(0.01, 0.5)), epochs=e)
            cost = annealing_curation_cost(model, geom, total)
            assert e * cost == pytest.approx(geom.upsample_ratio * total, rel=1e-12)

    def test_power_of_two_linearity(self):
        model = SourceCostModel(
            kind=SourceKind.REPHRASE, expansion_factor=2, generator=ModelSpec(3e9),
            mbf_recall=22, annotator_per_token_flops=2e8,
        )
        base = annealing_curation_cost(model, GEOM, 3e9)
        for lam in (0.5, 2.0, 8.0):  # powers of two scale exactly
            assert annealing_curation_cost(model, GEOM, lam * 3e9) == lam * base


# The per-seed-token price and the whole-run price of a filtering source,
# both read off annealing_curation_cost.
FILTER = SourceCostModel(kind=SourceKind.MBF, mbf_recall=22, annotator_per_token_flops=2e8)


class TestSeedTokenUnitCost:
    def test_recall_times_annotator(self):
        # Two tokens half upsampled hold one seed token: the run costs its unit price.
        assert annealing_curation_cost(FILTER, HALF, 2.0) == 4.4e9

    def test_wrong_kind(self):
        # A zero-cost source cannot carry a seed-token price.
        with pytest.raises(ValueError, match="zero_cost"):
            SourceCostModel(kind=SourceKind.ZERO_COST, annotator_training_flops=1e12)


class TestCurationCost:
    def test_zero_cost_source(self):
        assert annealing_curation_cost(SourceCostModel(kind=SourceKind.ZERO_COST), HALF, 2e9) == 0.0

    def test_pure_filtering(self):
        assert annealing_curation_cost(FILTER, HALF, 2e9) == 4.4e18


class TestTotalCost:
    ZERO = SourceCostModel(kind=SourceKind.ZERO_COST)

    def test_zero_cost_curation_only(self):
        assert total_cost(self.ZERO, GEOM, 5e10, ModelSpec(7e9), CostBasis.CURATION_ONLY) == 0.0

    def test_zero_cost_full_basis(self):
        got = total_cost(
            self.ZERO, GEOM, 2.1e9, ModelSpec(7e9), CostBasis.CURATION_PLUS_ANNEALING
        )
        assert got == 8.82e19

    def test_basis_decomposition(self):
        rng = np.random.default_rng(5)
        model = SourceCostModel(
            kind=SourceKind.REPHRASE,
            expansion_factor=3,
            generator=ModelSpec(3e9),
            annotator_per_token_flops=2e8,
            mbf_recall=5,
        )
        for _ in range(25):
            tokens = float(rng.uniform(1e8, 1e11))
            training = ModelSpec(float(rng.uniform(1e9, 1e11)))
            full = total_cost(model, GEOM, tokens, training, CostBasis.CURATION_PLUS_ANNEALING)
            curation = total_cost(model, GEOM, tokens, training, CostBasis.CURATION_ONLY)
            assert full == pytest.approx(
                curation + training_flops(tokens, training), rel=1e-12
            )

    def test_monotone_in_tokens(self):
        model = SourceCostModel(
            kind=SourceKind.SYNTHETIC, expansion_factor=4, generator=ModelSpec(7e9)
        )
        grid = [0.0, 1e8, 1e9, 1e10, 1e11]
        for basis in CostBasis:
            costs = [total_cost(model, GEOM, t, ModelSpec(7e9), basis) for t in grid]
            assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_breakdown_matches_total(self):
        model = SourceCostModel(
            kind=SourceKind.MBF, mbf_recall=22, annotator_per_token_flops=2e8
        )
        curation = annealing_curation_cost(model, GEOM, 1e10)
        assert curation == total_cost(model, GEOM, 1e10, ModelSpec(7e9), CostBasis.CURATION_ONLY)
        assert curation + training_flops(1e10, ModelSpec(7e9)) == total_cost(
            model, GEOM, 1e10, ModelSpec(7e9), CostBasis.CURATION_PLUS_ANNEALING
        )

    def test_curation_negative_tokens_rejected(self):
        with pytest.raises(ValueError, match="total_tokens must be >= 0"):
            annealing_curation_cost(self.ZERO, GEOM, -1.0)

    @pytest.mark.parametrize("basis", list(CostBasis))
    def test_nan_tokens_rejected(self, basis):
        model = SourceCostModel(kind=SourceKind.MBF, mbf_recall=22, annotator_per_token_flops=2e8)
        with pytest.raises(ValueError, match="total_tokens must be >= 0, got nan"):
            annealing_curation_cost(model, GEOM, math.nan)
        with pytest.raises(ValueError, match="total_tokens must be >= 0, got nan"):
            total_cost(model, GEOM, math.nan, ModelSpec(7e9), basis)


class TestTinygsmCosts:
    def test_full_dataset_cost(self):
        # 1.8B curated tokens at the assumed 350 GFLOPs per generated token.
        assert 1.8e9 * 350e9 == 6.3e20

    def test_mind_price_exact(self):
        # (350 + 2 * 14) / 3.6 = 105 GFLOPs per curated token, with no
        # rounding left in the table.
        assert PRESET_FLOPS_PER_CURATED_TOKEN["tinygsm-mind"] == 105e9

    @pytest.mark.parametrize("preset", [tinygsm_curation_cost, tinygsm_mind_curation_cost])
    def test_negative_steps_rejected(self, preset):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            preset(-1, GEOM)

    @pytest.mark.parametrize("preset", [tinygsm_curation_cost, tinygsm_mind_curation_cost])
    def test_nan_steps_rejected(self, preset):
        with pytest.raises(ValueError, match="steps must be >= 0, got nan"):
            preset(math.nan, GEOM)

    def test_zero_steps(self):
        assert tinygsm_curation_cost(0, GEOM) == 0.0
        assert tinygsm_mind_curation_cost(0, GEOM) == 0.0

    def test_exact_geometry_at_36k_steps(self):
        got = tinygsm_curation_cost(36000, GEOM)
        assert got == pytest.approx(2.64241152e21, rel=1e-12)
        # Within 1% of the same formula evaluated with the rounded
        # 2.1e5 tokens-per-step figure.
        rounded = 36000 * 2.1e5 * 350e9
        assert got == pytest.approx(rounded, rel=0.01)

    @pytest.mark.parametrize("steps", [1, 1000, 36000])
    def test_mind_ratio(self, steps):
        ratio = tinygsm_mind_curation_cost(steps, GEOM) / tinygsm_curation_cost(steps, GEOM)
        expected = 1 / 3.6 + (2 / 3.6) * (14 / 350)
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert ratio < 1.0

    def test_mind_cheaper_everywhere(self):
        for steps in (1, 7, 2000, 36000, 1e6):
            assert tinygsm_mind_curation_cost(steps, GEOM) < tinygsm_curation_cost(steps, GEOM)


class TestSourceCostModelValidation:
    def test_zero_cost_must_be_bare(self):
        with pytest.raises(ValueError, match="zero_cost"):
            SourceCostModel(kind=SourceKind.ZERO_COST, annotator_per_token_flops=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [("expansion_factor", math.nan), ("annotator_per_token_flops", 1e-300),
         ("annotator_training_flops", 1.0), ("generator", ModelSpec(1.0))],
    )
    def test_zero_cost_refuses_each_priced_field(self, field, value):
        with pytest.raises(ValueError) as info:
            SourceCostModel(kind=SourceKind.ZERO_COST, **{field: value})
        assert str(info.value) == "zero_cost source must have all cost fields zero"

    def test_zero_cost_takes_signed_zeros(self):
        fields = ("expansion_factor", "annotator_per_token_flops", "annotator_training_flops")
        assert SourceCostModel(kind=SourceKind.ZERO_COST, **dict.fromkeys(fields, -0.0))

    def test_mbf_recall_bound(self):
        with pytest.raises(ValueError, match="mbf_recall"):
            SourceCostModel(kind=SourceKind.MBF, mbf_recall=0.5)

    @pytest.mark.parametrize("kind", list(SourceKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("recall", [0.5, -5.0, math.nan])
    def test_mbf_recall_bound_for_every_kind(self, kind, recall):
        # A recall below 1 would price a non-mbf source's curation lower.
        generator = None if kind in (SourceKind.MBF, SourceKind.ZERO_COST) else ModelSpec(1e9)
        with pytest.raises(ValueError, match=r"^mbf_recall must be >= 1, got "):
            SourceCostModel(kind=kind, generator=generator, mbf_recall=recall)

    def test_synthetic_needs_generator(self):
        with pytest.raises(ValueError, match="generator"):
            SourceCostModel(kind=SourceKind.SYNTHETIC, expansion_factor=1)

    def test_expansion_needs_generator(self):
        with pytest.raises(ValueError, match="expansion_factor > 0 requires a generator"):
            SourceCostModel(kind=SourceKind.MBF, expansion_factor=1)

    def test_rephrase_needs_generator(self):
        with pytest.raises(ValueError, match="generator"):
            SourceCostModel(kind=SourceKind.REPHRASE)
