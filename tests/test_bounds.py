"""The full message of every bound rule at each site that applies it.

The numeric bound rules live in ``annealplan.costs``
(``_check_positive_finite`` and ``_check_at_least``). Each case below
pins the exact message one call site gives, nan included, so a site
that restates a rule or calls it with another name or bound shows here.
Sites whose messages other tests already pin exactly are left out.
"""

import math
from dataclasses import replace

import pytest

from annealplan.allocation import allocate_grid_oracle
from annealplan.costs import (
    AnnealingGeometry,
    CostBasis,
    ModelSpec,
    SourceCostModel,
    SourceKind,
    annealing_curation_cost,
    inference_flops_per_token,
    tinygsm_curation_cost,
    tinygsm_mind_curation_cost,
    training_flops,
)
from annealplan.diversity import NgramProfiler
from annealplan.manifest import RunRecord, UtilityPoint
from annealplan.metrics import MetricKind, TaskScore, UtilityDelta
from annealplan.scaling import ScalingFit, fit_log_linear
from annealplan.simulate import GroundTruthSource, Scenario

NAN = math.nan
BASIS = CostBasis.CURATION_PLUS_ANNEALING
GEOM = AnnealingGeometry(batch_size=256, sequence_length=8192, upsample_ratio=0.1)
MBF = SourceCostModel(kind=SourceKind.MBF, mbf_recall=22, annotator_per_token_flops=2e8)
FIT = ScalingFit(
    source_id="a", intercept=0.0, slope=0.01, n_points=2, rmse=0.0,
    compute_range=(1e18, 1e20), basis=BASIS,
)


def _run(steps):
    return RunRecord("a", 0, steps, ("t", MetricKind.BRIER, 100), (0.5,))


def _points():
    return [
        UtilityPoint(
            source_id="a", steps=i + 1, compute=c, tokens_upsampled=1e8,
            delta=UtilityDelta(value=0.01 * i, metric=MetricKind.BRIER, source_id="a"),
            basis=BASIS,
        )
        for i, c in enumerate([1e18, 1e19, 1e20])
    ]


CASES = {
    "tokens-negative": (lambda: training_flops(-1.0, ModelSpec(7e9)),
                        "tokens must be >= 0, got -1.0"),
    "tokens-nan": (lambda: training_flops(NAN, ModelSpec(7e9)), "tokens must be >= 0, got nan"),
    "total_tokens-nan": (lambda: annealing_curation_cost(MBF, GEOM, NAN),
                         "total_tokens must be >= 0, got nan"),
    "steps-negative": (lambda: tinygsm_mind_curation_cost(-1, GEOM),
                       "steps must be >= 0, got -1"),
    "steps-nan": (lambda: tinygsm_curation_cost(NAN, GEOM), "steps must be >= 0, got nan"),
    "epochs-nan": (lambda: AnnealingGeometry(256, 8192, 0.1, epochs=NAN),
                   "epochs must be >= 1, got nan"),
    "mbf_recall-nan": (lambda: SourceCostModel(kind=SourceKind.MBF, mbf_recall=NAN),
                       "mbf_recall must be >= 1, got nan"),
    "param_count-nan": (lambda: ModelSpec(NAN), "param_count must be positive, got nan"),
    "param_count-inf": (lambda: ModelSpec(math.inf), "param_count must be finite, got inf"),
    "param_count-minus-inf": (lambda: ModelSpec(-math.inf),
                              "param_count must be positive, got -inf"),
    "batch_size-nan": (lambda: AnnealingGeometry(NAN, 8192, 0.1),
                       "batch_size must be positive, got nan"),
    "batch_size-inf": (lambda: AnnealingGeometry(math.inf, 8192, 0.1),
                       "batch_size must be finite, got inf"),
    "batch_size-past-float": (lambda: AnnealingGeometry(10**400, 1, 0.1),
                              "batch_size * sequence_length is beyond the float range"),
    "sequence_length-nan": (lambda: AnnealingGeometry(256, NAN, 0.1),
                            "sequence_length must be positive, got nan"),
    "sequence_length-inf": (lambda: AnnealingGeometry(256, math.inf, 0.1),
                            "sequence_length must be finite, got inf"),
    "run-steps-nan": (lambda: _run(NAN), "steps must be positive, got nan"),
    "run-steps-inf": (lambda: _run(math.inf), "steps must be finite, got inf"),
    "n_examples-nan": (lambda: TaskScore("t", MetricKind.BRIER, 0.5, NAN),
                       "n_examples must be positive, got nan"),
    "n_examples-inf": (lambda: TaskScore("t", MetricKind.BRIER, 0.5, math.inf),
                       "n_examples must be finite, got inf"),
    "n_points-one": (lambda: replace(FIT, n_points=1), "n_points must be >= 2, got 1"),
    "rmse-nan": (lambda: replace(FIT, rmse=NAN), "rmse must be finite, got nan"),
    "rmse-negative": (lambda: replace(FIT, rmse=-1.0), "rmse must be >= 0, got -1.0"),
    "generator-synthetic": (
        lambda: SourceCostModel(kind=SourceKind.SYNTHETIC, expansion_factor=1.0),
        "kind synthetic requires a generator model (generator_params)",
    ),
    "generator-rephrase": (lambda: SourceCostModel(kind=SourceKind.REPHRASE),
                           "kind rephrase requires a generator model (generator_params)"),
    "generator-expansion": (
        lambda: SourceCostModel(kind=SourceKind.MBF, expansion_factor=0.5),
        "expansion_factor > 0 requires a generator model (generator_params)",
    ),
    "drop_smallest-negative": (lambda: fit_log_linear(_points(), drop_smallest=-1),
                               "drop_smallest must be >= 0, got -1"),
    "drop_smallest-nan": (lambda: fit_log_linear(_points(), drop_smallest=NAN),
                          "drop_smallest must be >= 0, got nan"),
    "resolution-one": (lambda: allocate_grid_oracle([FIT], 1e21, 1),
                       "resolution must be >= 2, got 1"),
    "resolution-nan": (lambda: allocate_grid_oracle([FIT], 1e21, NAN),
                       "resolution must be >= 2, got nan"),
    "n_max-negative": (lambda: NgramProfiler(-1), "n_max must be >= 1, got -1"),
    "n_max-nan": (lambda: NgramProfiler(NAN), "n_max must be >= 1, got nan"),
    "noise_sigma-negative": (lambda: GroundTruthSource("s", 0.0, 0.0, MBF, noise_sigma=-1.0),
                             "noise_sigma must be >= 0, got -1.0"),
    "noise_sigma-nan": (lambda: GroundTruthSource("s", 0.0, 0.0, MBF, noise_sigma=NAN),
                        "noise_sigma must be finite, got nan"),
    "rng_seed-negative": (
        lambda: Scenario(sources=(GroundTruthSource("s", 0.0, 0.0, MBF),), rng_seed=-1),
        "rng_seed must be >= 0, got -1",
    ),
    "rng_seed-float": (
        lambda: Scenario(sources=(GroundTruthSource("s", 0.0, 0.0, MBF),), rng_seed=1.5),
        "rng_seed must be an integer, got 1.5",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bound_message(case):
    call, message = CASES[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_integers_past_the_float_range_construct():
    # The finite test is exact for integers; pricing such a count fails later.
    assert _run(10**400).steps == 10**400
    assert TaskScore("t", MetricKind.BRIER, 0.5, 10**400).n_examples == 10**400
    with pytest.raises(OverflowError):
        inference_flops_per_token(ModelSpec(10**400))
