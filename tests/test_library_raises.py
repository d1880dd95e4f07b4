"""The exact message of each library raise site that no command reaches.

Each site below raises only when the library is called directly with
input no command builds, so the CLI tests and golden digests never run
it. Each case pins the exception type and message one site gives.
"""

import math
from dataclasses import replace

import pytest

from annealplan.allocation import allocate_grid_oracle, allocate_proportional
from annealplan.costs import AnnealingGeometry, CostBasis, SourceCostModel, SourceKind
from annealplan.diversity import DiversityReport, NgramProfiler
from annealplan.manifest import ManifestError, RunRecord, average_seeds
from annealplan.metrics import MetricKind, UtilityDelta, brier_score
from annealplan.scaling import ScalingFit, rank_at_budget
from annealplan.simulate import GroundTruthSource, Scenario, true_crossover
from annealplan.svg import render_fit_svg

ZERO = SourceCostModel(kind=SourceKind.ZERO_COST)
FIT = ScalingFit(
    source_id="a", intercept=0.0, slope=0.01, n_points=2, rmse=0.0,
    compute_range=(1e18, 1e20), basis=CostBasis.CURATION_PLUS_ANNEALING,
)


def _run(source_id):
    return RunRecord(source_id, 0, 1000, ("t", MetricKind.BRIER, 100), (0.5,))


def _sources(*ids):
    return tuple(GroundTruthSource(i, 0.0, 0.01, ZERO) for i in ids)


CASES = {
    "allocate-no-fits": (ValueError, lambda: allocate_proportional([], 1e21),
                         "need at least one fit to allocate"),
    "allocate-repeated-source": (ValueError, lambda: allocate_proportional([FIT, FIT], 1e21),
                                 "duplicate source ids in fits: ['a', 'a']"),
    "allocate-mixed-bases": (
        ValueError,
        lambda: allocate_proportional(
            [FIT, replace(FIT, source_id="b", basis=CostBasis.CURATION_ONLY)], 1e21
        ),
        "cannot allocate across fits with mixed cost bases",
    ),
    "oracle-resolution-below-sources": (
        ValueError,
        lambda: allocate_grid_oracle([replace(FIT, source_id=i) for i in "abc"], 1e21, 2),
        "resolution 2 cannot give 3 sources a positive assignment each",
    ),
    "expansion_factor-negative": (
        ValueError, lambda: SourceCostModel(kind=SourceKind.MBF, expansion_factor=-1.0),
        "expansion_factor must be >= 0, got -1.0",
    ),
    "annotator_per_token_flops-negative": (
        ValueError, lambda: SourceCostModel(kind=SourceKind.MBF, annotator_per_token_flops=-1.0),
        "annotator_per_token_flops must be >= 0",
    ),
    "annotator_training_flops-negative": (
        ValueError, lambda: SourceCostModel(kind=SourceKind.MBF, annotator_training_flops=-1.0),
        "annotator_training_flops must be >= 0",
    ),
    "annotator_per_token_flops-past-float": (
        ValueError, lambda: SourceCostModel(kind=SourceKind.MBF, annotator_per_token_flops=10**400),
        "annotator_per_token_flops is beyond the float range",
    ),
    "geometry-float-product-past-float": (
        ValueError, lambda: AnnealingGeometry(1e200, 1e200, 0.1),
        "batch_size * sequence_length is beyond the float range",
    ),
    "epochs-past-float": (ValueError, lambda: AnnealingGeometry(256, 8192, 0.1, epochs=10**400),
                          "epochs is beyond the float range"),
    "report-order-missing": (KeyError, lambda: DiversityReport(0, ()).stats(2),
                             "no statistics for n=2"),
    "counts-order-out-of-range": (ValueError, lambda: NgramProfiler(2).counts(3),
                                  "n must be in [1, 2], got 3"),
    "average-two-sources": (ManifestError, lambda: average_seeds([_run("a"), _run("b")]),
                            "cannot average runs from different sources: 'a' vs 'b'"),
    "average-no-runs": (ManifestError, lambda: average_seeds([]),
                        "cannot average an empty run list"),
    "delta-nan": (ValueError, lambda: UtilityDelta(math.nan, MetricKind.BRIER),
                  "delta must be finite, got nan"),
    "brier-no-probabilities": (ValueError, lambda: brier_score([], 0),
                               "probabilities must be nonempty"),
    "rank-no-fits": (ValueError, lambda: rank_at_budget([], 1e21), "need at least one fit to rank"),
    "scenario-no-sources": (ValueError, lambda: Scenario(sources=()),
                            "scenario needs at least one source"),
    "scenario-empty-grid": (ValueError, lambda: Scenario(sources=_sources("s"), steps_grid=()),
                            "steps_grid must be nonempty"),
    "scenario-baseline-id": (ValueError, lambda: Scenario(sources=_sources("full_replay")),
                             "baseline id 'full_replay' collides with a source"),
    "true_intercept-past-float": (
        ValueError, lambda: GroundTruthSource("s", 10**400, 0.0, ZERO),
        "true_intercept is beyond the float range",
    ),
    "true-crossover-parallel": (
        ValueError, lambda: true_crossover(Scenario(sources=_sources("a", "b")), "a", "b"),
        "true curves are parallel; no crossover",
    ),
    "svg-no-points": (ValueError, lambda: render_fit_svg([], [FIT]),
                      "nothing to plot: no utility points"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_raise_message(case):
    kind, call, message = CASES[case]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert info.value.args == (message,)
