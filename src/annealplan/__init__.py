"""Data-acquisition planning from short annealing runs.

Estimate how useful a candidate training-data source is per FLOP spent
on it, fit per-source utility scaling laws from a handful of annealing
runs, and turn the fits into budget decisions: which source to buy
into, where rankings flip, and how to split a budget across sources.
"""

from .allocation import AllocationPlan, allocate_grid_oracle, allocate_proportional, mixture_utility
from .costs import (
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
from .manifest import (
    ManifestError,
    RunRecord,
    RunSet,
    UtilityPoint,
    average_seeds,
    build_utility_points,
    load_manifest,
    loads_manifest,
)
from .metrics import (
    MetricDirection,
    MetricKind,
    TaskScore,
    UtilityDelta,
    aggregate_suite,
    brier_score,
    utility_delta,
)
from .scaling import (
    Crossover,
    Prediction,
    RankedSource,
    ScalingFit,
    crossover,
    fit_by_source,
    fit_log_linear,
    predict,
    rank_at_budget,
)
from .simulate import GroundTruthSource, Scenario, generate_manifest, scenario_rank_flip

__version__ = "0.1.0"

# Exported on first use by __getattr__: importing diversity loads numpy,
# which the planning API does not need.
_DIVERSITY_NAMES = (
    "DiversityReport",
    "NgramProfiler",
    "NgramStats",
    "profile_corpus",
)


def __getattr__(name: str):
    if name not in _DIVERSITY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import diversity

    return getattr(diversity, name)
