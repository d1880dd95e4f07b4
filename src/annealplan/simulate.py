"""Synthetic manifest generation from known ground-truth utility curves.

The generator inverts the analysis pipeline: given per-source
(intercept, slope) ground truth, it prices each grid point with the
source's cost model, evaluates the true delta there, optionally adds
Gaussian noise, and converts the delta back into raw task scores
against a baseline score. Fitting the resulting manifest should recover
the ground truth exactly in the noiseless case, which makes the whole
toolchain testable without running any training.

Everything is deterministic given the scenario's RNG seed; replications
should derive their own seeds (seed + replication index) and may then
run in parallel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .costs import (
    AnnealingGeometry,
    CostBasis,
    ModelSpec,
    SourceCostModel,
    SourceKind,
    tokens_per_step,
    total_cost,
)
from .metrics import MetricDirection, MetricKind

__all__ = [
    "DEFAULT_STEPS_GRID",
    "GroundTruthSource",
    "Scenario",
    "generate_manifest",
    "scenario_rank_flip",
    "true_crossover",
]

# Step grid and batch geometry used throughout unless overridden: six
# run lengths doubling-ish from 1k to 36k steps of 256 x 8192 batches
# with 10% upsampling.
DEFAULT_STEPS_GRID = (1000, 2000, 4000, 9000, 18000, 36000)
DEFAULT_GEOMETRY = AnnealingGeometry(
    batch_size=256, sequence_length=8192, upsample_ratio=0.1, epochs=1.0
)
DEFAULT_TRAINING_MODEL = ModelSpec(param_count=7e9)

_SIM_TASK = "sim_task"
_SIM_N_EXAMPLES = 1000


@dataclass(frozen=True)
class GroundTruthSource:
    """One simulated data source: true utility curve, cost model, noise level."""

    source_id: str
    true_intercept: float
    true_slope: float
    cost_model: SourceCostModel
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("true_intercept", "true_slope", "noise_sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class Scenario:
    """A full simulated experiment: sources, run grid, and score encoding."""

    sources: tuple[GroundTruthSource, ...]
    steps_grid: tuple[int, ...] = DEFAULT_STEPS_GRID
    geometry: AnnealingGeometry = DEFAULT_GEOMETRY
    training_model: ModelSpec = DEFAULT_TRAINING_MODEL
    baseline_score: float = 0.5
    metric: MetricKind = MetricKind.BRIER
    rng_seed: int = 0
    baseline_noise_sigma: float = 0.0
    generation_basis: CostBasis = CostBasis.CURATION_PLUS_ANNEALING
    # Optional per-point schedule shrinking noise as runs get longer.
    scale_noise_by_steps: bool = False
    baseline_id: str = "full_replay"

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError("scenario needs at least one source")
        if not self.steps_grid:
            raise ValueError("steps_grid must be nonempty")
        if any(b >= a for a, b in zip(self.steps_grid[1:], self.steps_grid)):
            raise ValueError(f"steps_grid must be strictly increasing, got {self.steps_grid}")
        ids = [s.source_id for s in self.sources]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate source ids: {ids}")
        if self.baseline_id in ids:
            raise ValueError(f"baseline id {self.baseline_id!r} collides with a source")

    def source_compute(self, source: GroundTruthSource, steps: int) -> float:
        """Cost of a run at ``steps`` under the scenario's generation basis."""
        total_tokens = steps * tokens_per_step(self.geometry)[0]
        return total_cost(
            source.cost_model,
            self.geometry,
            total_tokens,
            self.training_model,
            self.generation_basis,
        )

    def true_delta(self, source: GroundTruthSource, steps: int) -> float:
        return source.true_intercept + source.true_slope * math.log(
            self.source_compute(source, steps)
        )


def _source_to_json(model: SourceCostModel) -> dict:
    obj: dict = {"kind": model.kind.value}
    if model.expansion_factor:
        obj["expansion_factor"] = model.expansion_factor
    if model.generator is not None:
        obj["generator_params"] = int(model.generator.param_count)
    if model.annotator_per_token_flops:
        obj["annotator_per_token_flops"] = model.annotator_per_token_flops
    if model.annotator_training_flops:
        obj["annotator_training_flops"] = model.annotator_training_flops
    if model.mbf_recall != 1.0:
        obj["mbf_recall"] = model.mbf_recall
    return obj


def _clamp_score(raw: float, metric: MetricKind) -> tuple[float, str | None]:
    lo, hi = metric.value_range
    if raw < lo or raw > hi:
        clamped = min(max(raw, lo), hi)
        return clamped, f"score {raw!r} clamped to {clamped!r} ([{lo}, {hi}] range)"
    return raw, None


def _encode_score(baseline: float, delta: float, metric: MetricKind) -> tuple[float, str | None]:
    if metric.direction is MetricDirection.LOWER_IS_BETTER:
        raw = baseline - delta
    else:
        raw = baseline + delta
    return _clamp_score(raw, metric)


def generate_manifest(scenario: Scenario) -> bytes:
    """Emit manifest JSON bytes for a scenario, byte-identical per seed.

    Two baseline seed runs with independent noise draws are included for
    every grid point, plus one treated run per source and grid point.
    Scores pushed outside the metric's valid range by noise or extreme
    ground truth are clamped, with a warning recorded in that run's
    metadata.
    """
    import numpy as np  # only the RNG needs it; loaded here, not at import

    rng = np.random.default_rng(scenario.rng_seed)
    metric_name = scenario.metric.value
    runs = []

    for steps in scenario.steps_grid:
        for seed in (0, 1):
            noise = float(rng.normal(0.0, scenario.baseline_noise_sigma))
            value, clamp_note = _clamp_score(scenario.baseline_score + noise, scenario.metric)
            metadata = {"start_lr": "1.515e-04"}
            if clamp_note:
                metadata["clamp_warning"] = clamp_note
            runs.append(
                {
                    "source_id": scenario.baseline_id,
                    "seed": seed,
                    "steps": steps,
                    "scores": [
                        {
                            "task_id": _SIM_TASK,
                            "metric": metric_name,
                            "value": value,
                            "n_examples": _SIM_N_EXAMPLES,
                        }
                    ],
                    "metadata": metadata,
                }
            )

    for source in scenario.sources:
        for steps in scenario.steps_grid:
            sigma = source.noise_sigma
            if scenario.scale_noise_by_steps:
                sigma = sigma / math.sqrt(steps)
            delta = scenario.true_delta(source, steps) + float(rng.normal(0.0, sigma))
            value, clamp_note = _encode_score(scenario.baseline_score, delta, scenario.metric)
            metadata = {
                "start_lr": "1.515e-04",
                "generation_basis": scenario.generation_basis.value,
            }
            if clamp_note:
                metadata["clamp_warning"] = clamp_note
            runs.append(
                {
                    "source_id": source.source_id,
                    "seed": 0,
                    "steps": steps,
                    "scores": [
                        {
                            "task_id": _SIM_TASK,
                            "metric": metric_name,
                            "value": value,
                            "n_examples": _SIM_N_EXAMPLES,
                        }
                    ],
                    "metadata": metadata,
                }
            )

    manifest = {
        "baseline_id": scenario.baseline_id,
        "training_model": {"param_count": int(scenario.training_model.param_count)},
        "geometry": {
            "batch_size": scenario.geometry.batch_size,
            "sequence_length": scenario.geometry.sequence_length,
            "upsample_ratio": scenario.geometry.upsample_ratio,
            "epochs": scenario.geometry.epochs,
        },
        "sources": {s.source_id: _source_to_json(s.cost_model) for s in scenario.sources},
        "runs": runs,
    }
    return (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8")


def true_crossover(scenario: Scenario, id_a: str, id_b: str) -> float:
    """Ground-truth compute where two sources' true curves intersect."""
    by_id = {s.source_id: s for s in scenario.sources}
    a, b = by_id[id_a], by_id[id_b]
    if a.true_slope == b.true_slope:
        raise ValueError("true curves are parallel; no crossover")
    return math.exp(
        (b.true_intercept - a.true_intercept) / (a.true_slope - b.true_slope)
    )


def scenario_rank_flip(rng_seed: int, noise_sigma: float = 0.0) -> Scenario:
    """Two-source scenario whose ranking flips inside the default grid.

    ``wrap_like`` is a rephrasing-style source that starts strong but
    barely improves with scale; ``mbf_like`` is a filtering-style source
    that starts weaker and keeps climbing. Their intercepts are derived
    from the midpoint of the grid's log-compute span, so the crossover
    sits strictly inside the fitted range by construction. Ranking at
    the smallest grid compute therefore prefers wrap_like while the
    fitted curves prefer mbf_like at the top of the grid.
    """
    wrap_cost = SourceCostModel(
        kind=SourceKind.REPHRASE,
        expansion_factor=3.0,
        generator=ModelSpec(param_count=3e9),
    )
    mbf_cost = SourceCostModel(
        kind=SourceKind.MBF,
        mbf_recall=22.0,
        annotator_per_token_flops=2e8,
    )
    wrap_slope, mbf_slope = -0.002, 0.015
    crossover_delta = 0.05

    probe = Scenario(
        sources=(
            GroundTruthSource("wrap_like", 0.0, wrap_slope, wrap_cost),
            GroundTruthSource("mbf_like", 0.0, mbf_slope, mbf_cost),
        ),
        rng_seed=rng_seed,
    )
    low = max(probe.source_compute(s, probe.steps_grid[0]) for s in probe.sources)
    high = min(probe.source_compute(s, probe.steps_grid[-1]) for s in probe.sources)
    log_crossover = (math.log(low) + math.log(high)) / 2.0

    return Scenario(
        sources=(
            GroundTruthSource(
                "wrap_like",
                crossover_delta - wrap_slope * log_crossover,
                wrap_slope,
                wrap_cost,
                noise_sigma=noise_sigma,
            ),
            GroundTruthSource(
                "mbf_like",
                crossover_delta - mbf_slope * log_crossover,
                mbf_slope,
                mbf_cost,
                noise_sigma=noise_sigma,
            ),
        ),
        rng_seed=rng_seed,
    )
