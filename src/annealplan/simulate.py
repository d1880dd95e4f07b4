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

import contextlib
import json
import math
import operator
from dataclasses import asdict, dataclass, replace

from .costs import (
    SOURCE_FLOAT_FIELDS,
    AnnealingGeometry,
    CostBasis,
    ModelSpec,
    SourceCostModel,
    SourceKind,
    _check_at_least,
    _require_finite,
    tokens_per_step,
    total_cost,
)
from .metrics import MetricKind

__all__ = [
    "DEFAULT_STEPS_GRID",
    "GroundTruthSource",
    "Scenario",
    "generate_manifest",
    "scenario_rank_flip",
    "true_crossover",
]

# Step grid used unless a scenario overrides it: six run lengths
# doubling-ish from 1k to 36k steps.
DEFAULT_STEPS_GRID = (1000, 2000, 4000, 9000, 18000, 36000)

# Fixed for every scenario: 256 x 8192 batches with 10% upsampling into
# a 7B model, priced on the total basis, and one Brier task scored
# against the baseline source.
_GEOMETRY = AnnealingGeometry(
    batch_size=256, sequence_length=8192, upsample_ratio=0.1, epochs=1.0
)
_TRAINING_MODEL = ModelSpec(param_count=7e9)
_GENERATION_BASIS = CostBasis.CURATION_PLUS_ANNEALING
_BASELINE_ID = "full_replay"
_METRIC = MetricKind.BRIER
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
        _require_finite(self, "true_intercept", "true_slope", "noise_sigma")
        _check_at_least(self.noise_sigma, 0, "noise_sigma")


@dataclass(frozen=True)
class Scenario:
    """A full simulated experiment: sources, run grid, and score encoding."""

    sources: tuple[GroundTruthSource, ...]
    steps_grid: tuple[int, ...] = DEFAULT_STEPS_GRID
    baseline_score: float = 0.5
    rng_seed: int = 0
    baseline_noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError("scenario needs at least one source")
        if not self.steps_grid:
            raise ValueError("steps_grid must be nonempty")
        for steps in self.steps_grid:  # the manifest loader's rule for a run's steps
            if isinstance(steps, bool) or not isinstance(steps, int) or steps <= 0:
                raise ValueError(f"steps_grid entries must be positive integers, got {steps!r}")
        if any(b >= a for a, b in zip(self.steps_grid[1:], self.steps_grid)):
            raise ValueError(f"steps_grid must be strictly increasing, got {self.steps_grid}")
        ids = [s.source_id for s in self.sources]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate source ids: {ids}")
        if _BASELINE_ID in ids:
            raise ValueError(f"baseline id {_BASELINE_ID!r} collides with a source")
        _require_finite(self, "baseline_score", "baseline_noise_sigma")
        _check_at_least(self.baseline_noise_sigma, 0, "baseline_noise_sigma")
        try:
            operator.index(self.rng_seed)
        except TypeError:
            raise ValueError(f"rng_seed must be an integer, got {self.rng_seed!r}") from None
        _check_at_least(self.rng_seed, 0, "rng_seed")
        top = self.steps_grid[-1]  # compute grows with steps, so the last entry costs the most
        for source in self.sources:
            with contextlib.suppress(OverflowError):  # from an entry past the float range
                if math.isfinite(self.source_compute(source, top)):
                    continue
            where = f"steps_grid entry {top} prices source {source.source_id!r}"
            raise ValueError(f"{where} beyond the float range")

    def source_compute(self, source: GroundTruthSource, steps: int) -> float:
        """Cost of a run at ``steps``, curation plus annealing."""
        total_tokens = steps * tokens_per_step(_GEOMETRY)[0]
        return total_cost(
            source.cost_model, _GEOMETRY, total_tokens, _TRAINING_MODEL, _GENERATION_BASIS
        )

    def true_delta(self, source: GroundTruthSource, steps: int) -> float:
        return source.true_intercept + source.true_slope * math.log(
            self.source_compute(source, steps)
        )


def _source_to_json(model: SourceCostModel) -> dict:
    obj: dict = {"kind": model.kind.value}
    if model.generator is not None:
        obj["generator_params"] = int(model.generator.param_count)
    for name in SOURCE_FLOAT_FIELDS:  # written where they differ from the class defaults
        if (value := getattr(model, name)) != getattr(SourceCostModel, name):
            obj[name] = value
    return obj


def _clamp_score(raw: float) -> tuple[float, str | None]:
    lo, hi = _METRIC.value_range
    if raw < lo or raw > hi:
        clamped = min(max(raw, lo), hi)
        return clamped, f"score {raw!r} clamped to {clamped!r} ([{lo}, {hi}] range)"
    return raw, None


def generate_manifest(scenario: Scenario) -> bytes:
    """Emit manifest JSON bytes for a scenario, byte-identical per seed.

    Two baseline seed runs with independent noise draws are included for
    every grid point, plus one treated run per source and grid point.
    Scores pushed outside the metric's valid range by noise or extreme
    ground truth are clamped, with a warning recorded in that run's
    metadata.

    When every sigma is 0 each noise term is exactly 0.0, so no generator
    is made and numpy is not loaded; the bytes then do not depend on the
    seed. Otherwise one generator draws every term in a fixed order, the
    zero-sigma terms included.
    """
    if scenario.baseline_noise_sigma or any(s.noise_sigma for s in scenario.sources):
        import numpy as np  # only the RNG needs it; loaded here, not at import

        rng = np.random.default_rng(scenario.rng_seed)

        def draw(sigma: float) -> float:
            return float(rng.normal(0.0, sigma))
    else:
        def draw(sigma: float) -> float:
            return 0.0  # what normal(0.0, 0.0) returns on every draw

    runs = []

    def add_run(source_id: str, seed: int, steps: int, raw: float, metadata: dict) -> None:
        value, clamp_note = _clamp_score(raw)
        if clamp_note:
            metadata["clamp_warning"] = clamp_note
        score = {
            "task_id": _SIM_TASK,
            "metric": _METRIC.value,
            "value": value,
            "n_examples": _SIM_N_EXAMPLES,
        }
        runs.append(
            {"source_id": source_id, "seed": seed, "steps": steps, "scores": [score],
             "metadata": metadata}
        )

    for steps in scenario.steps_grid:
        for seed in (0, 1):
            noise = draw(scenario.baseline_noise_sigma)
            add_run(_BASELINE_ID, seed, steps, scenario.baseline_score + noise,
                    {"start_lr": "1.515e-04"})

    for source in scenario.sources:
        for steps in scenario.steps_grid:
            delta = scenario.true_delta(source, steps) + draw(source.noise_sigma)
            # Brier is lower-is-better, so an improvement lowers the score.
            add_run(source.source_id, 0, steps, scenario.baseline_score - delta,
                    {"start_lr": "1.515e-04", "generation_basis": _GENERATION_BASIS.value})

    manifest = {
        "baseline_id": _BASELINE_ID,
        "training_model": {"param_count": int(_TRAINING_MODEL.param_count)},
        "geometry": asdict(_GEOMETRY),
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
    rephrase = SourceCostModel(
        kind=SourceKind.REPHRASE, expansion_factor=3.0, generator=ModelSpec(param_count=3e9)
    )
    mbf = SourceCostModel(kind=SourceKind.MBF, mbf_recall=22.0, annotator_per_token_flops=2e8)
    # Intercepts are set below, once the grid's compute span is known.
    sources = (
        GroundTruthSource("wrap_like", 0.0, -0.002, rephrase, noise_sigma),
        GroundTruthSource("mbf_like", 0.0, 0.015, mbf, noise_sigma),
    )
    probe = Scenario(sources=sources, rng_seed=rng_seed)
    low = max(probe.source_compute(s, probe.steps_grid[0]) for s in sources)
    high = min(probe.source_compute(s, probe.steps_grid[-1]) for s in sources)
    log_crossover = (math.log(low) + math.log(high)) / 2.0
    crossover_delta = 0.05
    return replace(probe, sources=tuple(
        replace(s, true_intercept=crossover_delta - s.true_slope * log_crossover) for s in sources
    ))
