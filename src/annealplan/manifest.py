"""Experiment manifest loading, validation, and utility-point extraction.

A manifest is a JSON file describing one family of annealing runs: the
shared batch geometry, the training model, a cost model per data
source, and the per-run task scores. Treated runs are paired with the
seed-averaged baseline run at the same step count to produce
(compute, delta) utility points under a chosen cost basis.

Validation is strict: unknown fields are rejected, every error names
the offending field, and loading the same bytes always yields the same
points in the same order.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from pathlib import Path

from .costs import (
    AnnealingGeometry,
    CostBasis,
    ModelSpec,
    SourceCostModel,
    SourceKind,
    tokens_per_step,
    total_cost,
)
from .metrics import (
    MetricKind,
    TaskScore,
    UtilityDelta,
    aggregate_suite,
    anchored_mean,
    utility_delta,
)

__all__ = [
    "AGGREGATE_SEED",
    "ManifestError",
    "RunRecord",
    "RunSet",
    "UtilityPoint",
    "average_seeds",
    "build_utility_points",
    "load_manifest",
    "loads_manifest",
]

# Seed value marking a synthetic run produced by averaging real seeds.
AGGREGATE_SEED = -1


class ManifestError(ValueError):
    """Raised for malformed or inconsistent manifest content."""


@dataclass(frozen=True)
class RunRecord:
    """One annealing run: identity, step count, and per-task scores."""

    source_id: str
    seed: int
    steps: int
    geometry: AnnealingGeometry
    scores: tuple[TaskScore, ...]
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.steps <= 0:
            raise ManifestError(f"steps must be positive, got {self.steps}")
        if not self.scores:
            raise ManifestError(f"run ({self.source_id}, {self.seed}, {self.steps}) has no scores")


@dataclass(frozen=True)
class RunSet:
    """A validated manifest: runs plus the cost models needed to price them."""

    runs: tuple[RunRecord, ...]
    sources: Mapping[str, SourceCostModel]
    baseline_id: str
    training_model: ModelSpec
    geometry: AnnealingGeometry


@dataclass(frozen=True)
class UtilityPoint:
    """One treated run reduced to (compute cost, utility delta)."""

    source_id: str
    steps: int
    compute: float
    tokens_upsampled: float
    delta: UtilityDelta
    basis: CostBasis


def _reject_unknown(obj: Mapping, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ManifestError(f"unknown field(s) {unknown} in {where}")


def _get(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise ManifestError(f"missing field {key!r} in {where}")
    return obj[key]


def _get_str(obj: Mapping, key: str, where: str) -> str:
    value = _get(obj, key, where)
    if not isinstance(value, str):
        raise ManifestError(f"field {key!r} in {where} must be a string, got {value!r}")
    return value


def _get_int(obj: Mapping, key: str, where: str) -> int:
    value = _get(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ManifestError(f"field {key!r} in {where} must be an integer, got {value!r}")
    return value


def _get_float(obj: Mapping, key: str, where: str) -> float:
    value = _get(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ManifestError(f"field {key!r} in {where} must be a number, got {value!r}")
    return float(value)


def _parse_geometry(obj, where: str) -> AnnealingGeometry:
    if not isinstance(obj, Mapping):
        raise ManifestError(f"{where} must be an object")
    _reject_unknown(obj, ["batch_size", "sequence_length", "upsample_ratio", "epochs"], where)
    try:
        return AnnealingGeometry(
            batch_size=_get_int(obj, "batch_size", where),
            sequence_length=_get_int(obj, "sequence_length", where),
            upsample_ratio=_get_float(obj, "upsample_ratio", where),
            epochs=_get_float(obj, "epochs", where),
        )
    except ValueError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _parse_source(source_id: str, obj) -> SourceCostModel:
    where = f"sources[{source_id!r}]"
    if not isinstance(obj, Mapping):
        raise ManifestError(f"{where} must be an object")
    _reject_unknown(
        obj,
        [
            "kind",
            "expansion_factor",
            "generator_params",
            "annotator_per_token_flops",
            "annotator_training_flops",
            "mbf_recall",
        ],
        where,
    )
    kind_name = _get_str(obj, "kind", where)
    try:
        kind = SourceKind(kind_name)
    except ValueError:
        valid = sorted(k.value for k in SourceKind)
        raise ManifestError(f"{where}: unknown kind {kind_name!r}; expected one of {valid}") from None
    generator = None
    if "generator_params" in obj:
        generator = ModelSpec(param_count=_get_int(obj, "generator_params", where))
    kwargs = {}
    for json_key, attr in [
        ("expansion_factor", "expansion_factor"),
        ("annotator_per_token_flops", "annotator_per_token_flops"),
        ("annotator_training_flops", "annotator_training_flops"),
        ("mbf_recall", "mbf_recall"),
    ]:
        if json_key in obj:
            kwargs[attr] = _get_float(obj, json_key, where)
    try:
        return SourceCostModel(kind=kind, generator=generator, **kwargs)
    except ValueError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _parse_score(obj, where: str) -> TaskScore:
    if not isinstance(obj, Mapping):
        raise ManifestError(f"{where} must be an object")
    _reject_unknown(obj, ["task_id", "metric", "value", "n_examples"], where)
    metric_name = _get_str(obj, "metric", where)
    try:
        metric = MetricKind(metric_name)
    except ValueError:
        valid = sorted(m.value for m in MetricKind)
        raise ManifestError(
            f"{where}: unknown metric {metric_name!r}; expected one of {valid}"
        ) from None
    try:
        return TaskScore(
            task_id=_get_str(obj, "task_id", where),
            metric=metric,
            value=_get_float(obj, "value", where),
            n_examples=_get_int(obj, "n_examples", where),
        )
    except ValueError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _parse_run(obj, index: int, geometry: AnnealingGeometry) -> RunRecord:
    where = f"runs[{index}]"
    if not isinstance(obj, Mapping):
        raise ManifestError(f"{where} must be an object")
    _reject_unknown(obj, ["source_id", "seed", "steps", "scores", "metadata"], where)
    scores_obj = _get(obj, "scores", where)
    if not isinstance(scores_obj, list):
        raise ManifestError(f"field 'scores' in {where} must be a list")
    scores = tuple(
        _parse_score(s, f"{where}.scores[{i}]") for i, s in enumerate(scores_obj)
    )
    metadata: dict[str, str] = {}
    if "metadata" in obj:
        meta_obj = obj["metadata"]
        if not isinstance(meta_obj, Mapping):
            raise ManifestError(f"field 'metadata' in {where} must be an object")
        for key, value in meta_obj.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ManifestError(f"metadata in {where} must map strings to strings")
            metadata[key] = value
    try:
        return RunRecord(
            source_id=_get_str(obj, "source_id", where),
            seed=_get_int(obj, "seed", where),
            steps=_get_int(obj, "steps", where),
            geometry=geometry,
            scores=scores,
            metadata=metadata,
        )
    except ManifestError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def loads_manifest(text: str) -> RunSet:
    """Parse and fully validate manifest JSON from a string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"manifest is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    if not isinstance(data, Mapping):
        raise ManifestError("manifest root must be a JSON object")
    _reject_unknown(
        data, ["baseline_id", "training_model", "geometry", "sources", "runs"], "manifest"
    )
    baseline_id = _get_str(data, "baseline_id", "manifest")

    model_obj = _get(data, "training_model", "manifest")
    if not isinstance(model_obj, Mapping):
        raise ManifestError("training_model must be an object")
    _reject_unknown(model_obj, ["param_count"], "training_model")
    try:
        training_model = ModelSpec(param_count=_get_int(model_obj, "param_count", "training_model"))
    except ValueError as exc:
        raise ManifestError(f"training_model: {exc}") from exc

    geometry = _parse_geometry(_get(data, "geometry", "manifest"), "geometry")

    sources_obj = _get(data, "sources", "manifest")
    if not isinstance(sources_obj, Mapping):
        raise ManifestError("sources must be an object")
    sources = {sid: _parse_source(sid, s) for sid, s in sources_obj.items()}

    runs_obj = _get(data, "runs", "manifest")
    if not isinstance(runs_obj, list) or not runs_obj:
        raise ManifestError("runs must be a nonempty list")
    runs = tuple(_parse_run(r, i, geometry) for i, r in enumerate(runs_obj))

    seen: set[tuple[str, int, int]] = set()
    for run in runs:
        key = (run.source_id, run.seed, run.steps)
        if key in seen:
            raise ManifestError(f"duplicate run key (source_id, seed, steps) = {key}")
        seen.add(key)

    if not any(run.source_id == baseline_id for run in runs):
        raise ManifestError("baseline runs not found")
    for run in runs:
        if run.source_id != baseline_id and run.source_id not in sources:
            raise ManifestError(f"run source {run.source_id!r} has no entry in sources")
    if baseline_id in sources and sources[baseline_id].kind is not SourceKind.ZERO_COST:
        raise ManifestError(f"baseline source {baseline_id!r} must have kind 'zero_cost'")
    sources.setdefault(baseline_id, SourceCostModel(kind=SourceKind.ZERO_COST))

    return RunSet(
        runs=runs,
        sources=sources,
        baseline_id=baseline_id,
        training_model=training_model,
        geometry=geometry,
    )


def load_manifest(path: str | Path) -> RunSet:
    """Load, parse, and fully validate a manifest JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    return loads_manifest(text)


def average_seeds(runs: Sequence[RunRecord]) -> RunRecord:
    """Average per-task scores across seeds of otherwise identical runs.

    All runs must share source, step count, geometry, and task set; the
    result carries seed ``AGGREGATE_SEED`` and records which seeds went
    into it. A single run is returned unchanged.
    """
    if not runs:
        raise ManifestError("cannot average an empty run list")
    if len(runs) == 1:
        return runs[0]
    first = runs[0]
    for run in runs[1:]:
        if run.source_id != first.source_id:
            raise ManifestError(
                f"cannot average runs from different sources: {first.source_id!r} vs {run.source_id!r}"
            )
        if run.steps != first.steps:
            raise ManifestError(
                f"cannot average runs at different steps: {first.steps} vs {run.steps}"
            )
        if run.geometry != first.geometry:
            raise ManifestError("cannot average runs with different geometry")
        mine = {s.task_id for s in first.scores}
        theirs = {s.task_id for s in run.scores}
        if mine != theirs:
            diff = sorted(mine.symmetric_difference(theirs))
            raise ManifestError(f"runs have mismatched task sets; differing tasks: {diff}")

    by_task = [{s.task_id: s for s in run.scores} for run in runs]
    averaged = tuple(
        replace(score, value=anchored_mean([m[score.task_id].value for m in by_task]))
        for score in first.scores
    )
    seeds = ",".join(str(run.seed) for run in runs)
    return RunRecord(
        source_id=first.source_id,
        seed=AGGREGATE_SEED,
        steps=first.steps,
        geometry=first.geometry,
        scores=averaged,
        metadata={"averaged_seeds": seeds},
    )


def _filter_scores(run: RunRecord, task_filter: Sequence[str] | None) -> list[TaskScore]:
    if task_filter is None:
        return list(run.scores)
    return [
        s for s in run.scores if any(fnmatchcase(s.task_id, pattern) for pattern in task_filter)
    ]


def build_utility_points(
    runset: RunSet,
    task_filter: Sequence[str] | None = None,
    basis: CostBasis = CostBasis.CURATION_ONLY,
) -> list[UtilityPoint]:
    """Turn treated runs into (compute, delta) points against matched baselines.

    Each treated (source, steps) group is seed-averaged, reduced to a
    macro-average over the filtered tasks, compared with the
    seed-averaged baseline at the same step count, and priced with the
    source's cost model under ``basis``. ``task_filter`` is a list of
    glob patterns over task ids; None keeps every task. The filtered
    task set of each treated group must equal the baseline's at the
    same step count. Output is sorted by (source_id, steps).
    """
    baseline_by_steps: dict[int, list[RunRecord]] = {}
    treated_by_key: dict[tuple[str, int], list[RunRecord]] = {}
    for run in runset.runs:
        if run.source_id == runset.baseline_id:
            baseline_by_steps.setdefault(run.steps, []).append(run)
        else:
            treated_by_key.setdefault((run.source_id, run.steps), []).append(run)

    baseline_agg: dict[int, tuple[set[str], TaskScore]] = {}
    for steps, runs in baseline_by_steps.items():
        merged = average_seeds(sorted(runs, key=lambda r: r.seed))
        scores = _filter_scores(merged, task_filter)
        if not scores:
            raise ManifestError(
                f"task filter {list(task_filter or [])} matches no baseline tasks at steps={steps}"
            )
        baseline_agg[steps] = ({s.task_id for s in scores}, aggregate_suite(scores))

    total_per_step, upsampled_per_step = tokens_per_step(runset.geometry)

    points = []
    for (source_id, steps) in sorted(treated_by_key):
        runs = treated_by_key[(source_id, steps)]
        if steps not in baseline_agg:
            raise ManifestError(f"no baseline run at steps={steps} to pair with ({source_id!r}, {steps})")
        merged = average_seeds(sorted(runs, key=lambda r: r.seed))
        scores = _filter_scores(merged, task_filter)
        if not scores:
            raise ManifestError(
                f"task filter {list(task_filter or [])} matches no tasks for ({source_id!r}, {steps})"
            )
        baseline_tasks, baseline_score = baseline_agg[steps]
        differing = baseline_tasks.symmetric_difference(s.task_id for s in scores)
        if differing:
            raise ManifestError(
                f"task suite of ({source_id!r}, {steps}) differs from the baseline's at the"
                f" same steps; differing tasks: {sorted(differing)}"
            )
        delta = utility_delta(baseline_score, aggregate_suite(scores), source_id=source_id)
        compute = total_cost(
            runset.sources[source_id],
            runset.geometry,
            steps * total_per_step,
            runset.training_model,
            basis,
        )
        points.append(
            UtilityPoint(
                source_id=source_id,
                steps=steps,
                compute=compute,
                tokens_upsampled=steps * upsampled_per_step,
                delta=delta,
                basis=basis,
            )
        )
    return points
