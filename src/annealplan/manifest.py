"""Experiment manifest loading, validation, and utility-point extraction.

A manifest is a JSON file describing one family of annealing runs: the
shared batch geometry, the training model, a cost model per data
source, and the per-run task scores. Treated runs are paired with the
seed-averaged baseline run at the same step count to produce
(compute, delta) utility points under a chosen cost basis.

Validation is strict: unknown fields and repeated JSON keys are
rejected, every error names the offending field, and loading the same
bytes always yields the same points in the same order. A run's scores
are checked in one pass; only when that pass finds a fault are they
checked again field by field, to build the error message.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field
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


# Characters a source id may not hold: C0 controls (XML 1.0 forbids most,
# the rest break CSV rows), lone surrogates (UTF-8 cannot encode them) and
# the noncharacters U+FFFE and U+FFFF (XML forbids them).
_UNWRITABLE = re.compile("[\x00-\x1f\ud800-\udfff\ufffe\uffff]")


def _check_writable(value: str, where: str) -> None:
    bad = _UNWRITABLE.search(value)
    if bad:
        raise ManifestError(
            f"{where} {value!r} contains U+{ord(bad.group()):04X}, which cannot be written out"
        )


def _reject_unknown(obj: Mapping, allowed: Collection[str], where: str) -> None:
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


def _beyond_float(key: str, where: str, value: int) -> ManifestError:
    return ManifestError(
        f"field {key!r} in {where} is beyond the float range,"
        f" got an integer of {len(str(abs(value)))} digits"
    )


def _get_int(obj: Mapping, key: str, where: str) -> int:
    value = _get(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ManifestError(f"field {key!r} in {where} must be an integer, got {value!r}")
    try:
        float(value)  # every integer field is priced or averaged in floating point
    except OverflowError:
        raise _beyond_float(key, where, value) from None
    return value


def _get_float(obj: Mapping, key: str, where: str) -> float:
    value = _get(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ManifestError(f"field {key!r} in {where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise _beyond_float(key, where, value) from None


def _parse_geometry(obj, where: str) -> AnnealingGeometry:
    if not isinstance(obj, Mapping):
        raise ManifestError(f"{where} must be an object")
    _reject_unknown(obj, ["batch_size", "sequence_length", "upsample_ratio", "epochs"], where)
    batch_size = _get_int(obj, "batch_size", where)
    sequence_length = _get_int(obj, "sequence_length", where)
    upsample_ratio = _get_float(obj, "upsample_ratio", where)
    epochs = _get_float(obj, "epochs", where)
    try:
        return AnnealingGeometry(batch_size, sequence_length, upsample_ratio, epochs)
    except ValueError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _parse_source(source_id: str, obj) -> SourceCostModel:
    _check_writable(source_id, "sources key")
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
        param_count = _get_int(obj, "generator_params", where)
        try:
            generator = ModelSpec(param_count)
        except ValueError as exc:
            raise ManifestError(f"{where}.generator_params: {exc}") from exc
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


_SCORE_KEYS = frozenset({"task_id", "metric", "value", "n_examples"})
_RUN_KEYS = frozenset({"source_id", "seed", "steps", "scores", "metadata"})
_METRICS = {m.value: m for m in MetricKind}


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
    task_id = _get_str(obj, "task_id", where)
    value = _get_float(obj, "value", where)
    n_examples = _get_int(obj, "n_examples", where)
    try:
        return TaskScore(task_id, metric, value, n_examples)
    except ValueError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _scores_in_one_pass(scores_obj: list) -> tuple[TaskScore, ...] | None:
    """The scores, if every one passes ``_parse_score``; None at the first that might not.

    Accepts only JSON's own types, so it never accepts what
    ``_parse_score`` rejects; it may decline what ``_parse_score`` accepts.
    """
    scores = []
    try:
        for obj in scores_obj:
            if type(obj) is not dict or obj.keys() != _SCORE_KEYS:
                return None
            task_id, metric, value, n_examples = (
                obj["task_id"], obj["metric"], obj["value"], obj["n_examples"]
            )
            if (
                type(task_id) is not str
                or type(metric) is not str
                or type(n_examples) is not int
                or (type(value) is not float and type(value) is not int)
            ):
                return None
            float(n_examples)
            scores.append(TaskScore(task_id, _METRICS[metric], float(value), n_examples))
    except (KeyError, ValueError, OverflowError):
        return None
    return tuple(scores)


def _parse_run(obj, index: int) -> RunRecord:
    where = f"runs[{index}]"
    if not isinstance(obj, Mapping):
        raise ManifestError(f"{where} must be an object")
    if not obj.keys() <= _RUN_KEYS:
        _reject_unknown(obj, _RUN_KEYS, where)
    scores_obj = _get(obj, "scores", where)
    if not isinstance(scores_obj, list):
        raise ManifestError(f"field 'scores' in {where} must be a list")
    scores = _scores_in_one_pass(scores_obj)
    if scores is None:
        scores = tuple(
            _parse_score(s, f"{where}.scores[{i}]") for i, s in enumerate(scores_obj)
        )
    if len({s.task_id for s in scores}) != len(scores):
        ids = [s.task_id for s in scores]
        i = next(i for i, task_id in enumerate(ids) if task_id in ids[:i])
        raise ManifestError(f"{where}.scores[{i}]: task id {ids[i]!r} appears twice in {where}")
    metadata: dict[str, str] = {}
    if "metadata" in obj:
        meta_obj = obj["metadata"]
        if not isinstance(meta_obj, Mapping):
            raise ManifestError(f"field 'metadata' in {where} must be an object")
        for key, value in meta_obj.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ManifestError(f"metadata in {where} must map strings to strings")
            metadata[key] = value
    source_id = _get_str(obj, "source_id", where)
    seed = _get_int(obj, "seed", where)
    steps = _get_int(obj, "steps", where)
    try:
        return RunRecord(source_id, seed, steps, scores, metadata)
    except ManifestError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ManifestError(f"manifest repeats the key {key!r} within one JSON object")
            seen.add(key)
    return obj


# The characters that move a JSON scan between states; numbers and
# literals hold none of them.
_JSON_STRUCTURE = re.compile(r'[{}\[\],"]')


def _repeated_key_offset(text: str) -> int:
    """Offset of the repeated key :func:`_object_without_repeats` rejects first.

    The hook sees an object when it closes, and names the first key in
    it that repeats an earlier one, so this scan does the same. It runs
    on the error path only, over text that is valid JSON up to there.
    """
    # Per open container: an array's None, or an object's keys and the
    # offset of its first repeated key.
    open_containers: list[tuple[set[str], list[int]] | None] = []
    expect_key = False
    pos = 0
    while match := _JSON_STRUCTURE.search(text, pos):
        char, pos = match.group(), match.end()
        if char == '"':
            key, end = json.decoder.scanstring(text, pos)
            if expect_key:
                keys, repeats = open_containers[-1]
                if key in keys:
                    repeats.append(pos - 1)
                keys.add(key)
            expect_key = False
            pos = end
        elif char == "{":
            open_containers.append((set(), []))
            expect_key = True
        elif char == "[":
            open_containers.append(None)
        elif char == ",":
            expect_key = open_containers[-1] is not None
        else:
            closed = open_containers.pop()
            if closed is not None and closed[1]:
                return closed[1][0]
            expect_key = False
    raise AssertionError("no JSON object repeats a key")


def loads_manifest(text: str) -> RunSet:
    """Parse and fully validate manifest JSON from a string."""
    try:
        data = json.loads(text, object_pairs_hook=_object_without_repeats)
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"manifest is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except ManifestError as exc:
        # Only the repeated-key hook raises this inside json.loads.
        at = _repeated_key_offset(text)
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        raise ManifestError(f"{exc} at line {line} column {column}") from None
    if not isinstance(data, Mapping):
        raise ManifestError("manifest root must be a JSON object")
    _reject_unknown(
        data, ["baseline_id", "training_model", "geometry", "sources", "runs"], "manifest"
    )
    baseline_id = _get_str(data, "baseline_id", "manifest")
    _check_writable(baseline_id, "baseline_id")

    model_obj = _get(data, "training_model", "manifest")
    if not isinstance(model_obj, Mapping):
        raise ManifestError("training_model must be an object")
    _reject_unknown(model_obj, ["param_count"], "training_model")
    param_count = _get_int(model_obj, "param_count", "training_model")
    try:
        training_model = ModelSpec(param_count)
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
    runs = tuple(_parse_run(r, i) for i, r in enumerate(runs_obj))

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

    All runs must share source, step count, task set, and each task's
    metric; the result carries seed ``AGGREGATE_SEED`` and records which
    seeds went into it. A single run is returned unchanged.
    """
    if not runs:
        raise ManifestError("cannot average an empty run list")
    if len(runs) == 1:
        return runs[0]
    first = runs[0]
    by_task = [{s.task_id: s for s in run.scores} for run in runs]
    mine = by_task[0]
    for run, theirs in zip(runs[1:], by_task[1:]):
        if run.source_id != first.source_id:
            raise ManifestError(
                f"cannot average runs from different sources: {first.source_id!r} vs {run.source_id!r}"
            )
        if run.steps != first.steps:
            raise ManifestError(
                f"cannot average runs at different steps: {first.steps} vs {run.steps}"
            )
        if mine.keys() != theirs.keys():
            diff = sorted(mine.keys() ^ theirs.keys())
            raise ManifestError(f"runs have mismatched task sets; differing tasks: {diff}")
        mixed = [t for t, score in mine.items() if score.metric is not theirs[t].metric]
        if mixed:
            raise ManifestError(
                f"seeds {first.seed} and {run.seed} of ({first.source_id!r}, {first.steps})"
                f" score tasks {sorted(mixed)} with different metrics"
            )
    averaged = tuple(
        TaskScore(
            s.task_id, s.metric, anchored_mean([m[s.task_id].value for m in by_task]), s.n_examples
        )
        for s in first.scores
    )
    seeds = ",".join(str(run.seed) for run in runs)
    return RunRecord(
        source_id=first.source_id,
        seed=AGGREGATE_SEED,
        steps=first.steps,
        scores=averaged,
        metadata={"averaged_seeds": seeds},
    )


def _filter_scores(
    run: RunRecord, task_filter: Sequence[str] | None, matched: dict[str, bool]
) -> list[TaskScore]:
    """The run's scores whose task id matches a pattern; ``matched`` memoizes task ids."""
    if task_filter is None:
        return list(run.scores)
    for s in run.scores:
        if s.task_id not in matched:
            matched[s.task_id] = any(fnmatchcase(s.task_id, pattern) for pattern in task_filter)
    return [s for s in run.scores if matched[s.task_id]]


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

    matched: dict[str, bool] = {}
    baseline_agg: dict[int, tuple[dict[str, MetricKind], TaskScore]] = {}
    for steps, runs in baseline_by_steps.items():
        merged = average_seeds(sorted(runs, key=lambda r: r.seed))
        scores = _filter_scores(merged, task_filter, matched)
        if not scores:
            raise ManifestError(
                f"task filter {list(task_filter or [])} matches no baseline tasks at steps={steps}"
            )
        metrics = {s.task_id: s.metric for s in scores}
        odd = sorted(t for t, metric in metrics.items() if metric is not scores[0].metric)
        if odd:
            raise ManifestError(
                f"baseline task suite at steps={steps} mixes metric kinds: tasks {odd}"
                f" are not scored with {scores[0].metric.value} like {scores[0].task_id!r}"
            )
        # A treated suite must match these metrics task by task, so it
        # cannot mix kinds either.
        baseline_agg[steps] = (metrics, aggregate_suite(scores))

    total_per_step, upsampled_per_step = tokens_per_step(runset.geometry)

    points = []
    for (source_id, steps) in sorted(treated_by_key):
        runs = treated_by_key[(source_id, steps)]
        if steps not in baseline_agg:
            raise ManifestError(f"no baseline run at steps={steps} to pair with ({source_id!r}, {steps})")
        merged = average_seeds(sorted(runs, key=lambda r: r.seed))
        scores = _filter_scores(merged, task_filter, matched)
        if not scores:
            raise ManifestError(
                f"task filter {list(task_filter or [])} matches no tasks for ({source_id!r}, {steps})"
            )
        baseline_metrics, baseline_score = baseline_agg[steps]
        metrics = {s.task_id: s.metric for s in scores}
        if metrics != baseline_metrics:
            differing = baseline_metrics.keys() ^ metrics.keys()
            if differing:
                raise ManifestError(
                    f"task suite of ({source_id!r}, {steps}) differs from the baseline's at the"
                    f" same steps; differing tasks: {sorted(differing)}"
                )
            mixed = [
                f"{t!r} is {metric.value}, baseline {baseline_metrics[t].value}"
                for t, metric in sorted(metrics.items())
                if metric is not baseline_metrics[t]
            ]
            raise ManifestError(
                f"metrics of ({source_id!r}, {steps}) differ from the baseline's at the"
                f" same steps: {'; '.join(mixed)}"
            )
        delta = utility_delta(baseline_score, aggregate_suite(scores), source_id=source_id)
        compute = total_cost(
            runset.sources[source_id],
            runset.geometry,
            steps * total_per_step,
            runset.training_model,
            basis,
        )
        if not math.isfinite(compute):
            g = runset.geometry
            raise ManifestError(
                f"compute of ({source_id!r}, {steps}) under basis {basis.value!r} is {compute}:"
                f" geometry batch_size {g.batch_size:.6g} x sequence_length"
                f" {g.sequence_length:.6g} prices it beyond the float range"
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
