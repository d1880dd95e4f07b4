"""Experiment manifest loading, validation, and utility-point extraction.

A manifest is a JSON file describing one family of annealing runs: the
shared batch geometry, the training model, a cost model per data
source, and the per-run task scores. Treated runs are paired with the
seed-averaged baseline run at the same step count to produce
(compute, delta) utility points under a chosen cost basis.

Scores are held as a table: each run keeps a suite, the flat tuple of
its tasks' (task_id, metric, n_examples) shared by every run of the
manifest with that suite, and a tuple of its values in the same order.
Seeds sharing a suite are averaged column by column.

Validation is strict: unknown fields and repeated JSON keys are
rejected, every error names the offending field, and loading the same
bytes always yields the same points in the same order. A run's scores
are checked in one pass; only when that pass finds a fault are they
checked again field by field, to build the error message. The text is
parsed once, by a parse whose hook rejects a repeated key as its object
closes; only a repeat that hook finds is scanned for its position.

``load_manifest`` keeps the bytes and ``RunSet`` of its last successful
load and returns that same object while the file's bytes are unchanged;
``loads_manifest`` never caches. So a parsed ``RunSet`` is read-only: its
``sources`` and each run's ``metadata`` refuse changes.
"""

from __future__ import annotations

import io
import json
import math
import re
import sys
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path

from .costs import (
    SOURCE_FLOAT_FIELDS,
    AnnealingGeometry,
    CostBasis,
    ModelSpec,
    SourceCostModel,
    SourceKind,
    _check_positive_finite,
    tokens_per_step,
    total_cost,
)
from .metrics import (
    MetricKind,
    TaskScore,
    UtilityDelta,
    aggregate_suite,
    anchored_mean,
    utility_delta,  # noqa: F401  (bound here for callers that look it up in this module)
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


class _ReadOnlyDict(dict):
    """A dict that refuses changes; it still pickles and copies."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a parsed manifest's mappings are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class ManifestError(ValueError):
    """Raised for malformed or inconsistent manifest content."""


@dataclass(frozen=True)
class RunRecord:
    """One annealing run: identity, step count, and its row of the score table."""

    source_id: str
    seed: int
    steps: int
    suite: tuple
    values: tuple[float, ...]
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_positive_finite(self.steps, "steps")
        if not self.suite:
            raise ManifestError(f"run ({self.source_id}, {self.seed}, {self.steps}) has no scores")

    @property
    def scores(self) -> tuple[TaskScore, ...]:
        """One ``TaskScore`` per task, in the suite's order."""
        suite = self.suite
        return tuple(map(TaskScore, suite[::3], suite[1::3], self.values, suite[2::3]))


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
# the rest break CSV rows), DEL and the C1 controls (a terminal may act on
# them), lone surrogates (UTF-8 cannot encode them) and the noncharacters
# U+FFFE and U+FFFF (XML forbids them).
_UNWRITABLE = re.compile("[\x00-\x1f\x7f-\x9f\ud800-\udfff\ufffe\uffff]")


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


def _object(obj, where: str, allowed: Collection[str] | None = None) -> Mapping:
    """``obj`` if it is an object whose fields are all ``allowed``; None allows any."""
    if not isinstance(obj, Mapping):
        raise ManifestError(f"{where} must be an object")
    if allowed is not None:
        _reject_unknown(obj, allowed, where)
    return obj


def _build(cls, where: str, /, *args, **kwargs):
    """``cls(*args, **kwargs)``, its ValueError re-raised naming ``where``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _get(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise ManifestError(f"missing field {key!r} in {where}")
    return obj[key]


def _get_str(obj: Mapping, key: str, where: str) -> str:
    value = _get(obj, key, where)
    if not isinstance(value, str):
        raise ManifestError(f"field {key!r} in {where} must be a string, got {value!r}")
    return value


def _get_member(enum, obj: Mapping, key: str, where: str):
    name = _get_str(obj, key, where)
    try:
        return enum(name)
    except ValueError:
        valid = sorted(member.value for member in enum)
        raise ManifestError(f"{where}: unknown {key} {name!r}; expected one of {valid}") from None


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
    _object(obj, where, ["batch_size", "sequence_length", "upsample_ratio", "epochs"])
    batch_size = _get_int(obj, "batch_size", where)
    sequence_length = _get_int(obj, "sequence_length", where)
    upsample_ratio = _get_float(obj, "upsample_ratio", where)
    epochs = _get_float(obj, "epochs", where)
    return _build(AnnealingGeometry, where, batch_size, sequence_length, upsample_ratio, epochs)


def _parse_source(source_id: str, obj) -> SourceCostModel:
    _check_writable(source_id, "sources key")
    where = f"sources[{source_id!r}]"
    _object(obj, where, ["kind", "generator_params", *SOURCE_FLOAT_FIELDS])
    kind = _get_member(SourceKind, obj, "kind", where)
    generator = None
    if "generator_params" in obj:
        param_count = _get_int(obj, "generator_params", where)
        generator = _build(ModelSpec, f"{where}.generator_params", param_count)
    kwargs = {key: _get_float(obj, key, where) for key in SOURCE_FLOAT_FIELDS if key in obj}
    return _build(SourceCostModel, where, kind=kind, generator=generator, **kwargs)


_SCORE_KEYS = frozenset({"task_id", "metric", "value", "n_examples"})
_RUN_KEYS = frozenset({"source_id", "seed", "steps", "scores", "metadata"})
# Metric name -> (kind, lowest value, highest value).
_METRICS = {m.value: (m, *m.value_range) for m in MetricKind}


def _parse_score(obj, where: str) -> TaskScore:
    _object(obj, where, _SCORE_KEYS)
    metric = _get_member(MetricKind, obj, "metric", where)
    task_id = _get_str(obj, "task_id", where)
    value = _get_float(obj, "value", where)
    n_examples = _get_int(obj, "n_examples", where)
    return _build(TaskScore, where, task_id, metric, value, n_examples)


def _scores_in_one_pass(scores_obj: list) -> tuple[tuple, tuple[float, ...]] | None:
    """The run's (suite, values) if every score passes ``_parse_score``, else None.

    It declines exactly the lists ``_parse_score`` rejects: a parsed
    manifest holds only JSON's own types, the only ones it accepts.
    """
    suite: list = []
    values = []
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
            kind, lo, hi = _METRICS[metric]
            value = float(value)
            if not (lo <= value <= hi and n_examples > 0):
                return None
            float(n_examples)
            suite += task_id, kind, n_examples
            values.append(value)
    except (KeyError, ValueError, OverflowError):
        return None
    return tuple(suite), tuple(values)


def _parse_run(obj, index: int, suites: dict[tuple, tuple]) -> RunRecord:
    """Validate run ``index``; ``suites`` interns the suites of one manifest's runs."""
    where = f"runs[{index}]"
    if not isinstance(obj, Mapping):
        raise ManifestError(f"{where} must be an object")
    if not obj.keys() <= _RUN_KEYS:
        _reject_unknown(obj, _RUN_KEYS, where)
    scores_obj = _get(obj, "scores", where)
    if not isinstance(scores_obj, list):
        raise ManifestError(f"field 'scores' in {where} must be a list")
    if (table := _scores_in_one_pass(scores_obj)) is None:  # a score is at fault: name it
        for i, s in enumerate(scores_obj):
            _parse_score(s, f"{where}.scores[{i}]")
    suite, values = table
    if suite not in suites:
        ids = suite[::3]
        if len(set(ids)) != len(ids):
            i = next(i for i, task_id in enumerate(ids) if task_id in ids[:i])
            raise ManifestError(f"{where}.scores[{i}]: task id {ids[i]!r} appears twice in {where}")
    suite = suites.setdefault(suite, suite)
    metadata: dict[str, str] = {}
    if "metadata" in obj:
        meta_obj = obj["metadata"]
        if not isinstance(meta_obj, Mapping):
            raise ManifestError(f"field 'metadata' in {where} must be an object")
        for key, value in meta_obj.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ManifestError(f"metadata in {where} must map strings to strings")
            metadata[key] = value
        if "clamp_warning" in metadata:  # the CLI prints it as a warning
            _check_writable(metadata["clamp_warning"], f"metadata 'clamp_warning' in {where}")
    source_id = _get_str(obj, "source_id", where)
    seed = _get_int(obj, "seed", where)
    steps = _get_int(obj, "steps", where)
    try:
        return RunRecord(source_id, seed, steps, suite, values, _ReadOnlyDict(metadata))
    except ValueError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


# The characters that move a JSON scan between states; numbers and
# literals hold none of them.
_JSON_STRUCTURE = re.compile(r'[{}\[\],"]')


def _line_column(text: str, at: int) -> str:
    line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    return f"line {line} column {column}"


def _reject_repeated_keys(text: str) -> None:
    """Raise for the first repeated key of ``text``, naming its line and column.

    Objects are checked as they close, in the order a parser closes them.
    ``text`` must be valid JSON up to the close of an object that repeats a
    key, or all valid JSON; then, if no key repeats, this returns.
    """
    # Per open container: an array's None, or an object's keys and the
    # offsets of its repeated keys.
    open_containers: list[tuple[set[str], list[tuple[str, int]]] | None] = []
    expect_key = False
    pos = 0
    while match := _JSON_STRUCTURE.search(text, pos):
        char, pos = match.group(), match.end()
        if char == '"':
            key, end = json.decoder.scanstring(text, pos)
            if expect_key:
                keys, repeats = open_containers[-1]
                if key in keys:
                    repeats.append((key, pos - 1))
                keys.add(key)
            expect_key = False
            pos = end
        elif char == "{":
            open_containers.append((set(), []))
            expect_key = True
        elif char == "[":
            open_containers.append(None)
            expect_key = False
        elif char == ",":
            expect_key = open_containers[-1] is not None
        else:
            closed = open_containers.pop()
            if closed is not None and closed[1]:
                key, at = closed[1][0]
                raise ManifestError(
                    f"manifest repeats the key {key!r} within one JSON object"
                    f" at {_line_column(text, at)}"
                )
            expect_key = False


def _escaped_quotes(text: str) -> int:
    """Quotes in ``text`` that an odd run of backslashes escapes."""
    return sum(len(m[1]) % 2 for m in re.finditer(r'(\\+)"', text)) if "\\" in text else 0


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ManifestError("manifest repeats a key within one JSON object")
    return obj


def _checked_loads(text: str):
    """Parse ``text`` with a hook that rejects a repeated key; errors are ManifestErrors.

    The hook sees each object as the parser closes it, so a repeated key
    is named before a JSON error, too deep a nesting or an integer literal
    past the digit limit only if its object closes first.
    """
    try:
        return json.loads(text, object_pairs_hook=_object_without_repeats)
    except ManifestError:  # from the hook, which knows no position
        _reject_repeated_keys(text)
        raise
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"manifest is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except RecursionError:
        raise ManifestError("manifest nests JSON arrays and objects too deeply to parse") from None
    except ValueError:  # only an integer literal past int()'s digit limit raises this
        pass
    # Its digits are the first run of more than the limit that is no part
    # of a float and lies outside every string: the text before it parsed,
    # so the unescaped quotes there pair up. Starting the pattern with a
    # digit lets the regex engine skip to digits.
    limit = sys.get_int_max_str_digits()
    digits = re.compile(rf"\d(?<![\d.eE+]\d)(?<![eE]-\d)\d{{{limit},}}(?![\d.eE])", re.ASCII)
    run = next(
        m for m in digits.finditer(text)
        if not (text.count('"', 0, m.start()) - _escaped_quotes(text[: m.start()])) % 2
    )
    at = run.start() - (text[run.start() - 1 : run.start()] == "-")
    raise ManifestError(
        f"manifest holds an integer of {len(run[0])} digits at"
        f" {_line_column(text, at)}, beyond the float range"
    )


def loads_manifest(text: str) -> RunSet:
    """Parse and fully validate manifest JSON from a string."""
    return _runset_from(_checked_loads(text))


def _runset_from(data) -> RunSet:
    """Validate parsed manifest JSON."""
    if not isinstance(data, Mapping):
        raise ManifestError("manifest root must be a JSON object")
    _reject_unknown(
        data, ["baseline_id", "training_model", "geometry", "sources", "runs"], "manifest"
    )
    baseline_id = _get_str(data, "baseline_id", "manifest")
    _check_writable(baseline_id, "baseline_id")

    model_obj = _object(_get(data, "training_model", "manifest"), "training_model", ["param_count"])
    param_count = _get_int(model_obj, "param_count", "training_model")
    training_model = _build(ModelSpec, "training_model", param_count)

    geometry = _parse_geometry(_get(data, "geometry", "manifest"), "geometry")

    sources_obj = _object(_get(data, "sources", "manifest"), "sources")
    sources = {sid: _parse_source(sid, s) for sid, s in sources_obj.items()}

    runs_obj = _get(data, "runs", "manifest")
    if not isinstance(runs_obj, list) or not runs_obj:
        raise ManifestError("runs must be a nonempty list")
    suites: dict[tuple, tuple] = {}
    runs = tuple(_parse_run(r, i, suites) for i, r in enumerate(runs_obj))

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
        sources=_ReadOnlyDict(sources),
        baseline_id=baseline_id,
        training_model=training_model,
        geometry=geometry,
    )


def _file_holds(path: str | Path, data: bytes) -> bool:
    """Whether the file holds exactly ``data``; it is read 1 MiB at a
    time, so no second copy of a large file is held while comparing."""
    block = bytearray(1 << 20)
    offset = 0
    with open(path, "rb") as file:
        while n := file.readinto(block):
            if not data.startswith(memoryview(block)[:n], offset):
                return False
            offset += n
    return offset == len(data)


# The bytes of the last manifest load_manifest parsed, and its RunSet.
_last_load: tuple[bytes, RunSet] | None = None


def load_manifest(path: str | Path) -> RunSet:
    """Load, parse, and fully validate a manifest JSON file.

    The file is read on every call and parsed only when its bytes differ
    from those of the last successful call, whose ``RunSet`` is returned
    otherwise.
    """
    global _last_load
    last = _last_load
    try:
        if last is not None and _file_holds(path, last[0]):
            return last[1]
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    _last_load = None  # the old RunSet is not kept alive through the parse
    try:  # decoded as Path.read_text(encoding="utf-8") decodes
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    runset = loads_manifest(text)
    _last_load = data, runset
    return runset


def _seed_means(
    runs: Sequence[RunRecord], columns: Sequence[int] | None = None
) -> tuple[float, ...]:
    """Each task's mean over seeds of one (source, steps), in the first seed's task order.

    ``columns`` keeps only the tasks at those indices of the first seed's
    suite, in that order, and averages no other; None keeps every task.
    Raises unless the runs share source, step count, task set and each
    task's metric, kept or not. A single run's values are returned
    untouched when every task is kept.
    """
    first = runs[0]
    rows = [first.values]
    for run in runs[1:]:
        if run.source_id != first.source_id:
            raise ManifestError(
                f"cannot average runs from different sources: {first.source_id!r} vs {run.source_id!r}"
            )
        if run.steps != first.steps:
            raise ManifestError(
                f"cannot average runs at different steps: {first.steps} vs {run.steps}"
            )
        if run.suite == first.suite:
            rows.append(run.values)
            continue
        mine = dict(zip(first.suite[::3], first.suite[1::3]))
        theirs = dict(zip(run.suite[::3], run.suite[1::3]))
        if mine.keys() != theirs.keys():
            diff = sorted(mine.keys() ^ theirs.keys())
            raise ManifestError(f"runs have mismatched task sets; differing tasks: {diff}")
        mixed = [t for t, metric in mine.items() if metric is not theirs[t]]
        if mixed:
            raise ManifestError(
                f"seeds {first.seed} and {run.seed} of ({first.source_id!r}, {first.steps})"
                f" score tasks {sorted(mixed)} with different metrics"
            )
        values = dict(zip(run.suite[::3], run.values))
        rows.append([values[t] for t in mine])
    if len(rows) == 1:
        return first.values if columns is None else tuple([first.values[c] for c in columns])
    per_task = list(zip(*rows))
    return tuple(map(anchored_mean, per_task if columns is None else [per_task[c] for c in columns]))


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
    seeds = ",".join(str(run.seed) for run in runs)
    return RunRecord(
        source_id=first.source_id,
        seed=AGGREGATE_SEED,
        steps=first.steps,
        suite=first.suite,
        values=_seed_means(runs),
        metadata={"averaged_seeds": seeds},
    )


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
    groups: dict[tuple[str, int], list[RunRecord]] = {}
    for run in runset.runs:
        groups.setdefault((run.source_id, run.steps), []).append(run)
    # Suite -> {task_id: metric} of its filtered tasks, their offsets in it
    # and their columns of a run's values (None when every task is kept).
    picked_by_suite: dict[tuple, tuple[dict[str, MetricKind], list[int], list[int] | None]] = {}

    def filtered(
        runs: list[RunRecord],
    ) -> tuple[dict[str, MetricKind], list[int], tuple[float, ...]]:
        """The filtered tasks' metrics, offsets in the suite and seed means."""
        if len(runs) > 1:
            runs.sort(key=lambda r: r.seed)
        suite = runs[0].suite
        if suite not in picked_by_suite:
            picked = [
                i for i in range(0, len(suite), 3)
                if task_filter is None or any(fnmatchcase(suite[i], p) for p in task_filter)
            ]
            columns = None if len(picked) * 3 == len(suite) else [i // 3 for i in picked]
            picked_by_suite[suite] = {suite[i]: suite[i + 1] for i in picked}, picked, columns
        metrics, picked, columns = picked_by_suite[suite]
        return metrics, picked, _seed_means(runs, columns)

    baseline_agg: dict[int, tuple[dict[str, MetricKind], TaskScore]] = {}
    for (source_id, steps), runs in groups.items():
        if source_id != runset.baseline_id:
            continue
        metrics, picked, means = filtered(runs)
        if not metrics:
            raise ManifestError(
                f"task filter {list(task_filter or [])} matches no baseline tasks at steps={steps}"
            )
        task_id, kind = next(iter(metrics.items()))
        odd = sorted(t for t, metric in metrics.items() if metric is not kind)
        if odd:
            raise ManifestError(
                f"baseline task suite at steps={steps} mixes metric kinds: tasks {odd}"
                f" are not scored with {kind.value} like {task_id!r}"
            )
        # A treated suite must match these metrics task by task, so it
        # cannot mix kinds either. The baseline's suite score, one per step
        # count, comes from aggregate_suite, whose calls perfbench's traced
        # run records; a treated group's value is taken below with the same
        # arithmetic.
        suite = runs[0].suite
        scores = [
            TaskScore(suite[i], suite[i + 1], mean, suite[i + 2]) for i, mean in zip(picked, means)
        ]
        baseline_agg[steps] = (metrics, aggregate_suite(scores))

    total_per_step, upsampled_per_step = tokens_per_step(runset.geometry)

    points = []
    for source_id, steps in sorted(key for key in groups if key[0] != runset.baseline_id):
        if steps not in baseline_agg:
            raise ManifestError(f"no baseline run at steps={steps} to pair with ({source_id!r}, {steps})")
        metrics, picked, means = filtered(groups[(source_id, steps)])
        if not metrics:
            raise ManifestError(
                f"task filter {list(task_filter or [])} matches no tasks for ({source_id!r}, {steps})"
            )
        baseline_metrics, baseline = baseline_agg[steps]
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
        value = means[0] if len(means) == 1 else anchored_mean(means)
        kind = baseline.metric
        delta = UtilityDelta(kind.improvement(baseline.value, value), kind, source_id)
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
