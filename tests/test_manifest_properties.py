"""Property tests of manifest validation.

A mutated manifest gives finite utility points or fails cleanly. Every
example starts from one valid manifest and applies one mutation: a
missing field, a value of the wrong JSON type, ``Infinity``/``NaN`` in a
number, an out-of-range score, a task suite that no longer matches the
baseline's, an integer literal beyond the float range in a number, one
score switched to another metric kind, a task id repeated within a run,
a geometry whose tokens per step fit a float but whose runs price
beyond it, a JSON object that repeats one of its keys, or one source's
step counts moved to two adjacent huge integers (distinct computes that
may share one ln). The library must then raise ``ManifestError`` or
return points whose compute and delta are all finite; fitting those
points must raise ``ValueError`` or give finite fits. ``annealplan fit``
must exit 1 with the library's message, or exit 0 printing only finite
numbers. The eight kinds in ``ALWAYS_INVALID`` are never valid, so they
must raise.

A run's scores are checked in one pass, with the per-field checks of
``_parse_score`` kept to build error messages. On score lists mixing
valid and faulty entries, the run parser must return what the per-field
checks build, or raise their first error, and take the one pass exactly
when every entry is valid.

Utility points come from a per-run score table. On multi-seed manifests
with shuffled runs and seeds, task order and ``n_examples`` differing
between seeds, every metric kind, ``--tasks`` globs and signed zeros,
they must equal, bit for bit, points built score by score with
``average_seeds``, the filter, ``aggregate_suite`` and ``utility_delta``.

A manifest's text is parsed once, by a parse whose hook rejects a
repeated key. On raw JSON text with a repeated key in any kind of object, a
``:`` inside a string (plain, escaped, or after an escaped quote), space
around the ``:`` between keys and values, and invalid JSON after a
repeated key, ``loads_manifest`` must give the same ``RunSet``, or the
same error, as an independent reference parse with an
``object_pairs_hook`` that names the repeated key as its object closes;
the line and column ``loads_manifest`` adds to a repeated-key error must
point at that key. Only a repeated key may cost the scan that finds its
position, and then one scan of the whole text.
"""

import contextlib
import copy
import csv
import io
import json
import math
import re
from fnmatch import fnmatchcase

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealplan.cli import main
from annealplan.costs import (
    SOURCE_FLOAT_FIELDS,
    CostBasis,
    SourceCostModel,
    tokens_per_step,
    total_cost,
)
from annealplan.manifest import (
    ManifestError,
    UtilityPoint,
    _parse_run,
    _runset_from,
    _parse_score,
    _scores_in_one_pass,
    average_seeds,
    build_utility_points,
    loads_manifest,
)
from annealplan.metrics import aggregate_suite, anchored_mean, utility_delta
from annealplan.scaling import fit_by_source
from annealplan.simulate import generate_manifest, scenario_rank_flip

from conftest import manifest_dict


def _base_manifest() -> dict:
    """Two sources over two step counts, so ``fit`` succeeds unmutated."""
    data = manifest_dict()
    data["sources"]["rephrased"] = {
        "kind": "rephrase",
        "generator_params": 3_000_000_000,
        "expansion_factor": 1.0,
        "annotator_training_flops": 1e18,
    }
    rephrased = copy.deepcopy(data["runs"][2])
    rephrased["source_id"] = "rephrased"
    data["runs"].append(rephrased)
    later = copy.deepcopy(data["runs"])
    for run in later:
        run["steps"] = 2000
        for score in run["scores"]:
            score["value"] -= 0.01 if run["source_id"] == "full_replay" else 0.05
    data["runs"] += later
    return data


BASE = _base_manifest()


def _paths(node, prefix=()):
    """Every (path to container, key) pair below ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _resolve(node, path):
    for key in path:
        node = node[key]
    return node


PATHS = list(_paths(BASE))
NUMBER_PATHS = [
    (path, key) for path, key in PATHS
    if type(_resolve(BASE, path)[key]) in (int, float)
]
OBJECT_PATHS = [(path, key) for path, key in PATHS if isinstance(_resolve(BASE, path), dict)]
SCORE_PATHS = [
    path + (key,) for path, key in PATHS
    if len(path) == 3 and path[0] == "runs" and path[2] == "scores"
]
ALWAYS_INVALID = (
    "non-finite", "score range", "suite", "huge integer", "metric", "duplicate task",
    "huge geometry", "duplicate key",
)
METRICS = ("accuracy", "brier", "exact_match")
REPEAT = "\x00repeat"  # no manifest key holds a control character
WRONG_TYPES = [None, True, "1", [1], {"x": 1}, 0.5, 3]
SCORE_OUT_OF_RANGE = st.one_of(
    st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
    st.floats(min_value=2.0, exclude_min=True, allow_infinity=False),
)


@st.composite
def mutated_manifests(draw) -> tuple[str, str]:
    """(mutation kind, manifest JSON text)."""
    data = copy.deepcopy(BASE)
    kind = draw(st.sampled_from(["missing", "wrong type", "huge steps", *ALWAYS_INVALID]))
    if kind == "missing":
        path, key = draw(st.sampled_from(PATHS))
        del _resolve(data, path)[key]
    elif kind == "wrong type":
        path, key = draw(st.sampled_from(PATHS))
        parent = _resolve(data, path)
        old = parent[key]
        parent[key] = draw(st.sampled_from([v for v in WRONG_TYPES if type(v) is not type(old)]))
    elif kind == "non-finite":
        path, key = draw(st.sampled_from(NUMBER_PATHS))
        _resolve(data, path)[key] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    elif kind == "score range":
        score = _resolve(data, draw(st.sampled_from(SCORE_PATHS)))
        score["value"] = draw(SCORE_OUT_OF_RANGE)
    elif kind == "huge integer":
        path, key = draw(st.sampled_from(NUMBER_PATHS))
        _resolve(data, path)[key] = draw(st.sampled_from([10**400, -(10**400)]))
    elif kind == "metric":
        # Every score lies in [0, 1], so any kind accepts its value.
        score = _resolve(data, draw(st.sampled_from(SCORE_PATHS)))
        score["metric"] = draw(st.sampled_from([m for m in METRICS if m != score["metric"]]))
    elif kind == "duplicate task":
        path = draw(st.sampled_from(SCORE_PATHS))
        scores = _resolve(data, path[:-1])
        if draw(st.booleans()):
            scores.append(copy.deepcopy(scores[path[-1]]))
        else:  # every run scores two tasks; rename one to the other
            scores[path[-1]]["task_id"] = scores[1 - path[-1]]["task_id"]
    elif kind == "huge geometry":
        # 1e300 tokens per step is a float, but 1000 steps of it priced
        # at any positive rate are not.
        data["geometry"]["batch_size"] = 10 ** draw(st.integers(300, 307))
        data["geometry"]["sequence_length"] = 1
    elif kind == "huge steps":
        # Baseline runs are copied to the new step counts, so only the
        # moved source can fail to fit.
        source = draw(st.sampled_from(sorted(s for s in data["sources"] if s != "full_replay")))
        low = draw(st.integers(2**53, 2**62))
        steps = {1000: low, 2000: low + draw(st.integers(1, 8))}
        for run in list(data["runs"]):
            if run["source_id"] == "full_replay":
                data["runs"].append(dict(copy.deepcopy(run), steps=steps[run["steps"]]))
            elif run["source_id"] == source:
                run["steps"] = steps[run["steps"]]
    elif kind == "duplicate key":
        # A dict cannot hold a key twice: write a copy of the entry under
        # a placeholder key and rename it in the text.
        path, key = draw(st.sampled_from(OBJECT_PATHS))
        parent = _resolve(data, path)
        parent[REPEAT] = copy.deepcopy(parent[key])
        return kind, json.dumps(data).replace(json.dumps(REPEAT), json.dumps(key))
    else:
        path = draw(st.sampled_from(SCORE_PATHS))
        scores = _resolve(data, path[:-1])
        if draw(st.booleans()):
            del scores[path[-1]]
        else:
            scores[path[-1]]["task_id"] = "mmlu_virology"
    # json.dumps writes non-finite floats as the Infinity/NaN that
    # json.loads accepts back.
    return kind, json.dumps(data)


def _run_fit(manifest_path, basis: CostBasis) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["fit", "--manifest", str(manifest_path), "--basis", basis.value])
    return code, out.getvalue(), err.getvalue()


def _csv_numbers_finite(text: str) -> bool:
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        for cell in row:
            try:
                number = float(cell)
            except ValueError:
                continue
            if not math.isfinite(number):
                return False
    return True


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "manifest.json"


def test_base_manifest_fits(manifest_path):
    manifest_path.write_text(json.dumps(BASE), encoding="utf-8")
    for basis in CostBasis:
        code, out, err = _run_fit(manifest_path, basis)
        assert code == 0, err
        assert out.count("\npoint,") == 4


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
)
@given(mutation=mutated_manifests(), basis=st.sampled_from(list(CostBasis)))
def test_mutation_fails_cleanly_or_gives_finite_points(manifest_path, mutation, basis):
    kind, text = mutation
    try:
        points = build_utility_points(loads_manifest(text), None, basis)
    except ManifestError as exc:
        error = exc
    else:
        assert kind not in ALWAYS_INVALID
        for point in points:
            assert math.isfinite(point.compute), point
            assert math.isfinite(point.delta.value), point
        # Valid points may still fail to fit (one point per source, one ln
        # of compute), but only with ValueError.
        try:
            fits = fit_by_source(points)
        except ValueError as exc:
            error = exc
        else:
            error = None
            for fit in fits:
                assert all(map(math.isfinite, (fit.intercept, fit.slope, fit.rmse))), fit

    manifest_path.write_text(text, encoding="utf-8")
    code, out, err = _run_fit(manifest_path, basis)
    if error is not None:
        assert (code, out, err) == (1, "", f"error: {error}\n")
    else:
        assert code == 0, err
        assert _csv_numbers_finite(out)


# Replacements for one field of a valid score entry that fail, or pass
# only as edge cases (an int value, n_examples of True).
FIELD_FAULTS = [
    ("value", st.booleans()),
    ("value", st.integers(-2, 3)),
    ("value", st.sampled_from([10**400, -(10**400), "0.5", math.nan, math.inf, -math.inf])),
    ("value", SCORE_OUT_OF_RANGE),
    ("metric", st.sampled_from(["vibes", None, 1])),
    ("task_id", st.sampled_from([None, 7])),
    ("n_examples", st.sampled_from([0, -3, True, 2.0, 10**400])),
]


@st.composite
def score_lists(draw) -> list:
    """One to five score entries, about a third of them faulty."""
    scores = []
    for i in range(draw(st.integers(1, 5))):
        score = {
            "task_id": f"t{i}",
            "metric": draw(st.sampled_from(METRICS)),
            "value": draw(st.floats(0.0, 1.0)),
            "n_examples": draw(st.integers(1, 10**6)),
        }
        fault = None
        if draw(st.integers(0, 2)) == 0:
            fault = draw(st.sampled_from(["missing key", "extra key", "non-object", *FIELD_FAULTS]))
        if fault == "missing key":
            del score[draw(st.sampled_from(sorted(score)))]
        elif fault == "extra key":
            score["stderr"] = 0.01
        elif fault == "non-object":
            score = draw(st.sampled_from([None, "score", 0.5, [], [["value", 0.5]]]))
        elif fault is not None:
            key, values = fault
            score[key] = draw(values)
        scores.append(score)
    return scores


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(scores=score_lists())
def test_one_pass_score_check_agrees_with_per_field_checks(scores):
    try:
        parsed = tuple(_parse_score(s, f"runs[3].scores[{i}]") for i, s in enumerate(scores))
    except ManifestError as exc:
        expected = str(exc)
    else:
        expected = parsed
    table = _scores_in_one_pass(scores)
    if isinstance(expected, str):
        assert table is None
    else:
        assert table == (
            tuple(x for s in parsed for x in (s.task_id, s.metric, s.n_examples)),
            tuple(s.value for s in parsed),
        )
    run = {"source_id": "s", "seed": 0, "steps": 10, "scores": scores}
    try:
        got = _parse_run(run, 3, {}).scores
    except ManifestError as exc:
        got = str(exc)
    assert got == expected
    if not isinstance(got, str):
        assert all(type(s.value) is float for s in got)


SUITE_TASKS = ["mmlu_anatomy", "mmlu_virology", "gsm8k", "pubmedqa"]
TASK_GLOBS = ["mmlu_*", "gsm8k*", "*", "pubmedqa", "*a*", "mmlu_[av]*", "none*"]
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def multi_seed_manifests(draw) -> tuple[str, list[str] | None]:
    """(manifest JSON text, task filter) with one to three seeds per group.

    Runs and seeds come in any order, each seed lists the tasks in its own
    order and with its own ``n_examples``, and some manifests hold only
    signed zeros, so single-seed, single-task groups carry ``-0.0`` through.
    """
    metric = draw(st.sampled_from(METRICS))
    tasks = draw(st.lists(st.sampled_from(SUITE_TASKS), min_size=1, max_size=4, unique=True))
    values = SIGNED_ZEROS if draw(st.integers(0, 3)) == 0 else st.floats(0.0, 1.0)
    steps_grid = draw(st.lists(st.integers(1, 40_000), min_size=1, max_size=3, unique=True))
    sources = {
        "full_replay": {"kind": "zero_cost"},
        "filt": {"kind": "mbf", "mbf_recall": 22.0, "annotator_per_token_flops": 2e8},
        "syn": {"kind": "synthetic", "generator_params": 3_000_000_000},
    }
    runs = []
    for source_id in draw(st.sampled_from([["full_replay", "filt"], list(sources)])):
        for steps in steps_grid:
            seeds = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
            for seed in seeds:
                scores = [
                    {"task_id": task, "metric": metric, "value": draw(values),
                     "n_examples": draw(st.integers(1, 500))}
                    for task in draw(st.permutations(tasks))
                ]
                runs.append({"source_id": source_id, "seed": seed, "steps": steps,
                             "scores": scores})
    data = {
        "baseline_id": "full_replay",
        "training_model": {"param_count": 7_000_000_000},
        "geometry": {"batch_size": 256, "sequence_length": 8192, "upsample_ratio": 0.1,
                     "epochs": 1.0},
        "sources": sources,
        "runs": draw(st.permutations(runs)),
    }
    task_filter = draw(st.none() | st.lists(st.sampled_from(TASK_GLOBS), min_size=1, max_size=2))
    return json.dumps(data), task_filter


def _reference_points(runset, task_filter, basis) -> list[UtilityPoint]:
    """Points built score by score: seed averages, filter, suite mean, delta, price."""
    baseline, treated = {}, {}
    for run in runset.runs:
        if run.source_id == runset.baseline_id:
            baseline.setdefault(run.steps, []).append(run)
        else:
            treated.setdefault((run.source_id, run.steps), []).append(run)

    def suite(runs):
        runs = sorted(runs, key=lambda r: r.seed)
        merged = average_seeds(runs)
        by_task = [{s.task_id: s.value for s in run.scores} for run in runs]
        assert [s.value for s in merged.scores] == [
            anchored_mean([values[s.task_id] for values in by_task]) for s in merged.scores
        ]
        if len(runs) == 1:
            assert merged.scores == runs[0].scores
        return aggregate_suite([
            s for s in merged.scores
            if task_filter is None or any(fnmatchcase(s.task_id, p) for p in task_filter)
        ])

    baselines = {steps: suite(runs) for steps, runs in baseline.items()}
    total, upsampled = tokens_per_step(runset.geometry)
    return [
        UtilityPoint(
            source_id=source_id,
            steps=steps,
            compute=total_cost(runset.sources[source_id], runset.geometry, steps * total,
                               runset.training_model, basis),
            tokens_upsampled=steps * upsampled,
            delta=utility_delta(baselines[steps], suite(runs), source_id=source_id),
            basis=basis,
        )
        for (source_id, steps), runs in sorted(treated.items())
    ]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=multi_seed_manifests(), basis=st.sampled_from(list(CostBasis)))
def test_points_equal_score_by_score_reference(case, basis):
    text, task_filter = case
    runset = loads_manifest(text)
    try:
        expected = _reference_points(runset, task_filter, basis)
    except ValueError:  # the filter matches no task
        with pytest.raises(ManifestError, match=r"task filter .* matches no baseline tasks"):
            build_utility_points(runset, task_filter, basis)
        return
    got = build_utility_points(runset, task_filter, basis)
    assert got == expected
    assert repr(got) == repr(expected)  # tells -0.0 from 0.0
    for point, want in zip(got, expected):
        assert (point.compute, point.delta.value) == (want.compute, want.delta.value)


def _outcome(load, arg):
    """What ``load(arg)`` returns, or the text of the ``ManifestError`` it raises."""
    try:
        return load(arg)
    except ManifestError as exc:
        return str(exc)


def _object_kind(path) -> str:
    """Which of the manifest's kinds of JSON object sits at ``path``."""
    if not path:
        return "root"
    if len(path) == 1:
        return path[0]  # training_model, geometry, sources
    if path[0] == "sources":
        return "source"
    return {2: "run", 3: "metadata", 4: "score"}[len(path)]


OBJECTS_BY_KIND: dict[str, list[tuple]] = {}
for _path, _key in OBJECT_PATHS:
    OBJECTS_BY_KIND.setdefault(_object_kind(_path), []).append((_path, _key))
# Quoted keys and string values of the base manifest that get a ':' inside.
COLON_SITES = ['"full_replay"', '"rephrased"', '"mmlu_anatomy"', '"1.515e-04"', '"start_lr"',
               '"scores"', '"brier"']


@st.composite
def raw_manifest_texts(draw) -> str:
    """Manifest JSON text with repeated keys, ':' in strings or invalid JSON."""
    data = copy.deepcopy(BASE)
    repeated = []
    for kind in draw(st.lists(st.sampled_from(sorted(OBJECTS_BY_KIND)), max_size=2)):
        path, key = draw(st.sampled_from(OBJECTS_BY_KIND[kind]))
        parent = _resolve(data, path)
        value = copy.deepcopy(parent[key])
        if draw(st.booleans()):
            value = draw(st.sampled_from(WRONG_TYPES))
        items = list(parent.items())
        placeholder = f"{REPEAT}{len(repeated)}"
        items.insert(draw(st.integers(0, len(items))), (placeholder, value))
        parent.clear()
        parent.update(items)
        repeated.append((placeholder, key))
    separators = draw(st.sampled_from([(", ", ": "), (",", ":"), (",", " : "), (",", ":\n")]))
    text = json.dumps(data, indent=draw(st.sampled_from([None, 1])), separators=separators)
    for placeholder, key in repeated:
        text = text.replace(json.dumps(placeholder), json.dumps(key) + draw(st.sampled_from(["", " "])))
    for site in draw(st.lists(st.sampled_from(COLON_SITES), max_size=2, unique=True)):
        colon = draw(st.sampled_from([":", "\\u003a", "\\u003A", '\\":']))
        at = draw(st.integers(1, len(site) - 1))
        text = text.replace(site, site[:at] + colon + site[at:], draw(st.sampled_from([1, -1])))
    if draw(st.integers(0, 3)) == 0:  # spoil the text after some point
        at = draw(st.integers(len(text) // 2, len(text)))
        text = text[:at] + draw(st.sampled_from(["", "}", ",", "]", "x", '{"a":1,"a":2}']))
    return text


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ManifestError(f"manifest repeats the key {key!r} within one JSON object")
            seen.add(key)
    return obj


def _checked_parse(text: str):
    """The reference: a hook rejects a repeated key as its object closes, then validation."""
    try:
        data = json.loads(text, object_pairs_hook=_object_without_repeats)
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"manifest is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    return _runset_from(data)


REPEAT_AT = re.compile(
    r"(manifest repeats the key .* within one JSON object) at line (\d+) column (\d+)"
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(text=raw_manifest_texts())
def test_parse_without_hook_agrees_with_checked_parse(text):
    # loads_manifest against the reference, whose hook names the key itself.
    got = _outcome(loads_manifest, text)
    if isinstance(got, str) and (repeat := REPEAT_AT.fullmatch(got)):
        # The hook knows no position; the one reported must hold the key.
        got, line, column = repeat.group(1), int(repeat.group(2)), int(repeat.group(3))
        at = sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + column - 1
        assert text[at] == '"'
        key, _ = json.decoder.scanstring(text, at + 1)
        assert got == f"manifest repeats the key {key!r} within one JSON object"
    assert got == _outcome(_checked_parse, text)


def _every_optional_field() -> dict:
    """A generated manifest whose sources and runs hold every optional field."""
    data = json.loads(generate_manifest(scenario_rank_flip(0)))
    data["sources"][data["baseline_id"]] = {
        "kind": "zero_cost", **{name: getattr(SourceCostModel, name) for name in SOURCE_FLOAT_FIELDS}
    }
    for source in data["sources"].values():
        if source["kind"] != "zero_cost":
            source.setdefault("generator_params", 3_000_000_000)
            for name in SOURCE_FLOAT_FIELDS:
                source.setdefault(name, 1.0)
    for run in data["runs"]:
        run["metadata"]["checkpoint"] = "gs://ckpt/step-1"
        run["metadata"]["started"] = "2024-05-01T12:00:00Z"
    return data


def test_checked_parse_runs_only_when_a_key_may_repeat(monkeypatch):
    calls = []
    monkeypatch.setattr("annealplan.manifest._reject_repeated_keys", calls.append)
    full = _every_optional_field()
    assert all(source.keys() >= {"kind", *SOURCE_FLOAT_FIELDS} for source in full["sources"].values())
    clean = json.dumps(BASE)
    colons = clean.replace('"rephrased"', '"re:phrased"').replace('"mmlu_anatomy"', '"bbh:date"')
    # The hooked parse rules out a repeated key, also around a ':' in a
    # string or a key's ':' after a space, and costs no scan.
    for text in (clean, json.dumps(BASE, indent=2), json.dumps(full), json.dumps(full, indent=2),
                 json.dumps(BASE, separators=(",", " : ")), colons,
                 json.dumps(full, separators=(",", " : ")),
                 clean.replace('"1.515e-04"', '"1.515e-04 \\":"'),
                 clean.replace('"1.515e-04"', '"1.515e-04 \\\\\\" :"'),
                 clean.replace('"1.515e-04"', '":1.515e-04"')):
        assert loads_manifest(text) == _checked_parse(text)
        assert calls == []
    # Nor does a JSON error, too deep a nesting, or an integer past the
    # digit limit, with or without a JSON error after it.
    long_seed = clean.replace('"seed": 1', '"seed": ' + "7" * 5000, 1)
    assert long_seed != clean
    for text, message in ((clean[:-1], "manifest is not valid JSON: Expecting ',' delimiter"),
                          ("[" * 100_000, "manifest nests JSON arrays and objects too deeply"),
                          (long_seed, "manifest holds an integer of 5000 digits"),
                          (long_seed + "x", "manifest holds an integer of 5000 digits")):
        with pytest.raises(ManifestError, match=message):
            loads_manifest(text)
        assert calls == []
    # A repeated key is scanned for once, in the whole text, with or
    # without a ':' in a string, space before a key's ':' or a key whose
    # closing quote follows an escaped backslash. The stubbed scan names
    # nothing, so the hook's own error stands.
    hook_error = "manifest repeats a key within one JSON object"
    for text in (clean.replace('"epochs"', '"epochs": 2, "epochs"'),
                 colons.replace('"epochs"', '"epochs" : 2, "epochs"'),
                 colons.replace('"start_lr"', '"start_lr\\\\"', 1)
                 .replace('"epochs"', '"epochs": 2, "epochs"')):
        with pytest.raises(ManifestError, match=hook_error):
            loads_manifest(text)
        assert calls == [text]
        calls.clear()
    # A wrong-typed field (an object among them) costs no scan unless a key repeats.
    for seed in ("0", {"x": 1, "y:": [{"z": None}]}):
        wrong = copy.deepcopy(full)
        wrong["runs"][-1]["seed"] = seed
        for text in (json.dumps(wrong), json.dumps(wrong, indent=2),
                     json.dumps(wrong, separators=(",", " : "))):
            with pytest.raises(ManifestError, match=r"field 'seed' in runs\[\d+\] must be an integer"):
                loads_manifest(text)
            assert calls == []
        text = json.dumps(wrong).replace('"epochs"', '"epochs": 2, "epochs"')
        with pytest.raises(ManifestError, match=hook_error):
            loads_manifest(text)
        assert calls == [text]
        calls.clear()


def test_every_text_is_parsed_once(monkeypatch):
    loads = json.loads
    texts = []

    def counting_loads(text, **kwargs):
        texts.append(text)
        return loads(text, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    clean = json.dumps(BASE)
    wrong = copy.deepcopy(BASE)
    wrong["runs"][-1]["seed"] = "0"
    for text, error in ((clean, None),
                        (json.dumps(wrong), r"field 'seed' in runs\[\d+\] must be an integer"),
                        (clean.replace('"epochs"', '"epochs": 2, "epochs"'), "repeats the key 'epochs'"),
                        (clean.replace('"1.515e-04"', '":1.515e-04"'), None)):
        with pytest.raises(ManifestError, match=error) if error else contextlib.nullcontext():
            loads_manifest(text)
        assert texts == [text]
        texts.clear()
