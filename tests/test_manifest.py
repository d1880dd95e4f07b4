import copy
import dataclasses
import json
import math
import os
import pickle
import sys

import pytest

from annealplan import manifest
from annealplan.cli import main
from annealplan.costs import (
    AnnealingGeometry,
    CostBasis,
    ModelSpec,
    SourceCostModel,
    SourceKind,
    total_cost,
)
from annealplan.manifest import (
    AGGREGATE_SEED,
    ManifestError,
    RunRecord,
    average_seeds,
    build_utility_points,
    load_manifest,
    loads_manifest,
)
from annealplan.metrics import MetricKind

from conftest import manifest_dict

GEOM = AnnealingGeometry(256, 8192, 0.1)


def _assert_too_deep_from_one_depth_on(cases):
    """Check that each (inner, message) case, nested in d arrays, gives its
    message for every d below one threshold and "too deeply" from it on."""
    too_deep = "manifest nests JSON arrays and objects too deeply to parse"
    limit = sys.getrecursionlimit()
    for inner, message in cases:
        got = []
        for depth in range(1, limit + 10):
            with pytest.raises(ManifestError) as info:
                loads_manifest("[" * depth + inner + "]" * depth)
            got.append(str(info.value))
        threshold = got.index(too_deep) + 1
        expected = [
            message.format(literal_at=depth + 1, key_at=depth + 10) if depth < threshold
            else too_deep
            for depth in range(1, limit + 10)
        ]
        assert got == expected
        assert limit // 2 < threshold <= limit


class TestLoadManifest:
    def test_minimal_manifest(self, write_manifest):
        runset = load_manifest(write_manifest(manifest_dict()))
        assert len(runset.runs) == 3
        assert runset.baseline_id == "full_replay"
        assert runset.training_model.param_count == 7e9
        assert runset.sources["med_filter"].kind is SourceKind.MBF
        # The baseline gets an implicit zero-cost model.
        assert runset.sources["full_replay"].kind is SourceKind.ZERO_COST

    def test_runs_with_one_suite_share_it(self, write_manifest):
        first, second, treated = load_manifest(write_manifest(manifest_dict())).runs
        assert first.suite is second.suite is treated.suite
        assert first.suite == (
            "mmlu_anatomy", MetricKind.BRIER, 135, "mmlu_college_biology", MetricKind.BRIER, 144
        )
        assert (first.values, treated.values) == ((0.50, 0.60), (0.45, 0.55))
        assert [(s.task_id, s.value, s.n_examples) for s in treated.scores] == [
            ("mmlu_anatomy", 0.45, 135), ("mmlu_college_biology", 0.55, 144)
        ]

    def test_missing_baseline_runs(self, write_manifest):
        data = manifest_dict()
        data["runs"] = [r for r in data["runs"] if r["source_id"] != "full_replay"]
        with pytest.raises(ManifestError, match="baseline runs not found"):
            load_manifest(write_manifest(data))

    def test_duplicate_run_key(self, write_manifest):
        data = manifest_dict()
        data["runs"].append(data["runs"][-1])
        with pytest.raises(ManifestError, match=r"\('med_filter', 0, 1000\)"):
            load_manifest(write_manifest(data))

    def test_unknown_top_level_field(self, write_manifest):
        data = manifest_dict()
        data["surprise"] = 1
        with pytest.raises(ManifestError, match="surprise"):
            load_manifest(write_manifest(data))

    def test_unknown_run_field(self, write_manifest):
        data = manifest_dict()
        data["runs"][0]["geometry"] = {}
        with pytest.raises(ManifestError, match="geometry"):
            load_manifest(write_manifest(data))

    def test_unknown_source_kind(self, write_manifest):
        data = manifest_dict()
        data["sources"]["med_filter"]["kind"] = "telepathy"
        with pytest.raises(ManifestError, match="telepathy"):
            load_manifest(write_manifest(data))

    def test_unknown_metric(self, write_manifest):
        data = manifest_dict()
        data["runs"][0]["scores"][0]["metric"] = "vibes"
        with pytest.raises(ManifestError, match="vibes"):
            load_manifest(write_manifest(data))

    def test_score_out_of_range(self, write_manifest):
        data = manifest_dict()
        data["runs"][0]["scores"][0]["value"] = 2.5
        with pytest.raises(ManifestError, match="range"):
            load_manifest(write_manifest(data))

    def test_treated_source_without_cost_model(self, write_manifest):
        data = manifest_dict()
        data["sources"] = {}
        with pytest.raises(ManifestError, match="med_filter"):
            load_manifest(write_manifest(data))

    def test_baseline_cost_model_must_be_zero_cost(self, write_manifest):
        data = manifest_dict()
        data["sources"]["full_replay"] = {"kind": "mbf", "mbf_recall": 2.0}
        with pytest.raises(ManifestError, match="zero_cost"):
            load_manifest(write_manifest(data))

    def test_parse_error_reports_position(self):
        with pytest.raises(ManifestError, match=r"line 1 column"):
            loads_manifest("{not json}")

    @pytest.mark.parametrize(
        "first, repeated, key",
        [
            ('"value": 0.45', '"value": 0.45, "value": 0.95', "value"),
            ('"med_filter": {',
             '"med_filter": {"kind": "zero_cost"}, "med_filter": {',
             "med_filter"),
        ],
        ids=["score value", "source"],
    )
    def test_repeated_json_key_rejected(self, write_manifest, capsys, first, repeated, key):
        # json.loads alone keeps the last of two equal keys, so the first
        # value would be dropped without a word.
        manifest = write_manifest(manifest_dict())
        text = manifest.read_text(encoding="utf-8")
        assert text.count(first) == 1
        text = text.replace(first, repeated)
        manifest.write_text(text, encoding="utf-8")
        at = text.index(repeated) + repeated.rindex(f'"{key}"')
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        message = (
            f"manifest repeats the key {key!r} within one JSON object"
            f" at line {line} column {column}"
        )
        with pytest.raises(ManifestError) as info:
            load_manifest(manifest)
        assert str(info.value) == message
        assert main(["fit", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_repeated_key_position_follows_the_parser(self):
        # The parser rejects the inner object first, as it closes first;
        # the quoted comma and brace must not derail the position scan.
        text = '{"a": [{"s": "x,{"}, {"b": 1,\n "c": {}, "b": 2}], "a": 3}'
        with pytest.raises(ManifestError) as info:
            loads_manifest(text)
        assert str(info.value) == (
            "manifest repeats the key 'b' within one JSON object at line 2 column 11"
        )

    def test_repeat_in_a_closed_object_beats_a_later_json_error(self):
        # The tab in the last string is invalid JSON, but the inner object
        # closed with its repeated key before the parser reached it.
        with pytest.raises(ManifestError) as info:
            loads_manifest('{"a": {"b": 1, "b": 2}, "c": "x\ty"}')
        assert str(info.value) == (
            "manifest repeats the key 'b' within one JSON object at line 1 column 16"
        )

    def test_json_error_beats_a_repeat_in_an_open_object(self):
        with pytest.raises(ManifestError) as info:
            loads_manifest('{"a": 1, "a": "x\ty"}')
        assert str(info.value) == (
            "manifest is not valid JSON: Invalid control character at at line 1 column 17"
        )

    @pytest.mark.parametrize(
        "tail", ["", "]" * 100_001, '{["a"'], ids=["open", "one closer too many", "array in object"]
    )
    def test_deep_nesting_fails_cleanly(self, tmp_path, capsys, tail):
        # Past the recursion limit json.loads raises RecursionError, which
        # the CLI would report as an internal error (exit 2).
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + tail, encoding="utf-8")
        with pytest.raises(ManifestError, match="nests JSON arrays and objects too deeply"):
            load_manifest(path)
        assert main(["fit", "--manifest", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: manifest nests JSON")
        # An object that closed with a repeated key before the nesting
        # went too deep is still named first.
        with pytest.raises(ManifestError, match="repeats the key 'a'.* line 1 column 11"):
            loads_manifest('[{"a": 1, "a": 2}, ' + "[" * 100_000)
        # One the parser never reached, past the depth it gave up at, is not
        # checked, as one after a JSON error is not.
        with pytest.raises(ManifestError) as info:
            loads_manifest("[" * 100_000 + '{"a": 1, "a": 2}')
        assert str(info.value) == "manifest nests JSON arrays and objects too deeply to parse"

    def test_object_reads_too_deep_from_one_depth_on(self):
        # One parse reads every text, so an object's own error (a field
        # error, or a repeated key) stands at every depth below some
        # threshold near the recursion limit, and "too deeply" from it on.
        _assert_too_deep_from_one_depth_on([
            ('{"a": 1}', "manifest root must be a JSON object"),
            ('{"a": 1, "a": 2}', "manifest repeats the key 'a' within one JSON object"
                                 " at line 1 column {key_at}"),
        ])

    def test_integer_past_the_digit_limit_reads_too_deep_from_one_depth_on(self):
        # As above for a long literal. A repeated key whose object closes
        # before the literal is still named first, and one after it is not.
        literal = "7" * 5000
        _assert_too_deep_from_one_depth_on([
            (literal, "manifest holds an integer of 5000 digits at line 1 column {literal_at},"
                      " beyond the float range"),
            (literal + ', {"a": 1, "a": 2}', "manifest holds an integer of 5000 digits"
                                             " at line 1 column {literal_at}, beyond the float range"),
            ('{"a": 1, "a": 2}, ' + literal, "manifest repeats the key 'a' within one JSON"
                                             " object at line 1 column {key_at}"),
        ])

    def test_integer_past_the_digit_limit_names_its_position(self, tmp_path, capsys):
        # int() refuses a literal of more than 4,300 digits, so json.loads
        # raises a plain ValueError that names neither field nor position.
        # Digits in a string and in a float's fraction come first and are
        # not that literal.
        data = manifest_dict()
        data["baseline_id"] = "9" * 5000
        text = json.dumps(data, indent=1).replace('"mbf_recall": 22.0', '"mbf_recall": 22.' + "0" * 5000)
        text = text.replace('"seed": 1', '"seed": -' + "7" * 5000)
        at = text.index("-777")
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        message = (
            f"manifest holds an integer of 5000 digits at line {line} column {column},"
            " beyond the float range"
        )
        path = tmp_path / "long.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert str(info.value) == message
        assert main(["fit", "--manifest", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        # A repeated key in an object that closed before the literal is named first.
        with pytest.raises(ManifestError, match="repeats the key 'b'.* line 1 column 16"):
            loads_manifest('{"a": {"b": 1, "b": 2}, "c": ' + "1" * 5000 + "}")
        with pytest.raises(ManifestError, match="integer of 5000 digits at line 1 column 15"):
            loads_manifest('{"a": 1, "a": ' + "1" * 5000 + "}")

    def test_integer_past_the_digit_limit_costs_no_scan(self, monkeypatch):
        # Only a repeated key costs the scan, also with a JSON error after
        # the literal. The literal's digits come first in a string, after
        # an escaped quote, and in a float's fraction.
        calls = []
        monkeypatch.setattr("annealplan.manifest._reject_repeated_keys", calls.append)
        data = manifest_dict()
        data["baseline_id"] = 'a"' + "7" * 5000
        text = json.dumps(data).replace('"seed": 1', '"seed": ' + "7" * 5000)
        text = text.replace('"mbf_recall": 22.0', '"mbf_recall": 22.' + "7" * 5000)
        at = text.index(": 777") + 2
        message = (
            f"manifest holds an integer of 5000 digits at line 1 column {at + 1},"
            " beyond the float range"
        )
        for tail in ("", "x"):
            with pytest.raises(ManifestError) as info:
                loads_manifest(text + tail)
            assert (str(info.value), calls) == (message, [])

    @pytest.mark.parametrize(("text", "column"), [
        # The parser's number ends at the last ASCII digit; U+0663 is a
        # digit to a Unicode regex, but not to JSON.
        ('{"a": ' + "7" * 5000 + "\u0663}", 7),
        # The '-' before the text's first character is its last one.
        ("7" * 5000 + "-", 1),
    ])
    def test_integer_past_the_digit_limit_next_to_odd_characters(self, text, column):
        with pytest.raises(ManifestError) as info:
            loads_manifest(text)
        assert str(info.value) == (
            f"manifest holds an integer of 5000 digits at line 1 column {column},"
            " beyond the float range"
        )

    def test_manifest_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"baseline_id": "caf\xe9"}')
        message = (
            f"cannot read manifest {path}: 'utf-8' codec can't decode byte 0xe9 in position 20:"
            " invalid continuation byte"
        )
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert str(info.value) == message
        assert main(["fit", "--manifest", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bool_not_accepted_as_int(self, write_manifest):
        data = manifest_dict()
        data["runs"][0]["steps"] = True
        with pytest.raises(ManifestError, match="steps"):
            load_manifest(write_manifest(data))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read"):
            load_manifest(tmp_path / "nope.json")

    def test_nonpositive_steps(self, write_manifest):
        data = manifest_dict()
        data["runs"][0]["steps"] = 0
        with pytest.raises(ManifestError, match="steps"):
            load_manifest(write_manifest(data))

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize(
        "field",
        [
            "epochs",
            "expansion_factor",
            "annotator_per_token_flops",
            "annotator_training_flops",
            "mbf_recall",
        ],
    )
    def test_non_finite_number_names_field(self, write_manifest, field, value):
        data = manifest_dict()
        # A rephrase source with a generator accepts every cost field, so
        # only the value's finiteness can reject it.
        source = {"kind": "rephrase", "generator_params": 3_000_000_000, "expansion_factor": 1.0}
        data["sources"]["med_filter"] = source
        (data["geometry"] if field == "epochs" else source)[field] = value
        with pytest.raises(ManifestError, match=field):
            load_manifest(write_manifest(data))

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    @pytest.mark.parametrize(
        "path",
        [
            ("geometry", "batch_size"),
            ("training_model", "param_count"),
            ("runs", 0, "scores", 1, "value"),
        ],
        ids=lambda path: ".".join(map(str, path)),
    )
    def test_integer_beyond_float_range_names_field(self, write_manifest, capsys, path, sign):
        # A JSON integer literal of 401 digits: float() of it overflows.
        data = manifest_dict()
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = sign * 10**400
        manifest = write_manifest(data)
        message = f"field {path[-1]!r} in .* is beyond the float range, got an integer of 401 digits"
        with pytest.raises(ManifestError, match=message):
            load_manifest(manifest)
        assert main(["fit", "--manifest", str(manifest)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and path[-1] in err

    @pytest.mark.parametrize(
        "path, where",
        [
            (("geometry", "batch_size"), "geometry"),
            (("training_model", "param_count"), "training_model"),
            (("runs", 0, "seed"), "runs[0]"),
            (("runs", 0, "scores", 1, "value"), "runs[0].scores[1]"),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v,
    )
    def test_missing_field_named_once(self, write_manifest, capsys, path, where):
        data = manifest_dict()
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        manifest = write_manifest(data)
        message = f"missing field {path[-1]!r} in {where}"
        with pytest.raises(ManifestError) as info:
            load_manifest(manifest)
        assert str(info.value) == message
        assert main(["fit", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_nonpositive_generator_params_names_source(self, write_manifest, capsys):
        data = manifest_dict()
        data["sources"]["med_filter"] = {"kind": "synthetic", "generator_params": 0}
        manifest = write_manifest(data)
        message = "sources['med_filter'].generator_params: param_count must be positive, got 0"
        with pytest.raises(ManifestError) as info:
            load_manifest(manifest)
        assert str(info.value) == message
        assert main(["fit", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda d: d.update(geometry=[256]), "geometry must be an object"),
            (lambda d: d["geometry"].update(depth=3), "unknown field(s) ['depth'] in geometry"),
            (lambda d: d["geometry"].update(batch_size=0),
             "geometry: batch_size must be positive, got 0"),
            (lambda d: d.update(training_model=7), "training_model must be an object"),
            (lambda d: d["training_model"].update(layers=32),
             "unknown field(s) ['layers'] in training_model"),
            (lambda d: d["training_model"].update(param_count=0),
             "training_model: param_count must be positive, got 0"),
            (lambda d: d["sources"].update(med_filter="mbf"),
             "sources['med_filter'] must be an object"),
            (lambda d: d["sources"]["med_filter"].update(recall=22.0),
             "unknown field(s) ['recall'] in sources['med_filter']"),
            (lambda d: d["sources"]["med_filter"].update(mbf_recall=0.5),
             "sources['med_filter']: mbf_recall must be >= 1, got 0.5"),
            (lambda d: d["sources"]["med_filter"].update(kind="telepathy"),
             "sources['med_filter']: unknown kind 'telepathy';"
             " expected one of ['mbf', 'rephrase', 'synthetic', 'zero_cost']"),
            (lambda d: d["sources"].update(med_filter={"kind": "synthetic", "generator_params": 0}),
             "sources['med_filter'].generator_params: param_count must be positive, got 0"),
            (lambda d: d["sources"].update(med_filter={"kind": "rephrase"}),
             "sources['med_filter']: kind rephrase requires a generator model (generator_params)"),
            (lambda d: d.update(sources=[]), "sources must be an object"),
            (lambda d: d["runs"][0]["scores"].__setitem__(0, 0.5),
             "runs[0].scores[0] must be an object"),
            (lambda d: d["runs"][0]["scores"][0].update(stderr=0.01),
             "unknown field(s) ['stderr'] in runs[0].scores[0]"),
            (lambda d: d["runs"][0]["scores"][0].update(metric="vibes"),
             "runs[0].scores[0]: unknown metric 'vibes';"
             " expected one of ['accuracy', 'brier', 'exact_match']"),
            (lambda d: d["runs"][0]["scores"][0].update(value=2.5),
             "runs[0].scores[0]: brier value 2.5 outside valid range [0.0, 2.0]"
             " for task 'mmlu_anatomy'"),
            (lambda d: d["runs"][0]["scores"][0].update(n_examples=0),
             "runs[0].scores[0]: n_examples must be positive, got 0"),
            (lambda d: d["runs"][0].update(steps=0), "runs[0]: steps must be positive, got 0"),
        ],
        ids=[
            "geometry-not-object", "geometry-unknown-field", "geometry-constructor",
            "training_model-not-object", "training_model-unknown-field",
            "training_model-constructor", "source-not-object", "source-unknown-field",
            "source-constructor", "source-kind", "generator_params", "generator-missing",
            "sources-not-object",
            "score-not-object", "score-unknown-field", "score-metric", "score-range",
            "score-n_examples", "run-steps",
        ],
    )
    def test_object_enum_and_constructor_messages(self, write_manifest, capsys, fault, message):
        data = manifest_dict()
        fault(data)
        manifest = write_manifest(data)
        with pytest.raises(ManifestError) as info:
            load_manifest(manifest)
        assert str(info.value) == message
        assert main(["fit", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_mbf_recall_below_one_names_source(self, write_manifest, capsys):
        # A negative recall would lower the price of every point of a rephrase source.
        data = manifest_dict()
        data["sources"]["med_filter"] = {
            "kind": "rephrase",
            "generator_params": 3_000_000_000,
            "mbf_recall": -1.0,
            "annotator_per_token_flops": 2e8,
        }
        manifest = write_manifest(data)
        message = "sources['med_filter']: mbf_recall must be >= 1, got -1.0"
        with pytest.raises(ManifestError) as info:
            load_manifest(manifest)
        assert str(info.value) == message
        assert main(["fit", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_tokens_per_step_beyond_float_range(self, write_manifest, capsys):
        # Each factor fits a float; their product does not.
        data = manifest_dict()
        data["geometry"]["batch_size"] = 10**300
        data["geometry"]["sequence_length"] = 10**300
        manifest = write_manifest(data)
        message = "geometry: batch_size * sequence_length is beyond the float range"
        with pytest.raises(ManifestError) as info:
            load_manifest(manifest)
        assert str(info.value) == message
        assert main(["fit", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_duplicate_task_id_in_multi_seed_run(self, write_manifest):
        data = manifest_dict()
        data["runs"][0]["scores"][1]["task_id"] = "mmlu_anatomy"
        with pytest.raises(ManifestError) as info:
            load_manifest(write_manifest(data))
        assert str(info.value) == "runs[0].scores[1]: task id 'mmlu_anatomy' appears twice in runs[0]"

    def test_duplicate_task_id_in_single_seed_run(self, write_manifest):
        # Counted twice, the task would give delta mean(0.5, 0.9) - mean(0.4, 0.9) = 0.05.
        data = manifest_dict()
        del data["runs"][1]
        for run, value in zip(data["runs"], [0.5, 0.4]):
            run["scores"] = [
                {"task_id": "t", "metric": "brier", "value": v, "n_examples": 100}
                for v in (value, 0.9)
            ]
        with pytest.raises(ManifestError, match=r"runs\[0\]\.scores\[1\]: task id 't'"):
            load_manifest(write_manifest(data))

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\n", "\x1f", "\x7f", "\x80", "\x9b",
                                      "\x9f", "\ud800", "\udfff", "\ufffe", "\uffff"])
    def test_unwritable_source_id(self, write_manifest, capsys, char):
        data = manifest_dict()
        source_id = f"a{char}b"
        data["sources"] = {source_id: data["sources"].pop("med_filter")}
        data["runs"][2]["source_id"] = source_id
        manifest = write_manifest(data)
        message = (
            f"sources key {source_id!r} contains U+{ord(char):04X}, which cannot be written out"
        )
        with pytest.raises(ManifestError) as info:
            load_manifest(manifest)
        assert str(info.value) == message
        assert main(["fit", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unwritable_baseline_id(self, write_manifest):
        data = manifest_dict()
        data["baseline_id"] = "replay\ud83d"
        for run in data["runs"][:2]:
            run["source_id"] = "replay\ud83d"
        with pytest.raises(ManifestError) as info:
            load_manifest(write_manifest(data))
        assert str(info.value) == (
            "baseline_id 'replay\\ud83d' contains U+D83D, which cannot be written out"
        )

    def test_unwritable_clamp_warning(self, write_manifest, capsys):
        # fit prints a run's clamp warning to stderr, so a line break or an
        # escape sequence in it could forge a line of output.
        data = manifest_dict()
        note = "ok\nerror: forged line\u001b[31m"
        data["runs"][2]["metadata"] = {"clamp_warning": note}
        manifest = write_manifest(data)
        message = (
            f"metadata 'clamp_warning' in runs[2] {note!r} contains U+000A,"
            " which cannot be written out"
        )
        with pytest.raises(ManifestError) as info:
            load_manifest(manifest)
        assert str(info.value) == message
        assert main(["fit", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_del_and_c1_controls_in_clamp_warning(self, write_manifest, capsys):
        # U+009B is CSI on a terminal that reads 8-bit C1 codes.
        data = manifest_dict()
        note = "ok\u009b2K\u007fx"
        data["runs"][2]["metadata"] = {"clamp_warning": note}
        message = (
            f"metadata 'clamp_warning' in runs[2] {note!r} contains U+009B,"
            " which cannot be written out"
        )
        assert main(["fit", "--manifest", str(write_manifest(data))]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_ascii_source_id_accepted(self, write_manifest):
        data = manifest_dict()
        data["sources"] = {"m\u00e9d \U0001f50d": data["sources"].pop("med_filter")}
        data["runs"][2]["source_id"] = "m\u00e9d \U0001f50d"
        assert "m\u00e9d \U0001f50d" in load_manifest(write_manifest(data)).sources

    @pytest.mark.parametrize("change", [
        lambda m: m.__setitem__("start_lr", "0"), lambda m: m.__delitem__("start_lr"),
        lambda m: m.update(start_lr="0"), lambda m: m.setdefault("end_lr", "0"),
        lambda m: m.pop("start_lr"), lambda m: m.popitem(), lambda m: m.clear(),
        lambda m: m.__ior__({"start_lr": "0"}),
    ])
    def test_loaded_mappings_are_read_only(self, write_manifest, change):
        runset = load_manifest(write_manifest(manifest_dict()))
        for mapping in (runset.runs[2].metadata, runset.sources):
            with pytest.raises(TypeError, match="a parsed manifest's mappings are read-only"):
                change(mapping)
        assert runset.runs[2].metadata == {"start_lr": "1.515e-04"}
        assert list(runset.sources) == ["med_filter", "full_replay"]

    def test_loaded_runset_pickles_and_copies(self, write_manifest):
        runset = load_manifest(write_manifest(manifest_dict()))
        for copied in (pickle.loads(pickle.dumps(runset)), copy.deepcopy(runset)):
            assert copied == runset
            with pytest.raises(TypeError):
                copied.sources["other"] = copied.sources["med_filter"]
        metadata = dataclasses.asdict(runset)["runs"][2]["metadata"]
        assert metadata == {"start_lr": "1.515e-04"}

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_newlines_are_read_as_read_text_reads_them(self, tmp_path, newline):
        # A repeated key is named by line and column, which count "\n".
        text = json.dumps(manifest_dict(), indent=1).replace('"runs"', '"baseline_id": "x",\n"runs"')
        path = tmp_path / "newlines.json"
        path.write_bytes(text.replace("\n", newline).encode())
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        with pytest.raises(ManifestError) as expected:
            loads_manifest(text)
        assert "line" in str(info.value) and str(info.value) == str(expected.value)


class TestLoadManifestCache:
    """load_manifest parses each distinct content once; loads_manifest always parses."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The texts load_manifest hands to loads_manifest, from an empty slot on."""
        texts = []
        loads = manifest.loads_manifest

        def counting(text):
            texts.append(text)
            return loads(text)

        monkeypatch.setattr(manifest, "_last_load", None)
        monkeypatch.setattr(manifest, "loads_manifest", counting)
        return texts

    def test_unchanged_bytes_give_the_same_runset(self, parses, write_manifest):
        runset = load_manifest(write_manifest(manifest_dict()))
        assert load_manifest(write_manifest(manifest_dict())) is runset
        assert load_manifest(write_manifest(manifest_dict(), "copy.json")) is runset
        assert len(parses) == 1
        assert loads_manifest(parses[0]) is not loads_manifest(parses[0])

    def test_new_bytes_under_the_old_size_and_mtime_are_parsed(self, parses, write_manifest):
        data = manifest_dict()
        path = write_manifest(data)
        old = os.stat(path)
        assert load_manifest(path).runs[2].values == (0.45, 0.55)
        data["runs"][2]["scores"][0]["value"] = 0.46
        write_manifest(data)
        os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns))
        new = os.stat(path)
        assert (new.st_size, new.st_mtime_ns) == (old.st_size, old.st_mtime_ns)
        assert load_manifest(path).runs[2].values == (0.46, 0.55)
        assert len(parses) == 2

    def test_a_longer_or_shorter_file_is_parsed(self, parses, tmp_path):
        text = json.dumps(manifest_dict())
        path = tmp_path / "manifest.json"
        for content in (text, text + "\n", text):
            path.write_text(content, encoding="utf-8")
            load_manifest(path)
        assert parses == [text, text + "\n", text]

    def test_a_change_past_the_first_mebibyte_is_seen(self, parses, tmp_path):
        # Trailing whitespace is valid JSON; the file spans three read blocks.
        text = json.dumps(manifest_dict()) + " " * (2 << 20)
        path = tmp_path / "manifest.json"
        path.write_text(text, encoding="utf-8")
        runset = load_manifest(path)
        assert load_manifest(path) is runset
        path.write_text(text[: 3 << 19] + "\n" + text[(3 << 19) + 1:], encoding="utf-8")
        assert load_manifest(path) == runset
        assert len(parses) == 2

    def test_a_missing_file_is_named_also_after_a_load(self, parses, write_manifest, tmp_path):
        missing = tmp_path / "missing.json"
        messages = []
        for _ in range(2):
            with pytest.raises(ManifestError) as info:
                load_manifest(missing)
            messages.append(str(info.value))
            load_manifest(write_manifest(manifest_dict()))
        assert messages == [
            f"cannot read manifest {missing}: [Errno 2] No such file or directory: '{missing}'"
        ] * 2

    def test_one_slot(self, parses, write_manifest):
        data = manifest_dict()
        a = write_manifest(data, "a.json")
        data["runs"][2]["seed"] = 5
        b = write_manifest(data, "b.json")
        first_a = load_manifest(a)
        assert load_manifest(b).runs[2].seed == 5
        assert load_manifest(a) == first_a
        assert len(parses) == 3

    def test_a_failed_load_is_not_kept(self, parses, write_manifest):
        valid = write_manifest(manifest_dict(), "valid.json")
        runset = load_manifest(valid)
        data = manifest_dict()
        data["runs"] = data["runs"][2:]
        invalid = write_manifest(data, "invalid.json")
        for _ in range(2):
            with pytest.raises(ManifestError) as info:
                load_manifest(invalid)
            assert str(info.value) == "baseline runs not found"
        assert load_manifest(valid) == runset
        assert len(parses) == 4


def make_run(
    source="s", seed=0, steps=1000, tasks=(("t1", 0.5), ("t2", 0.6)), metric=MetricKind.BRIER
):
    return RunRecord(
        source_id=source,
        seed=seed,
        steps=steps,
        suite=tuple(x for t, _ in tasks for x in (t, metric, 100)),
        values=tuple(v for _, v in tasks),
    )


class TestAverageSeeds:
    def test_two_seed_mean(self):
        merged = average_seeds(
            [make_run(seed=0, tasks=(("t1", 0.50),)), make_run(seed=1, tasks=(("t1", 0.52),))]
        )
        assert merged.scores[0].value == pytest.approx(0.51, rel=1e-12)
        assert merged.seed == AGGREGATE_SEED
        assert merged.metadata["averaged_seeds"] == "0,1"
        assert merged.scores[0].n_examples == 100

    def test_seeds_listing_tasks_in_another_order(self):
        merged = average_seeds(
            [
                make_run(seed=0, tasks=(("t1", 0.25), ("t2", 0.75))),
                make_run(seed=1, tasks=(("t2", 0.5), ("t1", 0.125))),
                make_run(seed=2, tasks=(("t1", 0.375), ("t2", 0.25))),
            ]
        )
        assert [s.task_id for s in merged.scores] == ["t1", "t2"]
        assert [s.value for s in merged.scores] == [0.25, 0.5]

    def test_single_run_identity(self):
        run = make_run()
        assert average_seeds([run]) is run

    def test_different_steps_rejected(self):
        with pytest.raises(ManifestError, match="steps"):
            average_seeds([make_run(seed=0, steps=1000), make_run(seed=1, steps=2000)])

    def test_mismatched_tasks_lists_difference(self):
        with pytest.raises(ManifestError, match=r"\['t2', 't3'\]"):
            average_seeds(
                [
                    make_run(seed=0, tasks=(("t1", 0.5), ("t2", 0.6))),
                    make_run(seed=1, tasks=(("t1", 0.5), ("t3", 0.6))),
                ]
            )

    def test_mismatched_metrics_rejected(self):
        message = r"seeds 0 and 1 of \('s', 1000\) score tasks \['t1', 't2'\] with different metrics"
        with pytest.raises(ManifestError, match=message):
            average_seeds([make_run(seed=0), make_run(seed=1, metric=MetricKind.ACCURACY)])


class TestBuildUtilityPoints:
    def test_hand_built_delta_and_compute(self, write_manifest):
        runset = load_manifest(write_manifest(manifest_dict()))
        points = build_utility_points(runset, None, CostBasis.CURATION_ONLY)
        assert len(points) == 1
        point = points[0]
        # Baseline macro average: mean(mean(0.50, 0.52), mean(0.60, 0.62)) = 0.56;
        # treated macro average: mean(0.45, 0.55) = 0.50.
        assert point.delta.value == pytest.approx(0.06, rel=1e-9)
        assert point.delta.source_id == "med_filter"
        # Independent cost composition for the same source and step count.
        expected = total_cost(
            SourceCostModel(
                kind=SourceKind.MBF, mbf_recall=22.0, annotator_per_token_flops=2e8
            ),
            GEOM,
            1000 * 2097152.0,
            ModelSpec(7e9),
            CostBasis.CURATION_ONLY,
        )
        assert point.compute == expected
        assert point.tokens_upsampled == pytest.approx(1000 * 209715.2, rel=1e-12)

    def test_task_filter_glob(self, write_manifest):
        runset = load_manifest(write_manifest(manifest_dict()))
        points = build_utility_points(runset, ["mmlu_anatomy"], CostBasis.CURATION_ONLY)
        assert points[0].delta.value == pytest.approx(0.06, rel=1e-9)
        points = build_utility_points(runset, ["mmlu_*"], CostBasis.CURATION_ONLY)
        assert len(points) == 1

    def test_empty_filter_intersection(self, write_manifest):
        runset = load_manifest(write_manifest(manifest_dict()))
        with pytest.raises(ManifestError, match="matches no"):
            build_utility_points(runset, ["gsm8k*"], CostBasis.CURATION_ONLY)

    def test_unmatched_steps(self, write_manifest):
        data = manifest_dict()
        data["runs"][-1]["steps"] = 2000
        runset = load_manifest(write_manifest(data))
        with pytest.raises(ManifestError, match=r"\('med_filter', 2000\)"):
            build_utility_points(runset, None, CostBasis.CURATION_ONLY)

    @pytest.mark.parametrize(
        "treated_tasks, differing",
        [
            (["mmlu_anatomy", "mmlu_virology"], ["mmlu_college_biology", "mmlu_virology"]),
            (["mmlu_anatomy"], ["mmlu_college_biology"]),
        ],
        ids=["swapped-task", "subset"],
    )
    def test_treated_suite_must_match_baseline(self, write_manifest, treated_tasks, differing):
        data = manifest_dict()
        data["runs"][-1]["scores"] = [
            {"task_id": task, "metric": "brier", "value": 0.45, "n_examples": 135}
            for task in treated_tasks
        ]
        runset = load_manifest(write_manifest(data))
        with pytest.raises(ManifestError) as info:
            build_utility_points(runset, None, CostBasis.CURATION_ONLY)
        assert "('med_filter', 1000)" in str(info.value)
        assert str(differing) in str(info.value)
        # Filtered down to the shared task, the suites match again.
        (point,) = build_utility_points(runset, ["mmlu_anatomy"], CostBasis.CURATION_ONLY)
        assert point.delta.value == pytest.approx(0.06, rel=1e-9)

    def test_baseline_seeds_must_agree_on_metrics(self, write_manifest):
        # Averaged regardless, these seeds would give delta 0.06, labelled brier.
        data = manifest_dict()
        for score in data["runs"][1]["scores"]:
            score["metric"] = "accuracy"
        runset = load_manifest(write_manifest(data))
        with pytest.raises(ManifestError) as info:
            build_utility_points(runset, None, CostBasis.CURATION_ONLY)
        assert str(info.value) == (
            "seeds 0 and 1 of ('full_replay', 1000) score tasks"
            " ['mmlu_anatomy', 'mmlu_college_biology'] with different metrics"
        )

    @pytest.mark.parametrize(
        "switched, detail",
        [
            ([0], "'mmlu_anatomy' is accuracy, baseline brier"),
            (
                [0, 1],
                "'mmlu_anatomy' is accuracy, baseline brier;"
                " 'mmlu_college_biology' is accuracy, baseline brier",
            ),
        ],
        ids=["mixed-suite", "other-kind"],
    )
    def test_treated_metrics_must_match_baseline(self, write_manifest, capsys, switched, detail):
        data = manifest_dict()
        for i in switched:
            data["runs"][-1]["scores"][i]["metric"] = "accuracy"
        manifest = write_manifest(data)
        message = f"metrics of ('med_filter', 1000) differ from the baseline's at the same steps: {detail}"
        with pytest.raises(ManifestError) as info:
            build_utility_points(load_manifest(manifest), None, CostBasis.CURATION_ONLY)
        assert str(info.value) == message
        assert main(["fit", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_baseline_suite_must_not_mix_metric_kinds(self, write_manifest):
        data = manifest_dict()
        for run in data["runs"]:
            run["scores"][1]["metric"] = "accuracy"
        runset = load_manifest(write_manifest(data))
        with pytest.raises(ManifestError) as info:
            build_utility_points(runset, None, CostBasis.CURATION_ONLY)
        assert str(info.value) == (
            "baseline task suite at steps=1000 mixes metric kinds: tasks"
            " ['mmlu_college_biology'] are not scored with brier like 'mmlu_anatomy'"
        )
        # A filter down to one kind leaves a well-defined suite.
        (point,) = build_utility_points(runset, ["mmlu_anatomy"], CostBasis.CURATION_ONLY)
        assert point.delta.value == pytest.approx(0.06, rel=1e-9)

    @pytest.mark.parametrize(
        "change, tasks, message",
        [
            ("seed tasks", None,
             "runs have mismatched task sets; differing tasks:"
             " ['mmlu_college_biology', 'mmlu_virology']"),
            ("treated tasks", None,
             "task suite of ('med_filter', 1000) differs from the baseline's at the same steps;"
             " differing tasks: ['mmlu_college_biology', 'mmlu_virology']"),
            ("treated steps", None, "no baseline run at steps=2000 to pair with ('med_filter', 2000)"),
            (None, "gsm8k*", "task filter ['gsm8k*'] matches no baseline tasks at steps=1000"),
            ("treated tasks", "mmlu_college_biology",
             "task filter ['mmlu_college_biology'] matches no tasks for ('med_filter', 1000)"),
        ],
        ids=["seed-task-sets", "treated-suite", "no-baseline-steps", "filter-baseline",
             "filter-treated"],
    )
    def test_group_messages(self, write_manifest, capsys, change, tasks, message):
        data = manifest_dict()
        if change == "seed tasks":
            data["runs"][1]["scores"][1]["task_id"] = "mmlu_virology"
        elif change == "treated tasks":
            data["runs"][2]["scores"][1]["task_id"] = "mmlu_virology"
        elif change == "treated steps":
            data["runs"][2]["steps"] = 2000
        manifest = write_manifest(data)
        runset = loads_manifest(manifest.read_text(encoding="utf-8"))
        with pytest.raises(ManifestError) as info:
            build_utility_points(runset, tasks and [tasks], CostBasis.CURATION_ONLY)
        assert str(info.value) == message
        argv = ["fit", "--manifest", str(manifest)] + (["--tasks", tasks] if tasks else [])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_basis_changes_compute_not_delta(self, write_manifest):
        runset = load_manifest(write_manifest(manifest_dict()))
        only = build_utility_points(runset, None, CostBasis.CURATION_ONLY)
        full = build_utility_points(runset, None, CostBasis.CURATION_PLUS_ANNEALING)
        for a, b in zip(only, full):
            assert a.delta.value == b.delta.value
            assert a.compute < b.compute

    def test_deterministic(self, write_manifest):
        path = write_manifest(manifest_dict())
        first = build_utility_points(load_manifest(path), None, CostBasis.CURATION_ONLY)
        second = build_utility_points(load_manifest(path), None, CostBasis.CURATION_ONLY)
        assert first == second

    def test_point_count_matches_treated_groups(self, write_manifest):
        data = manifest_dict()
        extra = {
            "source_id": "full_replay",
            "seed": 0,
            "steps": 2000,
            "scores": data["runs"][0]["scores"],
        }
        treated = {
            "source_id": "med_filter",
            "seed": 0,
            "steps": 2000,
            "scores": data["runs"][-1]["scores"],
        }
        data["runs"].extend([extra, treated])
        runset = load_manifest(write_manifest(data))
        points = build_utility_points(runset, None, CostBasis.CURATION_ONLY)
        assert [(p.source_id, p.steps) for p in points] == [
            ("med_filter", 1000),
            ("med_filter", 2000),
        ]

    def test_treated_seeds_are_averaged_too(self, write_manifest):
        data = manifest_dict()
        second = {
            "source_id": "med_filter",
            "seed": 1,
            "steps": 1000,
            "scores": [
                {"task_id": "mmlu_anatomy", "metric": "brier", "value": 0.47, "n_examples": 135},
                {"task_id": "mmlu_college_biology", "metric": "brier", "value": 0.57, "n_examples": 144},
            ],
        }
        data["runs"].append(second)
        runset = load_manifest(write_manifest(data))
        points = build_utility_points(runset, None, CostBasis.CURATION_ONLY)
        assert len(points) == 1
        # Treated macro average is now mean(0.46, 0.56) = 0.51.
        assert points[0].delta.value == pytest.approx(0.05, rel=1e-9)

    def test_source_matching_baseline_scores_gives_zero_delta(self, write_manifest):
        data = manifest_dict()
        data["sources"]["shadow"] = {"kind": "zero_cost"}
        data["runs"].append(
            {
                "source_id": "shadow",
                "seed": 0,
                "steps": 1000,
                "scores": [
                    {"task_id": "mmlu_anatomy", "metric": "brier", "value": 0.51, "n_examples": 135},
                    {"task_id": "mmlu_college_biology", "metric": "brier", "value": 0.61, "n_examples": 144},
                ],
            }
        )
        runset = load_manifest(write_manifest(data))
        points = build_utility_points(runset, None, CostBasis.CURATION_ONLY)
        shadow = [p for p in points if p.source_id == "shadow"][0]
        assert shadow.delta.value == 0.0
        assert shadow.compute == 0.0

    @pytest.mark.parametrize("basis", list(CostBasis))
    def test_non_finite_compute_names_group(self, write_manifest, capsys, basis):
        # 1e300 tokens per step is a float; 1000 steps priced at 4.4e9
        # FLOPs per token are not.
        data = manifest_dict()
        data["geometry"]["batch_size"] = 10**300
        data["geometry"]["sequence_length"] = 1
        manifest = write_manifest(data)
        message = (
            f"compute of ('med_filter', 1000) under basis {basis.value!r} is inf: geometry"
            " batch_size 1e+300 x sequence_length 1 prices it beyond the float range"
        )
        with pytest.raises(ManifestError) as info:
            build_utility_points(load_manifest(manifest), None, basis)
        assert str(info.value) == message
        assert main(["fit", "--manifest", str(manifest), "--basis", basis.value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_nan_compute_rejected(self, write_manifest):
        # No annotator FLOPs times infinitely many seed tokens is 0 * inf.
        data = manifest_dict()
        data["sources"]["med_filter"] = {"kind": "mbf", "mbf_recall": 22.0}
        data["geometry"]["batch_size"] = 10**307
        data["geometry"]["sequence_length"] = 1
        runset = load_manifest(write_manifest(data))
        for basis in CostBasis:
            with pytest.raises(ManifestError, match=r"\('med_filter', 1000\) under .* is nan"):
                build_utility_points(runset, None, basis)

    def test_grid_top_matches_upsampled_budget(self):
        # 36k steps of the reference geometry consume ~7.55e9 upsampled
        # tokens and 1k steps ~2.1e8, bracketing the advertised range.
        assert 36000 * 209715.2 == pytest.approx(7.5e9, rel=0.01)
        assert 1000 * 209715.2 == pytest.approx(2.1e8, rel=0.01)
