import math

import pytest

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
from annealplan.metrics import MetricKind, TaskScore

from conftest import manifest_dict

GEOM = AnnealingGeometry(256, 8192, 0.1)


class TestLoadManifest:
    def test_minimal_manifest(self, write_manifest):
        runset = load_manifest(write_manifest(manifest_dict()))
        assert len(runset.runs) == 3
        assert runset.baseline_id == "full_replay"
        assert runset.training_model.param_count == 7e9
        assert runset.sources["med_filter"].kind is SourceKind.MBF
        # The baseline gets an implicit zero-cost model.
        assert runset.sources["full_replay"].kind is SourceKind.ZERO_COST

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

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\n", "\x1f", "\ud800", "\udfff",
                                      "\ufffe", "\uffff"])
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

    def test_non_ascii_source_id_accepted(self, write_manifest):
        data = manifest_dict()
        data["sources"] = {"m\u00e9d \U0001f50d": data["sources"].pop("med_filter")}
        data["runs"][2]["source_id"] = "m\u00e9d \U0001f50d"
        assert "m\u00e9d \U0001f50d" in load_manifest(write_manifest(data)).sources

def make_run(
    source="s", seed=0, steps=1000, tasks=(("t1", 0.5), ("t2", 0.6)), metric=MetricKind.BRIER
):
    return RunRecord(
        source_id=source,
        seed=seed,
        steps=steps,
        scores=tuple(
            TaskScore(task_id=t, metric=metric, value=v, n_examples=100) for t, v in tasks
        ),
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
