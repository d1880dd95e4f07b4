import math

import pytest

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


def make_run(source="s", seed=0, steps=1000, tasks=(("t1", 0.5), ("t2", 0.6))):
    return RunRecord(
        source_id=source,
        seed=seed,
        steps=steps,
        geometry=GEOM,
        scores=tuple(
            TaskScore(task_id=t, metric=MetricKind.BRIER, value=v, n_examples=100)
            for t, v in tasks
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

    def test_grid_top_matches_upsampled_budget(self):
        # 36k steps of the reference geometry consume ~7.55e9 upsampled
        # tokens and 1k steps ~2.1e8, bracketing the advertised range.
        assert 36000 * 209715.2 == pytest.approx(7.5e9, rel=0.01)
        assert 1000 * 209715.2 == pytest.approx(2.1e8, rel=0.01)
