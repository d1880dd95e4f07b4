import csv
import io
import json
import math
import struct

import pytest

from annealplan.cli import main

from conftest import manifest_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


@pytest.fixture
def sim_manifest(tmp_path, capsys):
    path = tmp_path / "sim.json"
    code, out, err = run_cli(
        capsys, "simulate", "--scenario", "rank-flip", "--seed", "7", "--out", str(path)
    )
    assert code == 0, err
    return path


class TestFit:
    def test_recovers_ground_truth(self, sim_manifest, capsys):
        code, out, err = run_cli(
            capsys, "fit", "--manifest", str(sim_manifest), "--basis", "total"
        )
        assert code == 0
        rows = parse_csv(out)
        fits = {r["source_id"]: r for r in rows if r["record"] == "fit"}
        points = [r for r in rows if r["record"] == "point"]
        assert set(fits) == {"mbf_like", "wrap_like"}
        assert float(fits["mbf_like"]["slope"]) == pytest.approx(0.015, rel=1e-9)
        assert float(fits["wrap_like"]["slope"]) == pytest.approx(-0.002, rel=1e-9)
        assert len(points) == 12

    def test_basis_changes_compute_only(self, sim_manifest, capsys):
        _, out_a, _ = run_cli(capsys, "fit", "--manifest", str(sim_manifest), "--basis", "total")
        _, out_b, _ = run_cli(
            capsys, "fit", "--manifest", str(sim_manifest), "--basis", "curation-only"
        )
        points_a = [r for r in parse_csv(out_a) if r["record"] == "point"]
        points_b = [r for r in parse_csv(out_b) if r["record"] == "point"]
        for a, b in zip(points_a, points_b):
            assert a["delta"] == b["delta"]
            assert float(a["compute"]) > float(b["compute"])

    def test_metric_oriented_delta_sign(self, sim_manifest, capsys):
        _, improvement, _ = run_cli(
            capsys, "fit", "--manifest", str(sim_manifest), "--basis", "total"
        )
        _, metric_sign, _ = run_cli(
            capsys, "fit", "--manifest", str(sim_manifest), "--basis", "total",
            "--delta-sign", "metric",
        )
        pos = [r for r in parse_csv(improvement) if r["record"] == "point"]
        neg = [r for r in parse_csv(metric_sign) if r["record"] == "point"]
        for a, b in zip(pos, neg):
            assert float(b["delta"]) == -float(a["delta"])

    def test_malformed_manifest_no_partial_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        code, out, err = run_cli(capsys, "fit", "--manifest", str(bad))
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_out_file_and_svg(self, sim_manifest, tmp_path, capsys):
        out_csv = tmp_path / "fits.csv"
        out_svg = tmp_path / "fits.svg"
        code, out, _ = run_cli(
            capsys,
            "fit", "--manifest", str(sim_manifest), "--basis", "total",
            "--out", str(out_csv), "--svg", str(out_svg),
        )
        assert code == 0
        assert out == ""
        text = out_csv.read_text(encoding="utf-8")
        assert text.startswith("record,source_id,basis")
        assert "\r" not in text
        svg = out_svg.read_text(encoding="utf-8")
        assert svg.count("<circle") == 12  # every CSV point is drawn
        assert "stroke-dasharray" in svg  # extrapolated segments are dotted
        assert svg.count("<polyline") >= 2


class TestRank:
    def test_flip_across_budgets(self, sim_manifest, capsys):
        _, out, _ = run_cli(
            capsys, "rank", "--manifest", str(sim_manifest), "--basis", "total",
            "--budget", "9e19",
        )
        assert parse_csv(out)[0]["source_id"] == "wrap_like"
        _, out, _ = run_cli(
            capsys, "rank", "--manifest", str(sim_manifest), "--basis", "total",
            "--budget", "3e21",
        )
        assert parse_csv(out)[0]["source_id"] == "mbf_like"

    def test_extrapolation_warning(self, sim_manifest, capsys):
        code, out, err = run_cli(
            capsys, "rank", "--manifest", str(sim_manifest), "--basis", "total",
            "--budget", "1e25",
        )
        assert code == 0
        rows = parse_csv(out)
        assert all(r["extrapolated"] == "true" for r in rows)
        assert "extrapolated" in err

    def test_budget_must_be_positive(self, sim_manifest, capsys):
        code, _, err = run_cli(
            capsys, "rank", "--manifest", str(sim_manifest), "--budget", "-5",
        )
        assert code == 1
        assert "budget" in err


class TestCrossoverCmd:
    def test_reports_flip_point(self, sim_manifest, capsys):
        _, out, _ = run_cli(
            capsys, "crossover", "--manifest", str(sim_manifest), "--basis", "total"
        )
        rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "crossover"
        assert row["leader_below"] == "wrap_like"
        assert row["leader_above"] == "mbf_like"
        assert row["in_range"] == "true"


class TestAllocate:
    def test_plan_with_oracle_gap(self, sim_manifest, capsys):
        code, out, err = run_cli(
            capsys, "allocate", "--manifest", str(sim_manifest), "--basis", "total",
            "--c-max", "1e21", "--with-oracle",
        )
        assert code == 0
        rows = parse_csv(out)
        summary = [r for r in rows if r["record"] == "summary"][0]
        assert float(summary["oracle_gap"]) <= 0.0
        assignments = {r["source_id"]: r for r in rows if r["record"] == "assignment"}
        assert float(assignments["mbf_like"]["assigned_compute"]) == 1e21
        assert assignments["wrap_like"]["excluded_reason"] == "non-positive slope"

    def test_proportional_split_two_positive(self, tmp_path, capsys):
        # Hand-built manifest with two improving sources.
        data = manifest_dict()
        data["sources"]["wiki_rephrase"] = {
            "kind": "rephrase",
            "expansion_factor": 1.0,
            "generator_params": 3_000_000_000,
        }
        runs = []
        for steps in (1000, 2000, 4000):
            for seed in (0, 1):
                runs.append(
                    {
                        "source_id": "full_replay",
                        "seed": seed,
                        "steps": steps,
                        "scores": [
                            {"task_id": "t", "metric": "brier", "value": 0.6, "n_examples": 100}
                        ],
                    }
                )
            for source, value in (("med_filter", 0.55), ("wiki_rephrase", 0.5)):
                runs.append(
                    {
                        "source_id": source,
                        "seed": 0,
                        "steps": steps,
                        "scores": [
                            {
                                "task_id": "t",
                                "metric": "brier",
                                # Improvement grows with steps: a positive slope.
                                "value": value - 0.01 * math.log(steps / 1000 + 1),
                                "n_examples": 100,
                            }
                        ],
                    }
                )
        data["runs"] = runs
        path = tmp_path / "two.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "allocate", "--manifest", str(path), "--basis", "total",
            "--c-max", "1e21", "--with-oracle", "--oracle-resolution", "100",
        )
        assert code == 0, err
        rows = parse_csv(out)
        shares = {
            r["source_id"]: float(r["share"]) for r in rows if r["record"] == "assignment"
        }
        assert shares["med_filter"] > 0
        assert shares["wiki_rephrase"] > 0
        assert sum(shares.values()) == pytest.approx(1.0, rel=1e-9)
        summary = [r for r in rows if r["record"] == "summary"][0]
        assert float(summary["oracle_gap"]) <= 0.0


class TestAllocateFallback:
    def test_all_negative_slopes_warn_and_concentrate(self, tmp_path, capsys):
        from annealplan.costs import SourceCostModel, SourceKind
        from annealplan.simulate import GroundTruthSource, Scenario, generate_manifest

        zero = SourceCostModel(kind=SourceKind.ZERO_COST)
        scenario = Scenario(
            sources=(
                GroundTruthSource("fading_a", 0.9, -0.01, zero),
                GroundTruthSource("fading_b", 1.1, -0.015, zero),
            ),
            baseline_score=1.0,
        )
        path = tmp_path / "neg.json"
        path.write_bytes(generate_manifest(scenario))
        code, out, err = run_cli(
            capsys, "allocate", "--manifest", str(path), "--basis", "total",
            "--c-max", "1e21",
        )
        assert code == 0
        rows = parse_csv(out)
        assigned = {
            r["source_id"]: float(r["assigned_compute"])
            for r in rows
            if r["record"] == "assignment"
        }
        assert sorted(assigned.values()) == [0.0, 1e21]
        assert "whole budget" in err


class TestDropSmallest:
    def test_fit_excludes_smallest_points(self, sim_manifest, capsys):
        _, out, _ = run_cli(
            capsys, "fit", "--manifest", str(sim_manifest), "--basis", "total",
            "--drop-smallest", "2",
        )
        fits = [r for r in parse_csv(out) if r["record"] == "fit"]
        assert all(r["n_points"] == "4" for r in fits)


class TestCost:
    def test_tinygsm_preset_tokens(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--preset", "tinygsm", "--tokens", "1.8e9")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["total_flops"]) == 6.3e20
        assert float(row["curation_flops"]) == 6.3e20

    def test_zero_cost(self, capsys):
        code, out, _ = run_cli(
            capsys, "cost", "--zero-cost", "--basis", "curation-only", "--tokens", "1e9"
        )
        assert code == 0
        assert float(parse_csv(out)[0]["total_flops"]) == 0.0

    def test_breakdown_sums_to_total(self, capsys):
        code, out, _ = run_cli(
            capsys, "cost", "--kind", "mbf", "--mbf-recall", "22",
            "--annotator-per-token-flops", "2e8", "--steps", "1000",
            "--basis", "total", "--training-params", "7e9",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["curation_flops"]) + float(row["training_flops"]) == float(
            row["total_flops"]
        )
        assert float(row["training_flops"]) > 0

    def test_synthetic_requires_generator_flag(self, capsys):
        code, _, err = run_cli(capsys, "cost", "--kind", "synthetic", "--tokens", "1e9")
        assert code == 1
        assert "--generator-params" in err

    @pytest.mark.parametrize(
        "flag, field",
        [
            ("--epochs", "epochs"),
            ("--mbf-recall", "mbf_recall"),
            ("--annotator-per-token-flops", "annotator_per_token_flops"),
        ],
    )
    def test_non_finite_flag_rejected(self, capsys, flag, field):
        code, out, err = run_cli(capsys, "cost", "--kind", "mbf", "--steps", "10", flag, "inf")
        assert code == 1
        assert out == ""
        assert f"{field} must be finite" in err

    def test_steps_and_tokens_mutually_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys, "cost", "--zero-cost", "--steps", "10", "--tokens", "100"
        )
        assert code == 1
        assert "--steps or --tokens" in err

    def test_mind_preset_cheaper(self, capsys):
        _, out_a, _ = run_cli(capsys, "cost", "--preset", "tinygsm", "--steps", "1000")
        _, out_b, _ = run_cli(capsys, "cost", "--preset", "tinygsm-mind", "--steps", "1000")
        tiny = float(parse_csv(out_a)[0]["total_flops"])
        mind = float(parse_csv(out_b)[0]["total_flops"])
        assert mind < tiny
        assert mind / tiny == pytest.approx(1 / 3.6 + 2 / 3.6 * 14 / 350, rel=1e-12)


class TestDiversity:
    def test_degenerate_file(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a a a a", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "diversity", "--corpus", str(corpus), "--n-max", "2"
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == {
            "n": "1", "distinct": "1", "total": "4", "ratio": "0.25", "entropy_bits": "0.0",
        }
        assert rows[1]["distinct"] == "1"
        assert rows[1]["total"] == "3"
        assert float(rows[1]["ratio"]) == pytest.approx(1 / 3, rel=1e-12)

    def test_empty_file_flagged(self, tmp_path, capsys):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("", encoding="utf-8")
        code, out, err = run_cli(capsys, "diversity", "--corpus", str(corpus), "--n-max", "2")
        assert code == 0
        rows = parse_csv(out)
        assert all(r["total"] == "0" for r in rows)
        assert "convention" in err

    def test_matches_library(self, tmp_path, capsys):
        import numpy as np

        from annealplan.diversity import profile_corpus

        rng = np.random.default_rng(31)
        docs = [
            [f"w{t}" for t in rng.integers(0, 50, size=200)] for _ in range(5)
        ]
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(" ".join(d) for d in docs), encoding="utf-8")
        code, out, _ = run_cli(capsys, "diversity", "--corpus", str(corpus), "--n-max", "3")
        assert code == 0
        report = profile_corpus(docs, 3)
        for row in parse_csv(out):
            stats = report.stats(int(row["n"]))
            assert int(row["distinct"]) == stats.distinct
            assert int(row["total"]) == stats.total
            assert float(row["entropy_bits"]) == stats.entropy_bits

    def test_binary_format(self, tmp_path, capsys):
        corpus = tmp_path / "c.bin"
        payload = struct.pack("<I", 4) + struct.pack("<4I", 5, 5, 5, 5)
        corpus.write_bytes(payload)
        code, out, _ = run_cli(
            capsys, "diversity", "--corpus", str(corpus), "--format", "binary", "--n-max", "1"
        )
        assert code == 0
        assert parse_csv(out)[0]["ratio"] == "0.25"

    def test_bad_binary_reports_offset(self, tmp_path, capsys):
        corpus = tmp_path / "c.bin"
        corpus.write_bytes(struct.pack("<I", 9))
        code, _, err = run_cli(
            capsys, "diversity", "--corpus", str(corpus), "--format", "binary"
        )
        assert code == 1
        assert "byte offset" in err

    def test_single_stream_flag(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b\nb a\n", encoding="utf-8")
        _, out_docs, _ = run_cli(capsys, "diversity", "--corpus", str(corpus), "--n-max", "2")
        _, out_stream, _ = run_cli(
            capsys, "diversity", "--corpus", str(corpus), "--n-max", "2", "--single-stream"
        )
        total_docs = int([r for r in parse_csv(out_docs) if r["n"] == "2"][0]["total"])
        total_stream = int([r for r in parse_csv(out_stream) if r["n"] == "2"][0]["total"])
        assert total_docs == 2
        assert total_stream == 3


class TestSimulate:
    def test_deterministic_per_seed(self, tmp_path, capsys):
        a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        noise = ("--noise", "0.01")
        run_cli(capsys, "simulate", "--seed", "7", *noise, "--out", str(a))
        run_cli(capsys, "simulate", "--seed", "7", *noise, "--out", str(b))
        run_cli(capsys, "simulate", "--seed", "8", *noise, "--out", str(c))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_generated_manifest_fits_cleanly(self, sim_manifest, capsys):
        code, out, err = run_cli(
            capsys, "fit", "--manifest", str(sim_manifest), "--basis", "total"
        )
        assert code == 0, err

    def test_unknown_scenario(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", "mystery", "--out", str(tmp_path / "x.json")
        )
        assert code == 1
        assert "mystery" in err


class TestCostBasisFlags:
    def test_total_basis_requires_training_params_generic(self, capsys):
        code, _, err = run_cli(
            capsys, "cost", "--zero-cost", "--tokens", "1e9", "--basis", "total"
        )
        assert code == 1
        assert "--training-params" in err

    def test_total_basis_requires_training_params_preset(self, capsys):
        code, _, err = run_cli(
            capsys, "cost", "--preset", "tinygsm", "--tokens", "1.8e9", "--basis", "total"
        )
        assert code == 1
        assert "--training-params" in err

    def test_preset_tokens_with_total_basis(self, capsys):
        # 1.8e9 curated tokens imply 1.8e10 annealing tokens at 10%
        # upsampling; training adds 6 * 7e9 * 1.8e10 FLOPs.
        code, out, _ = run_cli(
            capsys, "cost", "--preset", "tinygsm", "--tokens", "1.8e9",
            "--basis", "total", "--training-params", "7e9",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["curation_flops"]) == 6.3e20
        assert float(row["training_flops"]) == pytest.approx(6 * 7e9 * 1.8e10, rel=1e-12)


class TestTaskFilterFlag:
    def test_matching_filter(self, sim_manifest, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--manifest", str(sim_manifest), "--basis", "total",
            "--tasks", "sim_*",
        )
        assert code == 0
        assert len([r for r in parse_csv(out) if r["record"] == "fit"]) == 2

    def test_nonmatching_filter(self, sim_manifest, capsys):
        code, _, err = run_cli(
            capsys, "fit", "--manifest", str(sim_manifest), "--tasks", "gsm8k*"
        )
        assert code == 1
        assert "matches no" in err


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rank", "--manifest", "nope.json")
        assert code == 1

    def test_single_point_source_fails_cleanly(self, tmp_path, capsys):
        data = manifest_dict()  # one treated run at one step count
        path = tmp_path / "one.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "fit", "--manifest", str(path))
        assert code == 1
        assert out == ""
        assert "at least 2" in err and err.count("\n") == 1

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_manifest_file(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--manifest", "/does/not/exist.json")
        assert code == 1
        assert "cannot read" in err
