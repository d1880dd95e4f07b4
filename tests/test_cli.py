import contextlib
import csv
import gc
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annealplan
from annealplan import cli, manifest
from annealplan.cli import main
from annealplan.costs import (
    SOURCE_FLOAT_FIELDS,
    AnnealingGeometry,
    CostBasis,
    ModelSpec,
    SourceCostModel,
    SourceKind,
    tokens_per_step,
)
from annealplan.manifest import loads_manifest
from annealplan.scaling import ScalingFit, crossover
from annealplan.simulate import (
    GroundTruthSource,
    Scenario,
    _source_to_json,
    generate_manifest,
    scenario_rank_flip,
)

from conftest import manifest_dict

SRC = Path(annealplan.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_within_2_gib(*argv):
    """Run the CLI in a subprocess whose address space is capped at 2 GiB."""
    import resource

    cap = 2 << 30
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "annealplan", *argv],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def assert_matches_report(out, report):
    for row in parse_csv(out):
        stats = report.stats(int(row["n"]))
        assert int(row["distinct"]) == stats.distinct
        assert int(row["total"]) == stats.total
        assert float(row["ratio"]) == stats.ratio
        assert float(row["entropy_bits"]) == stats.entropy_bits


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

    def test_svg_escapes_source_ids(self, write_manifest, tmp_path, capsys):
        data = manifest_dict()
        data["sources"] = {"a<b&c": data["sources"].pop("med_filter")}
        data["runs"][2]["source_id"] = "a<b&c"
        later = json.loads(json.dumps(data["runs"]))
        for run in later:
            run["steps"] = 2000
            run["scores"][0]["value"] -= 0.02 if run["source_id"] == "a<b&c" else 0.01
        data["runs"] += later
        out_svg = tmp_path / "fits.svg"
        code, _, err = run_cli(
            capsys, "fit", "--manifest", str(write_manifest(data)), "--svg", str(out_svg)
        )
        assert code == 0, err
        root = ElementTree.parse(out_svg).getroot()
        labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "a<b&c" in labels

    @pytest.mark.parametrize("source_id", ["a\ud800b", "a\x01b"])
    def test_svg_unwritable_source_id_writes_nothing(self, write_manifest, tmp_path, capsys,
                                                      source_id):
        data = manifest_dict()
        data["sources"] = {source_id: data["sources"].pop("med_filter")}
        data["runs"][2]["source_id"] = source_id
        out_svg = tmp_path / "fits.svg"
        code, out, err = run_cli(
            capsys, "fit", "--manifest", str(write_manifest(data)), "--svg", str(out_svg)
        )
        assert (code, out) == (1, "")
        assert f"sources key {source_id!r}" in err
        assert not out_svg.exists()

    def test_unwritable_out_removes_svg(self, sim_manifest, tmp_path, capsys):
        out_svg = tmp_path / "fits.svg"
        code, out, err = run_cli(
            capsys, "fit", "--manifest", str(sim_manifest), "--svg", str(out_svg),
            "--out", str(tmp_path / "missing" / "fits.csv"),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert not out_svg.exists()


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

    def test_infinite_budget_rejected(self, sim_manifest, capsys):
        code, out, err = run_cli(
            capsys, "rank", "--manifest", str(sim_manifest), "--budget", "inf",
        )
        assert code == 1
        assert out == ""
        assert "error: --budget must be finite, got inf" in err

    def test_identical_fits_tie_lexicographically(self, tmp_path, capsys):
        mbf = SourceCostModel(kind=SourceKind.MBF, mbf_recall=22.0, annotator_per_token_flops=2e8)
        twins = Scenario(sources=tuple(GroundTruthSource(s, 0.01, 0.002, mbf) for s in "ba"))
        path = tmp_path / "twins.json"
        path.write_bytes(generate_manifest(twins))
        code, out, err = run_cli(
            capsys, "rank", "--manifest", str(path), "--basis", "total", "--budget", "1e21"
        )
        assert code == 0
        rows = parse_csv(out)
        assert [(r["source_id"], r["extrapolated"], r["tied"]) for r in rows] == [
            ("a", "false", "true"), ("b", "false", "true")
        ]
        assert rows[0]["predicted_delta"] == rows[1]["predicted_delta"]
        assert err == "warning: tied predictions broken lexicographically by source id\n"


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


# Source ids a manifest may hold (no control or surrogate characters, no
# U+FFFE or U+FFFF), weighted towards the characters CSV quoting acts on.
SOURCE_IDS = st.text(
    st.sampled_from(',"\' é→') | st.characters(blacklist_categories=("Cc", "Cs"),
                                                 blacklist_characters="\ufffe\uffff"),
    min_size=1, max_size=8,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(SOURCE_IDS)
def test_source_id_is_quoted_as_csv_writer_quotes_it(source_id):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(["x", source_id, "y"])
    assert buffer.getvalue() == f"x,{cli._csv_field(source_id)},y\n"


# Few distinct coefficients, so drawn pairs are often parallel or identical.
COEFFICIENTS = st.sampled_from([-0.5, 0.0, 0.125, 0.25]) | st.floats(-1, 1)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(SOURCE_IDS, COEFFICIENTS, COEFFICIENTS, st.floats(1e10, 1e18), st.floats(1, 1e4)),
        min_size=1, max_size=6, unique_by=lambda drawn: drawn[0],
    )
)
def test_crossover_csv_reads_back_every_pair(drawn):
    fits = [
        ScalingFit(source_id=source_id, intercept=intercept, slope=slope, n_points=4, rmse=0.0,
                   compute_range=(c_lo, c_lo * spread), basis=CostBasis.CURATION_ONLY)
        for source_id, intercept, slope, c_lo, spread in sorted(drawn)
    ]
    warnings = []
    rows = list(csv.reader(io.StringIO(cli._crossover_text(fits, warnings))))
    assert rows[0] == list(cli._CROSSOVER_HEADER)
    expected, identical = [], []
    for i, fit_a in enumerate(fits):
        for fit_b in fits[i + 1 :]:
            result = crossover(fit_a, fit_b)
            pair = [fit_a.source_id, fit_b.source_id]
            if result is not None:
                in_range = "true" if result.in_range else "false"
                expected.append(pair + ["crossover", repr(result.compute), result.leader_below,
                                        result.leader_above, in_range])
            elif (fit_a.slope, fit_a.intercept) == (fit_b.slope, fit_b.intercept):
                expected.append(pair + ["identical", "", "", "", ""])
                identical.append(f"{pair[0]} and {pair[1]} have identical fits (degenerate)")
            else:
                status = "parallel" if fit_a.slope == fit_b.slope else "no-crossover"
                expected.append(pair + [status, "", "", "", ""])
    assert rows[1:] == expected
    assert warnings == identical


def test_crossover_text_calls_crossover_once_per_pair(monkeypatch):
    # Each pair goes through the module-level name, which a tracer may wrap
    # to count pairs; a shortcut past it would count none.
    fits = [
        ScalingFit(source_id=f"s{i}", intercept=intercept, slope=slope, n_points=4, rmse=0.0,
                   compute_range=(1e18, 1e22), basis=CostBasis.CURATION_ONLY)
        for i, (intercept, slope) in enumerate(
            [(0.0, 0.01), (0.5, 0.0), (0.5, 0.0), (-0.2, 0.02), (1.0, 0.01), (0.3, -0.01),
             (0.1, 0.015)]
        )
    ]
    expected = cli._crossover_text(fits, [])
    pairs = []

    def counting_crossover(fit_a, fit_b):
        pairs.append((fit_a.source_id, fit_b.source_id))
        return crossover(fit_a, fit_b)

    monkeypatch.setattr(cli, "crossover", counting_crossover)
    assert cli._crossover_text(fits, []) == expected
    n = len(fits)
    assert len(pairs) == len(set(pairs)) == n * (n - 1) // 2


@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_planning_leaves_the_collector_as_found(sim_manifest, tmp_path, capsys, enabled, valid):
    # Loading pauses the cyclic collector; it must come back on, and only
    # if the caller had it on, whether the manifest loads or not.
    manifest = sim_manifest
    if not valid:
        manifest = tmp_path / "empty.json"
        manifest.write_text("{}", encoding="utf-8")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _, err = run_cli(capsys, "crossover", "--manifest", str(manifest))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    expected = "" if valid else "error: missing field 'baseline_id' in manifest\n"
    assert (code, err) == (0 if valid else 1, expected)


def _warning_argv(command, sim_manifest, tmp_path):
    """Arguments under which ``command`` succeeds with at least one warning."""
    from annealplan.simulate import GroundTruthSource, Scenario

    zero = SourceCostModel(kind=SourceKind.ZERO_COST)
    if command == "fit":  # every treated score is clamped into Brier's range
        scenario = Scenario(sources=(GroundTruthSource("probe", 5.0, 0.0, zero),),
                            baseline_score=0.1)
    elif command == "crossover":  # two sources with the same truth fit identically
        scenario = Scenario(sources=tuple(GroundTruthSource(s, 0.01, 0.002, zero) for s in "ab"))
    elif command == "diversity":  # an empty corpus has no n-grams of any order
        corpus = tmp_path / "empty.txt"
        corpus.write_text("", encoding="utf-8")
        return ["diversity", "--corpus", str(corpus), "--n-max", "2"]
    else:  # rank and allocate far above the grid extrapolate
        flag = {"rank": "--budget", "allocate": "--c-max"}[command]
        return [command, "--manifest", str(sim_manifest), "--basis", "total", flag, "1e30"]
    manifest = tmp_path / f"{command}.json"
    manifest.write_bytes(generate_manifest(scenario))
    return [command, "--manifest", str(manifest), "--basis", "total"]


@pytest.mark.parametrize("command", ["fit", "rank", "crossover", "allocate", "diversity"])
def test_failed_write_prints_one_error_and_no_warning(sim_manifest, tmp_path, capsys, command):
    argv = _warning_argv(command, sim_manifest, tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err.startswith("warning: "), err
    missing = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(missing))
    assert (code, out) == (1, "")
    lines = err.splitlines(keepends=True)
    assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n"), err
    assert str(missing) in err
    assert "warning:" not in err


_BUDGET_FLAGS = pytest.mark.parametrize(
    "command, flag", [("rank", "--budget"), ("allocate", "--c-max")]
)


@_BUDGET_FLAGS
@pytest.mark.parametrize(
    "value, rule",
    [("0", "positive, got 0.0"), ("-5", "positive, got -5.0"), ("nan", "positive, got nan"),
     ("inf", "finite, got inf")],
    ids=["zero", "negative", "nan", "inf"],
)
def test_bad_budget_is_named_by_its_flag(sim_manifest, capsys, command, flag, value, rule):
    code, out, err = run_cli(capsys, command, "--manifest", str(sim_manifest), flag, value)
    assert (code, out, err) == (1, "", f"error: {flag} must be {rule}\n")


@_BUDGET_FLAGS
def test_infinite_budget_is_refused_before_the_manifest_is_read(tmp_path, capsys, command, flag):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(capsys, command, "--manifest", str(missing), flag, "inf")
    assert (code, out, err) == (1, "", f"error: {flag} must be finite, got inf\n")


_PLANNING_COMMANDS = pytest.mark.parametrize(
    "command, argv",
    [("fit", []), ("rank", ["--budget", "1e21"]), ("crossover", []),
     ("allocate", ["--c-max", "1e21"])],
    ids=["fit", "rank", "crossover", "allocate"],
)


@_PLANNING_COMMANDS
def test_bad_drop_smallest_is_refused_before_the_manifest_is_read(
    tmp_path, capsys, command, argv
):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(
        capsys, command, "--manifest", str(missing), *argv, "--drop-smallest", "-1"
    )
    assert (code, out, err) == (1, "", "error: --drop-smallest must be >= 0, got -1\n")


@_PLANNING_COMMANDS
@pytest.mark.parametrize("tasks", [",", " , ,"], ids=["comma", "blanks"])
def test_empty_task_filter_is_refused_before_the_manifest_is_read(
    tmp_path, capsys, command, argv, tasks
):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(capsys, command, "--manifest", str(missing), *argv, "--tasks", tasks)
    assert (code, out, err) == (1, "", "usage error: --tasks must name at least one glob pattern\n")


@pytest.mark.parametrize("oracle", [[], ["--with-oracle"]], ids=["plain", "oracle"])
@pytest.mark.parametrize("resolution", ["0", "1"])
def test_bad_oracle_resolution_is_refused_before_the_manifest_is_read(
    tmp_path, capsys, oracle, resolution
):
    # Refused even when no oracle runs: a flag's bound does not depend on another flag.
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(
        capsys, "allocate", "--manifest", str(missing), "--c-max", "1e21", *oracle,
        "--oracle-resolution", resolution,
    )
    expected = f"error: --oracle-resolution must be >= 2, got {resolution}\n"
    assert (code, out, err) == (1, "", expected)


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

    @pytest.mark.parametrize("oracle", [[], ["--with-oracle"]])
    def test_infinite_c_max_rejected(self, sim_manifest, capsys, oracle):
        code, out, err = run_cli(
            capsys, "allocate", "--manifest", str(sim_manifest), "--c-max", "inf", *oracle,
        )
        assert code == 1
        assert out == ""
        assert "error: --c-max must be finite, got inf" in err

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

    @pytest.mark.parametrize("resolution", [1000, 10**6])
    def test_oversized_oracle_grid_fails_within_memory(self, tmp_path, resolution):
        # Four improving sources at resolution 1000 need a dense grid of
        # 11 GiB; it must be refused before numpy allocates any of it.
        from annealplan.simulate import GroundTruthSource, Scenario

        zero = SourceCostModel(kind=SourceKind.ZERO_COST)
        scenario = Scenario(
            sources=tuple(GroundTruthSource(f"s{i}", 0.0, 0.001 * (i + 1), zero) for i in range(4))
        )
        manifest = tmp_path / "four.json"
        manifest.write_bytes(generate_manifest(scenario))
        proc = run_within_2_gib(
            "allocate", "--manifest", str(manifest), "--basis", "total", "--c-max", "1e21",
            "--with-oracle", "--oracle-resolution", str(resolution),
        )
        assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
        assert proc.stderr.startswith(
            f"error: oracle resolution {resolution} over 4 positive-slope sources needs a grid of"
        )


class TestAllocateFallback:
    def test_all_negative_slopes_warn_and_concentrate(self, tmp_path, capsys):
        from annealplan.simulate import GroundTruthSource, Scenario

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
        code, out, err = run_cli(capsys, "cost", "--kind", "synthetic", "--tokens", "1e9")
        assert (code, out) == (1, "")
        assert err == "error: kind synthetic requires a generator model (generator_params)\n"

    @pytest.mark.parametrize("source", [["--kind", "mbf"], ["--preset", "tinygsm"]])
    @pytest.mark.parametrize("flag", ["--steps", "--tokens"])
    def test_negative_amount_is_named_by_its_flag(self, capsys, source, flag):
        code, out, err = run_cli(capsys, "cost", *source, flag, "-1")
        assert (code, out, err) == (1, "", f"error: {flag} must be >= 0, got -1.0\n")

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

    def test_rephrase_mbf_recall_below_one_rejected(self, capsys):
        # A recall below 1 would price curation below zero.
        code, out, err = run_cli(
            capsys, "cost", "--kind", "rephrase", "--mbf-recall", "-5",
            "--annotator-per-token-flops", "1e8", "--generator-params", "1e9", "--tokens", "1e9",
        )
        assert (code, out) == (1, "")
        assert err == "error: mbf_recall must be >= 1, got -5.0\n"

    @pytest.mark.parametrize("basis", [[], ["--basis", "total", "--training-params", "7e9"]])
    def test_negative_preset_tokens_rejected(self, capsys, basis):
        code, out, err = run_cli(capsys, "cost", "--preset", "tinygsm", "--tokens", "-5", *basis)
        assert code == 1
        assert out == ""
        assert "tokens must be >= 0, got -5.0" in err

    def test_zero_training_params_rejected(self, capsys):
        # 0 is a given value, not an absent flag: it must not price a
        # 1-parameter model.
        code, out, err = run_cli(
            capsys, "cost", "--kind", "mbf", "--steps", "10", "--basis", "total",
            "--training-params", "0",
        )
        assert code == 1
        assert out == ""
        assert "param_count must be positive, got 0.0" in err

    @pytest.mark.parametrize("source", [["--kind", "mbf"], ["--preset", "tinygsm"]])
    def test_invalid_training_params_rejected_under_curation_only(self, capsys, source):
        # A given --training-params is checked even where no training is priced.
        code, out, err = run_cli(
            capsys, "cost", *source, "--steps", "10", "--training-params", "-3"
        )
        assert (code, out) == (1, "")
        assert "param_count must be positive, got -3.0" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("--kind mbf --basis total --training-params 0", "--training-params"),
            ("--kind synthetic --generator-params 0", "--generator-params"),
        ],
    )
    def test_invalid_param_count_names_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "cost", *argv.split(), "--steps", "10")
        assert (code, out) == (1, "")
        assert err == f"error: {flag}: param_count must be positive, got 0.0\n"

    @pytest.mark.parametrize(
        "flags, named",
        [
            ("--kind synthetic --mbf-recall 50", "--kind"),
            ("--zero-cost", "--zero-cost"),
            ("--expansion-factor 0", "--expansion-factor"),
            ("--mbf-recall 1 --generator-params 3e9", "--generator-params"),
            ("--generator-params 3e9 --expansion-factor 2", "--expansion-factor"),
            ("--annotator-per-token-flops 2e8", "--annotator-per-token-flops"),
            ("--annotator-training-flops 0", "--annotator-training-flops"),
            ("--mbf-recall 1", "--mbf-recall"),
        ],
    )
    def test_preset_rejects_source_flags(self, capsys, flags, named):
        # A given flag is rejected even at its generic default value.
        code, out, err = run_cli(capsys, "cost", "--preset", "tinygsm", *flags.split(),
                                 "--steps", "10")
        assert (code, out) == (1, "")
        assert err == f"usage error: --preset cannot be combined with {named}\n"

    @pytest.mark.parametrize("kind", ["mbf", "zero_cost"])
    def test_zero_cost_rejects_kind(self, capsys, kind):
        # --zero-cost is shorthand for --kind zero_cost, so it would
        # otherwise silently override the named kind.
        code, out, err = run_cli(capsys, "cost", "--zero-cost", "--kind", kind, "--steps", "10")
        assert (code, out) == (1, "")
        assert err == "usage error: --zero-cost cannot be combined with --kind\n"

    def test_steps_and_tokens_mutually_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys, "cost", "--zero-cost", "--steps", "10", "--tokens", "100"
        )
        assert code == 1
        assert "--steps or --tokens" in err

    def test_mind_preset_full_dataset_exact(self, capsys):
        # 1.8B curated tokens at exactly 105 GFLOPs each, as 6.3e20 is
        # exact for TinyGSM at 350.
        code, out, _ = run_cli(capsys, "cost", "--preset", "tinygsm-mind", "--tokens", "1.8e9")
        assert code == 0
        assert out.splitlines()[1] == "curation-only,,1800000000.0,1.89e+20,0.0,1.89e+20"

    @pytest.mark.parametrize("flag", ["--steps", "--tokens"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("source", [["--preset", "tinygsm"], ["--kind", "mbf"]])
    def test_non_finite_amount_rejected(self, capsys, flag, value, source):
        code, out, err = run_cli(capsys, "cost", *source, f"{flag}={value}")
        assert (code, out) == (1, "")
        assert err == f"error: {flag} must be finite, got {float(value)}\n"

    @pytest.mark.parametrize(
        "argv, error",
        [
            ("--preset tinygsm --steps 1e300",
             "--steps 1e+300 prices beyond the float range: curation_flops inf, total_flops inf"),
            ("--preset tinygsm-mind --tokens 1e300",
             "--tokens 1e+300 prices beyond the float range: curation_flops inf, total_flops inf"),
            ("--kind mbf --steps 1e300 --basis total --training-params 7e9",
             "--steps 1e+300 prices beyond the float range: training_flops inf, total_flops inf"),
            ("--zero-cost --steps 1e303", "--steps 1e+303 prices beyond the float range: tokens inf"),
        ],
    )
    def test_non_finite_price_rejected(self, capsys, argv, error):
        code, out, err = run_cli(capsys, "cost", *argv.split())
        assert (code, out, err) == (1, "", f"error: {error}\n")

    def test_mind_preset_cheaper(self, capsys):
        _, out_a, _ = run_cli(capsys, "cost", "--preset", "tinygsm", "--steps", "1000")
        _, out_b, _ = run_cli(capsys, "cost", "--preset", "tinygsm-mind", "--steps", "1000")
        tiny = float(parse_csv(out_a)[0]["total_flops"])
        mind = float(parse_csv(out_b)[0]["total_flops"])
        assert mind < tiny
        assert mind / tiny == pytest.approx(1 / 3.6 + 2 / 3.6 * 14 / 350, rel=1e-12)


def _cost_row(*argv) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["cost", *argv]) == 0
    return out.getvalue().splitlines()[1].split(",")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    preset=st.sampled_from(["tinygsm", "tinygsm-mind"]),
    steps=st.floats(min_value=0, max_value=1e7),
    batch_size=st.integers(1, 4096),
    sequence_length=st.integers(1, 32768),
    upsample_ratio=st.floats(min_value=1e-3, max_value=0.999),
)
def test_preset_steps_and_tokens_price_alike(
    preset, steps, batch_size, sequence_length, upsample_ratio
):
    geometry = ["--batch-size", str(batch_size), "--sequence-length", str(sequence_length),
                "--upsample-ratio", repr(upsample_ratio)]
    _, upsampled = tokens_per_step(AnnealingGeometry(batch_size, sequence_length, upsample_ratio))
    by_steps = _cost_row("--preset", preset, "--steps", repr(steps), *geometry)
    by_tokens = _cost_row("--preset", preset, "--tokens", repr(steps * upsampled), *geometry)
    assert by_steps[3] == by_tokens[3]  # curation_flops


def test_source_fields_reach_manifest_and_cost_flags_alike(monkeypatch, capsys):
    # Every float field off its default, so none can be dropped unseen.
    source = SourceCostModel(
        kind=SourceKind.REPHRASE, expansion_factor=1.5, generator=ModelSpec(3e9),
        annotator_per_token_flops=2e8, annotator_training_flops=1e18, mbf_recall=4.0,
    )
    assert all(getattr(source, n) != getattr(SourceCostModel, n) for n in SOURCE_FLOAT_FIELDS)

    data = manifest_dict()
    data["sources"]["med_filter"] = _source_to_json(source)
    assert set(data["sources"]["med_filter"]) == {"kind", "generator_params", *SOURCE_FLOAT_FIELDS}
    assert loads_manifest(json.dumps(data)).sources["med_filter"] == source

    priced = []  # the sources the cost command prices
    monkeypatch.setattr(cli, "annealing_curation_cost", lambda model, *_: priced.append(model) or 0)
    flags = [f"--{n.replace('_', '-')}={getattr(source, n)!r}" for n in SOURCE_FLOAT_FIELDS]
    code, _, err = run_cli(capsys, "cost", "--kind", "rephrase", "--generator-params", "3e9",
                           *flags, "--steps", "10")
    assert code == 0, err
    assert priced == [source]


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
        assert_matches_report(out, report)

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

    def test_single_stream_crosses_reader_blocks(self, tmp_path, capsys, monkeypatch):
        import numpy as np

        from annealplan import diversity

        monkeypatch.setattr(diversity, "_TEXT_BLOCK_BYTES", 16)
        rng = np.random.default_rng(41)
        docs = [
            [f"w{t}" for t in rng.integers(0, 40, size=int(rng.integers(0, 30)))]
            for _ in range(30)
        ]
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(" ".join(d) for d in docs) + "\n", encoding="utf-8")
        keys = np.concatenate(list(diversity.read_text_token_documents(corpus)))
        assert (keys >= np.uint64(1 << 63)).any()  # beyond int64, streamed as uint64
        code, out, _ = run_cli(
            capsys, "diversity", "--corpus", str(corpus), "--n-max", "3", "--single-stream"
        )
        assert code == 0
        report = diversity.profile_corpus([[t for d in docs for t in d]], 3)
        assert_matches_report(out, report)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        block=st.integers(1, 40),
        flush=st.integers(1, 6),
        chunk=st.integers(1, 8),
        lines=st.lists(
            st.lists(st.sampled_from(["a", "bb", "w7", "é", " ", "\t", "\x85", "\u3000"]),
                     max_size=24).map("".join),
            max_size=12,
        ),
        last_newline=st.booleans(),
    )
    def test_text_blocks_count_like_split_lines(self, block, flush, chunk, lines, last_newline):
        # Each block goes to the profiler in one call. With tiny blocks and
        # buffers, blocks hold more tokens than the buffer and lines longer
        # than it; empty and whitespace-only lines and a last line without
        # a line end must count as str.split() lines do, wherever the edges
        # of the chunks that windows are hashed in fall.
        from annealplan.diversity import profile_corpus

        text = "\n".join(lines) + ("\n" if last_newline else "")
        expected = profile_corpus([line.split() for line in text.split("\n")], 3)
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "c.txt"
            corpus.write_bytes(text.encode())
            out = io.StringIO()
            with mock.patch.multiple(
                "annealplan.diversity",
                _TEXT_BLOCK_BYTES=block, _FLUSH_TOKENS=flush, _COUNT_CHUNK=chunk,
            ), contextlib.redirect_stdout(out):
                assert main(["diversity", "--corpus", str(corpus), "--n-max", "3"]) == 0
        assert_matches_report(out.getvalue(), expected)

    def test_no_thread_outlives_a_call(self, tmp_path, capsys, monkeypatch):
        # The reader keys blocks, and consolidation sorts, on worker threads
        # that must end with the call, the generator or the error.
        import threading

        from annealplan import diversity

        monkeypatch.setattr(diversity, "_TEXT_BLOCK_BYTES", 16)
        monkeypatch.setattr(diversity, "_FLUSH_TOKENS", 8)
        monkeypatch.setattr(diversity, "_CONSOLIDATE_FLOOR", 4)
        good = tmp_path / "good.txt"
        good.write_text("alpha beta gamma delta\n" * 50, encoding="utf-8")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(good.read_bytes() + b"\xff\n" + good.read_bytes())
        before = threading.enumerate()
        assert run_cli(capsys, "diversity", "--corpus", str(good))[0] == 0
        assert threading.enumerate() == before
        code, _, err = run_cli(capsys, "diversity", "--corpus", str(bad))
        assert code == 1 and "invalid UTF-8" in err
        assert threading.enumerate() == before
        documents = diversity.read_text_token_documents(good)
        next(documents)
        documents.close()
        assert threading.enumerate() == before

    def test_one_call_peak_memory(self, tmp_path, capsys):
        # tracemalloc sees numpy's buffers, so the peak repeats exactly. On
        # this 600,000-token corpus a call peaked at 45.2 MiB; feeding one
        # array per line and keeping the full-size temporaries, 54.4 MiB.
        import numpy as np

        from annealplan import diversity  # imports stay outside the traced call

        rng = np.random.default_rng(7)
        words = np.minimum(rng.zipf(1.15, size=600_000), 1 << 22).reshape(-1, 60)
        corpus = tmp_path / "c.txt"
        corpus.write_text(
            "".join(" ".join(f"w{w}" for w in row) + "\n" for row in words.tolist()),
            encoding="utf-8",
        )
        assert diversity.NgramProfiler
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "diversity", "--corpus", str(corpus))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 49 << 20

    def test_single_stream_binary_matches_library(self, tmp_path, capsys):
        import numpy as np

        from annealplan.diversity import profile_corpus

        rng = np.random.default_rng(43)
        docs = [
            rng.integers(0, 40, size=int(rng.integers(0, 30))).tolist() for _ in range(30)
        ]
        corpus = tmp_path / "c.bin"
        corpus.write_bytes(b"".join(struct.pack(f"<I{len(d)}I", len(d), *d) for d in docs))
        code, out, _ = run_cli(
            capsys, "diversity", "--corpus", str(corpus), "--format", "binary",
            "--n-max", "3", "--single-stream",
        )
        assert code == 0
        assert_matches_report(out, profile_corpus([[t for d in docs for t in d]], 3))

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_single_stream_empty_corpus(self, tmp_path, capsys, fmt):
        from annealplan.diversity import profile_corpus

        corpus = tmp_path / "empty"
        corpus.write_bytes(b"")
        code, out, err = run_cli(
            capsys, "diversity", "--corpus", str(corpus), "--format", fmt,
            "--n-max", "2", "--single-stream",
        )
        assert code == 0
        assert_matches_report(out, profile_corpus([[]], 2))
        assert "convention" in err

    def test_huge_length_header_fails_within_memory(self, tmp_path):
        # A header declaring 2**32 - 1 tokens in an 8-byte file must fail
        # on the missing bytes, not on a 16 GiB read: under a 2 GiB
        # address-space cap the latter is an internal error (exit 2).
        corpus = tmp_path / "c.bin"
        corpus.write_bytes(struct.pack("<II", 0xFFFFFFFF, 0))
        proc = run_within_2_gib("diversity", "--corpus", str(corpus), "--format", "binary")
        assert proc.returncode == 1, proc.stderr
        assert (
            f"document at byte offset 0 of {corpus} declares 4294967295 tokens"
            " but the stream ends at byte 8"
        ) in proc.stderr

    def test_huge_n_max_fails_within_memory(self, tmp_path):
        # Per-order state for 10**8 orders is gigabytes; the bound must
        # refuse it before any is built, not end in MemoryError (exit 2).
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c\n")
        proc = run_within_2_gib("diversity", "--corpus", str(corpus), "--n-max", "100000000")
        assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
        assert proc.stderr == "error: --n-max: n_max must be <= 64, got 100000000\n"

    def test_n_max_bounds_are_usage_errors(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c\n", encoding="utf-8")
        for n_max, bound in (("0", ">= 1"), ("65", "<= 64")):
            code, out, err = run_cli(capsys, "diversity", "--corpus", str(corpus), "--n-max", n_max)
            expected = f"error: --n-max: n_max must be {bound}, got {n_max}\n"
            assert (code, out, err) == (1, "", expected)
        code, out, err = run_cli(capsys, "diversity", "--corpus", str(corpus), "--n-max", "64")
        assert code == 0, err
        assert parse_csv(out)[-1]["n"] == "64"


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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "error: --seed must be >= 0, got -1\n"),
            ("--noise", "-1", "error: --noise: noise_sigma must be >= 0, got -1.0\n"),
            ("--noise", "nan", "error: --noise: noise_sigma must be finite, got nan\n"),
        ],
    )
    def test_bad_flag_named(self, tmp_path, capsys, flag, value, message):
        out_path = tmp_path / "runs.json"
        code, out, err = run_cli(capsys, "simulate", flag, value, "--out", str(out_path))
        assert (code, out, err) == (1, "", message)
        assert not out_path.exists()

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
        assert err == "error: source 'med_filter': need at least 2 points to fit, got 1\n"

    def test_distinct_computes_sharing_one_ln_fail_cleanly(self, write_manifest, capsys):
        # 10**16 and 10**16 + 2 steps price to distinct computes with one ln.
        data = json.loads(generate_manifest(scenario_rank_flip(0)))
        steps = {1000: 10**16, 2000: 10**16 + 2}
        data["runs"] = [dict(r, steps=steps[r["steps"]]) for r in data["runs"]
                        if r["steps"] in steps]
        code, out, err = run_cli(capsys, "fit", "--manifest", str(write_manifest(data)))
        assert (code, out) == (1, "")
        assert err.startswith("error: source '") and "degenerate design" in err

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda d: d["runs"].pop(2), "manifest contains no treated runs to analyze"),
            (lambda d: d["runs"][0].update(scores=[]),
             "runs[0]: run (full_replay, 0, 1000) has no scores"),
            (lambda d: d["runs"][0].update(metadata="lr"),
             "field 'metadata' in runs[0] must be an object"),
            (lambda d: d.update(runs=[]), "runs must be a nonempty list"),
        ],
        ids=["baseline-only", "no-scores", "metadata-not-object", "no-runs"],
    )
    def test_manifest_fault_fails_cleanly(self, write_manifest, capsys, fault, message):
        data = manifest_dict()
        fault(data)
        code, out, err = run_cli(capsys, "fit", "--manifest", str(write_manifest(data)))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_manifest_file(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--manifest", "/does/not/exist.json")
        assert code == 1
        assert "cannot read" in err


class TestManifestReuse:
    """main() parses a manifest once while the file's bytes stay unchanged."""

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

    def test_repeats_print_what_a_fresh_process_prints(self, parses, sim_manifest, capsys):
        # One parser serves every main() call of a process: a flag given
        # once, or a parse that failed, must not leak into a later call.
        plan = ["--manifest", str(sim_manifest), "--basis", "total"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        refused = (
            ["rank", *plan],  # by argparse: --budget is required
            ["fit", *plan, "--tasks", "gsm8k*"],  # by the library: no task matches
        )
        accepted = (
            ["fit", *plan], ["rank", *plan, "--budget", "9e19"],
            ["rank", *plan, "--budget", "3e21", "--tasks", "sim_*,gsm8k*"],
            ["crossover", *plan], ["allocate", *plan, "--c-max", "1e21"],
        )
        fresh = {}
        for argv in (*refused, *accepted):
            done = subprocess.run([sys.executable, "-m", "annealplan", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            fresh[tuple(argv)] = (done.returncode, done.stdout, done.stderr)
        assert [fresh[tuple(argv)][0] for argv in refused] == [1, 1]
        for argv in accepted:
            for repeat in (argv, *refused, argv):
                assert run_cli(capsys, *repeat) == fresh[tuple(repeat)]
        assert len(parses) == 1

    def test_a_failed_load_is_not_kept(self, parses, sim_manifest, write_manifest, capsys):
        _, expected, _ = run_cli(capsys, "fit", "--manifest", str(sim_manifest))
        invalid = str(write_manifest({}))
        for _ in range(2):
            assert run_cli(capsys, "fit", "--manifest", invalid) == (
                1, "", "error: missing field 'baseline_id' in manifest\n"
            )
        assert run_cli(capsys, "fit", "--manifest", str(sim_manifest)) == (0, expected, "")
        assert len(parses) == 4
