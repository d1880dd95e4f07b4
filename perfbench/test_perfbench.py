"""Tests of the benchmark's own machinery: oracles, checks, failure counting, tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import annealplan.cli as cli  # noqa: E402

import loop  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _brute_counts(docs, n):
    counter = Counter(tuple(doc[i : i + n]) for doc in docs for i in range(len(doc) - n + 1))
    total = sum(counter.values())
    p = np.array(list(counter.values())) / total
    return len(counter), total, float(-(p * np.log2(p)).sum())


def test_exact_ngram_counts_match_brute_force():
    rng = np.random.default_rng(0)
    docs = [rng.integers(0, 6, int(rng.integers(1, 9))).tolist() for _ in range(40)]
    tokens = np.concatenate([np.array(d) for d in docs])
    doc_ids = np.repeat(np.arange(len(docs)), [len(d) for d in docs])
    for row in workloads.exact_ngram_counts(tokens, doc_ids, 4):
        distinct, total, entropy = _brute_counts(docs, row["n"])
        assert (row["distinct"], row["total"]) == (distinct, total)
        assert row["entropy_bits"] == pytest.approx(entropy, abs=1e-12)


def test_child_peak_rss_leaves_out_the_parents(tmp_path):
    ballast = b"x" * (128 << 20)  # resident: the parent's peak grows by 128 MB
    rss = tmp_path / "rss"
    done = subprocess.run(
        [sys.executable, str(HERE / "runner.py"), "--rss", str(rss), "--",
         "cost", "--zero-cost", "--steps", "1", "--out", str(tmp_path / "cost.csv")],
        env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")},
    )
    del ballast
    assert done.returncode == 0
    assert int(rss.read_text()) < 100 << 10  # kB


def test_tail_needs_ten_samples_beyond():
    assert loop.tail(list(range(10))) is None
    value, percentile, n = loop.tail([float(i) for i in range(30)])
    assert (value, n) == (19.0, 30)
    assert percentile == pytest.approx(100 * 20 / 30)


def _run_cycle(wl, tracer=None):
    """Issue the cycle in this process, once, or twice (untraced, traced) with a tracer."""
    outputs = Path(wl.cycle[0].out).parent / "outputs"
    execute = functools.partial(worker.execute, tracer)
    return loop.closed_loop(wl.cycle, 0.0, len(wl.cycle), tracer is not None, execute, outputs)


@pytest.fixture(scope="module")
def profile(tmp_path_factory):
    work = tmp_path_factory.mktemp("profile")
    wl = workloads.profile_text(5, work)
    return wl, work, _run_cycle(wl)


def test_profile_outputs_pass_the_exact_count(profile):
    wl, work, samples = profile
    assert loop.evaluate(samples, wl.checks, work / "outputs") == (0, [])


def test_corrupted_output_is_counted_as_failed(profile):
    wl, work, samples = profile
    outputs = work / "outputs"
    reference = samples[0]
    data = (outputs / f"diversity-{reference['digest'][:20]}").read_bytes()
    corrupt = data.replace(b"\n1,", b"\n1,9", 1)
    digest = "f" * 64
    (outputs / f"diversity-{digest[:20]}").write_bytes(corrupt)

    repeated = [dict(reference, run=1, digest=digest)]  # a later repetition differs
    failed, problems = loop.evaluate(samples + repeated, wl.checks, outputs)
    assert failed == 1 and "differs" in problems[0]

    only = [dict(reference, digest=digest)]  # the reference itself is wrong
    failed, problems = loop.evaluate(only, wl.checks, outputs)
    assert failed == 1 and "exact" in problems[0]

    crashed = [dict(reference, rc=1, digest=None)]
    assert loop.evaluate(samples + crashed, wl.checks, outputs)[0] == 1


def test_quickstart_checks_catch_a_lost_rank_flip(tmp_path):
    wl = workloads.cli_quickstart(3, tmp_path)
    samples = _run_cycle(wl)
    outputs = tmp_path / "outputs"
    assert loop.evaluate(samples, wl.checks, outputs) == (0, [])
    low = next(s for s in samples if s["key"] == "rank_low")
    high = next(s for s in samples if s["key"] == "rank_high")
    (outputs / f"rank_high-{high['digest'][:20]}").write_bytes(
        (outputs / f"rank_low-{low['digest'][:20]}").read_bytes()
    )
    failed, problems = loop.evaluate(samples, wl.checks, outputs)
    assert failed == 1 and "disagree" in problems[0]


@pytest.mark.parametrize(
    "build, expected",
    [
        (workloads.cli_quickstart,
         {"cli.main", "manifest.load_manifest", "metrics.aggregate_suite", "costs.total_cost",
          "scaling.crossover", "allocation.grid_oracle", "simulate.generate_manifest"}),
        (workloads.profile_ids, {"cli.main", "diversity.read", "diversity.add_document",
                                 "diversity.report"}),
    ],
)
def test_traced_outputs_are_identical_and_names_restored(tmp_path, build, expected):
    wl = build(4, tmp_path)
    before = {name: getattr(cli, name) for name in tracing.CLI_NAMES}
    tracer = tracing.Tracer()
    samples = _run_cycle(wl, tracer)
    assert {name: getattr(cli, name) for name in tracing.CLI_NAMES} == before
    assert loop.evaluate(samples, wl.checks, tmp_path / "outputs") == (0, [])
    runs = tracing.per_run(tracer.spans, [[r, n, v] for (r, n), v in tracer.counts.items()])
    assert expected <= set().union(*(run["busy"] for run in runs.values()))


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["manifest.build_utility_points", 1.0, 5.0, 0, 0],
        ["metrics.aggregate_suite", 2.0, 3.0, 1, 0],
        ["manifest.average_seeds", 3.0, 4.0, 1, 0],
    ]
    run = tracing.per_run(spans, [[0, "scaling.pairs", 3]])[0]
    assert run["self"] == {"cli": 6.0, "manifest": 3.0, "metrics": 1.0}
    assert run["busy"]["manifest.build_utility_points"] == 4.0
    assert run["counts"]["scaling.pairs"] == 3


def test_merged_span_files_keep_their_parents(tmp_path):
    for index in range(2):
        tracer = tracing.Tracer()
        tracer.run_id = index
        tracer.call("cli.main", tracer.call, "manifest.load_manifest", lambda: None)
        tracer.dump(tmp_path / f"{index}.json")
    merged = tracing.load([tmp_path / "0.json", tmp_path / "1.json"])
    assert [span[3] for span in merged["spans"]] == [-1, 0, -1, 2]
    runs = tracing.per_run(merged["spans"], merged["counts"])
    assert all(run["self"]["cli"] >= 0 for run in runs.values())


def test_plan_check_rejects_a_moved_slope(tmp_path):
    wl = workloads.plan_large(6, tmp_path)
    fit = next(c for c in wl.cycle if c.key == "fit")
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(fit.argv) == 0
    data = Path(fit.out).read_bytes()
    assert wl.checks["fit"]({"fit": data}) == []
    rows = data.decode().splitlines()
    fields = rows[1].split(",")
    fields[4] = repr(float(fields[4]) + 1e-6)  # slope column
    rows[1] = ",".join(fields)
    assert wl.checks["fit"]({"fit": "\n".join(rows).encode()})


def test_simulate_check_catches_a_lost_rank_flip(tmp_path):
    wl = workloads.plan_large(6, tmp_path)
    simulate = next(c for c in wl.cycle if c.key == "simulate")
    assert cli.main(simulate.argv) == 0
    data = Path(simulate.out).read_bytes()
    assert wl.checks["simulate"]({"simulate": data}) == []
    swapped = data.replace(b'"wrap_like"', b'"tmp"').replace(b'"mbf_like"', b'"wrap_like"')
    swapped = swapped.replace(b'"tmp"', b'"mbf_like"')
    problems = wl.checks["simulate"]({"simulate": swapped})
    assert any("swap the lead" in p for p in problems)


def test_inputs_depend_only_on_the_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    a = workloads.profile_ids(9, first)
    b = workloads.profile_ids(9, second)
    assert (first / "corpus.bin").read_bytes() == (second / "corpus.bin").read_bytes()
    assert a.properties == b.properties


def test_import_timer_keeps_pace_with_the_run():
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    imports = loop.ImportTimer(4, env)
    imports(0.3)
    assert len(imports.walls) == 2
    imports(1.2)  # a run that ends past its deadline still takes every sample
    assert len(imports.walls) == 4 and all(w > 0 for w in imports.walls)
