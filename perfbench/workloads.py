"""Seeded inputs, command cycles and output checks for the four workloads.

Everything here runs in the benchmark's parent process, before or after
the timed commands. Generation and the reference results (truth lines,
exact n-gram counts) are therefore never inside a metric. The program
under measurement receives only the files written here.

The checks deliberately avoid the code they check: plan outputs are
compared with the noise-free lines the manifest was generated from, and
diversity outputs with an exact, hash-free n-gram count done in numpy.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from annealplan import tasks
from annealplan.costs import ModelSpec, SourceCostModel, SourceKind
from annealplan.simulate import (
    GroundTruthSource,
    Scenario,
    generate_manifest,
    scenario_rank_flip,
    true_crossover,
)

N_MAX = 4
# Absolute tolerance on fitted intercepts, slopes, predictions and
# shares of noise-free manifests. The only error source is float
# rounding of scores near 0.5 (about 1e-16), amplified at most ~50x by
# the ln(compute) lever arm.
TRUTH_TOL = 1e-9
# Entropy of the exact count versus the profiler's, in bits.
ENTROPY_TOL = 1e-9
# How far (in ln compute) the noisy quick-start crossover may sit from
# simulate.true_crossover. With --noise 0.003 the worst of 300 seeds
# was 0.38.
CROSSOVER_LOG_TOL = 1.0
QUICKSTART_NOISE = 0.003

PLAN_SOURCES = 200
PLAN_SEEDS = 3
# The first task id of each group in annealplan.tasks; the `mmlu_*` glob
# keeps two of the four.
PLAN_TASKS = tuple(group[0] for group in tasks.TASK_GROUPS.values())
# exp() of a crossover's ln(compute) overflows above this and
# underflows to 0.0 below the second value; truth lines keep every pair
# at least a unit away, so float noise cannot move a pair across.
_EXP_MAX_LOG = math.log(np.finfo(np.float64).max)
_EXP_MIN_LOG = -745.13

PROFILE_TEXT_DOCS = 20_000  # 60 words each: 1.2 M tokens, one flush inside add_document
PROFILE_TEXT_WORDS = 60
PROFILE_TEXT_TYPES = 1 << 22
PROFILE_ZIPF_A = 1.15
PROFILE_IDS_TOKENS = 1_500_000


@dataclass
class Command:
    """One CLI invocation of a workload's cycle.

    ``name`` groups commands for the per-command metrics (``cli.<name>_ms``);
    ``key`` is unique within the cycle and names the file the command writes.
    """

    name: str
    key: str
    argv: list[str]
    out: str


def _command(work: Path, name: str, key: str, args: list[str], out: Path | None = None) -> Command:
    out = out or work / f"out_{key}.csv"
    return Command(name, key, [*args, "--out", str(out)], str(out))


@dataclass
class Workload:
    name: str
    subprocess: bool
    cycle: list[Command]
    manifest: str | None = None  # the manifest the plan commands read
    properties: dict = field(default_factory=dict)
    # command key -> callable(outputs by command key) -> list of problems
    checks: dict = field(default_factory=dict)
    why: str = ""


# ----------------------------------------------------------------- CSV


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _close(a: float, b: float, tol: float = TRUTH_TOL) -> bool:
    return abs(a - b) <= tol


# ------------------------------------------------------ n-gram oracle


def exact_ngram_counts(tokens: np.ndarray, doc_ids: np.ndarray, n_max: int) -> list[dict]:
    """Distinct, total and entropy per order, by sorting whole n-grams.

    N-grams do not cross documents. Rows are compared column by column
    after a lexicographic sort, so no hashing is involved.
    """
    rows = []
    size = len(tokens)
    for n in range(1, n_max + 1):
        width = size - n + 1
        if width <= 0:
            rows.append({"n": n, "distinct": 0, "total": 0, "entropy_bits": 0.0})
            continue
        starts = np.flatnonzero(doc_ids[:width] == doc_ids[n - 1 : n - 1 + width])
        columns = [tokens[starts + j] for j in range(n)]
        order = np.lexsort(columns[::-1])
        columns = [c[order] for c in columns]
        change = np.zeros(len(starts), dtype=bool)
        change[0] = True
        for c in columns:
            change[1:] |= c[1:] != c[:-1]
        bounds = np.append(np.flatnonzero(change), len(starts))
        counts = np.diff(bounds)
        p = counts / len(starts)
        rows.append(
            {
                "n": n,
                "distinct": int(len(counts)),
                "total": int(len(starts)),
                "entropy_bits": float(-(p * np.log2(p)).sum()),
            }
        )
    return rows


def _diversity_properties(tokens: np.ndarray, doc_ids: np.ndarray, n_docs: int, expected) -> dict:
    props = {"diversity.documents": n_docs, "diversity.tokens": int(len(tokens))}
    for row in expected:
        props[f"diversity.distinct_n{row['n']}"] = row["distinct"]
    n4 = expected[N_MAX - 1]
    props["diversity.ratio_n4"] = n4["distinct"] / n4["total"]
    # A fresh profiler digests each word once, on its first occurrence.
    props["diversity.first_occurrence_share"] = expected[0]["distinct"] / len(tokens)
    return props


def _check_diversity(expected: list[dict]):
    def check(outputs: dict) -> list[str]:
        problems = []
        got = _rows(outputs["diversity"])
        if len(got) != len(expected):
            return [f"diversity: {len(got)} rows, expected {len(expected)}"]
        for row, want in zip(got, expected):
            n = want["n"]
            if int(row["distinct"]) != want["distinct"] or int(row["total"]) != want["total"]:
                problems.append(
                    f"diversity n={n}: distinct/total {row['distinct']}/{row['total']},"
                    f" exact {want['distinct']}/{want['total']}"
                )
            if not _close(float(row["entropy_bits"]), want["entropy_bits"], ENTROPY_TOL):
                problems.append(
                    f"diversity n={n}: entropy {row['entropy_bits']}, exact {want['entropy_bits']!r}"
                )
        return problems

    return check


# ------------------------------------------------------- text corpora


def _zipf_ids(rng: np.random.Generator, size: int) -> np.ndarray:
    ids = rng.zipf(PROFILE_ZIPF_A, size)
    while True:
        over = ids > PROFILE_TEXT_TYPES
        if not over.any():
            return ids.astype(np.int64)
        ids[over] = rng.zipf(PROFILE_ZIPF_A, int(over.sum()))


def write_text_corpus(path: Path, rng: np.random.Generator, n_docs: int):
    """Criterion 09b's layout (one line of ``w<i>`` words per document), Zipf words."""
    tokens = _zipf_ids(rng, n_docs * PROFILE_TEXT_WORDS)
    uniq, inverse = np.unique(tokens, return_inverse=True)
    words = np.array([f"w{i}" for i in uniq.tolist()], dtype=object)[inverse]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for d in range(n_docs):
            handle.write(" ".join(words[d * PROFILE_TEXT_WORDS : (d + 1) * PROFILE_TEXT_WORDS]))
            handle.write("\n")
    doc_ids = np.repeat(np.arange(n_docs), PROFILE_TEXT_WORDS)
    return tokens, doc_ids


def _diversity_command(work: Path, corpus: Path, fmt: str) -> Command:
    return _command(
        work, "diversity", "diversity",
        ["diversity", "--corpus", str(corpus), "--format", fmt, "--n-max", str(N_MAX)],
    )


def _manifest_properties(payload: bytes) -> dict:
    manifest = json.loads(payload)
    return {
        "manifest.bytes": len(payload),
        "manifest.runs": len(manifest["runs"]),
        "manifest.scores": sum(len(run["scores"]) for run in manifest["runs"]),
        "manifest.sources": len(manifest["sources"]),
    }


# ------------------------------------------------------------ plan-large


def _plan_sources(rng: np.random.Generator) -> list[GroundTruthSource]:
    # Source prices depend only on the default geometry and training model.
    free = SourceCostModel(SourceKind.ZERO_COST)
    probe = Scenario(sources=(GroundTruthSource("probe", 0.0, 0.0, free),))
    sources = []
    for i in range(PLAN_SOURCES):
        kind = (SourceKind.MBF, SourceKind.REPHRASE, SourceKind.SYNTHETIC)[i % 3]
        if kind is SourceKind.MBF:
            model = SourceCostModel(
                kind=kind,
                mbf_recall=float(rng.uniform(2.0, 40.0)),
                annotator_per_token_flops=float(rng.uniform(1e8, 4e8)),
            )
        else:
            model = SourceCostModel(
                kind=kind,
                expansion_factor=float(rng.uniform(1.0, 4.0)),
                generator=ModelSpec(float(rng.uniform(1e9, 8e9))),
            )
        # One source in five has a negative slope. Every slope stays well
        # clear of zero, so float noise in a fit cannot move a source in
        # or out of the allocation.
        slope = float(rng.uniform(1e-4, 0.02)) * (1.0 if rng.random() < 0.8 else -0.25)
        stub = GroundTruthSource("stub", 0.0, 0.0, model)
        mid = 0.5 * (
            math.log(probe.source_compute(stub, probe.steps_grid[0]))
            + math.log(probe.source_compute(stub, probe.steps_grid[-1]))
        )
        delta_mid = float(rng.uniform(0.02, 0.2))
        sources.append(GroundTruthSource(f"src{i:03d}", delta_mid - slope * mid, slope, model))
    return sources


def _truth_crossovers(sources: list[GroundTruthSource]) -> int | None:
    """Pairs whose true lines meet at a representable compute.

    None when some pair sits so near a representability edge, or has
    slopes so close, that float noise in the fits could change its status.
    """
    ordered = sorted(sources, key=lambda s: s.source_id)
    found = 0
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if abs(a.true_slope - b.true_slope) < 1e-10:
                return None
            log_c = (b.true_intercept - a.true_intercept) / (a.true_slope - b.true_slope)
            if abs(log_c - _EXP_MAX_LOG) < 1.0 or abs(log_c - _EXP_MIN_LOG) < 1.0:
                return None
            found += _EXP_MIN_LOG < log_c < _EXP_MAX_LOG
    return found


def _expand_runs(manifest: dict, rng: np.random.Generator) -> None:
    """Give every run PLAN_SEEDS seeds and PLAN_TASKS tasks without moving a delta.

    Per-task and per-seed offsets are added to baseline and treated scores
    alike, so every task's seed-averaged delta equals the generated one.
    """
    task_offsets = rng.uniform(-0.1, 0.1, len(PLAN_TASKS)).tolist()
    seed_offsets = (-0.01, 0.0, 0.01)
    runs = []
    for run in manifest["runs"]:
        if run["seed"] != 0:
            continue  # the generator's second baseline seed repeats the first
        value = run["scores"][0]["value"]
        for seed in range(PLAN_SEEDS):
            runs.append(
                {
                    **run,
                    "seed": seed,
                    "scores": [
                        {"task_id": task, "metric": "brier", "n_examples": 100 + 7 * j,
                         "value": value + task_offsets[j] + seed_offsets[seed]}
                        for j, task in enumerate(PLAN_TASKS)
                    ],
                }
            )
    manifest["runs"] = runs


def plan_large(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    while True:
        sources = _plan_sources(rng)
        crossovers = _truth_crossovers(sources)
        if crossovers is not None:
            break
    scenario = Scenario(sources=tuple(sources), rng_seed=seed)
    manifest = json.loads(generate_manifest(scenario))
    _expand_runs(manifest, rng)
    path = work / "plan_large.json"
    payload = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8")
    path.write_bytes(payload)
    truth = {s.source_id: s for s in sources}
    budgets = (1e20, 1e21, 1e22)

    def plan(name, key, *args):
        return _command(work, name, key, [name, "--manifest", str(path), "--basis", "total", *args])

    wl = Workload(
        "plan-large",
        subprocess=False,
        manifest=str(path),
        cycle=[
            # The quick start's first step, so the simulate layer runs on a
            # bounded workload too.
            _command(work, "simulate", "simulate",
                     ["simulate", "--scenario", "rank-flip", "--seed", str(seed)],
                     out=work / "rank_flip.json"),
            plan("fit", "fit"),
            plan("rank", "rank0", "--budget", repr(budgets[0])),
            plan("rank", "rank1", "--budget", repr(budgets[1]), "--tasks", "mmlu_*"),
            plan("rank", "rank2", "--budget", repr(budgets[2])),
            plan("crossover", "crossover"),
            plan("allocate", "allocate", "--c-max", "1e22", "--tasks", "mmlu_*,gsm8k*"),
            plan("crossover", "crossover_mmlu", "--tasks", "mmlu_*"),
            plan("crossover", "crossover_qa", "--tasks", "pubmedqa,gsm8k*"),
        ],
        why="sweep-scale manifest: manifest validation and utility points dominate, startup excluded",
    )
    steps = len(scenario.steps_grid)
    wl.properties = {
        **_manifest_properties(payload),
        "manifest.points": len(sources) * steps,
        "scaling.true_crossovers": crossovers,
    }
    wl.checks["simulate"] = lambda o: _check_rank_flip_manifest(o["simulate"], steps)
    wl.checks["fit"] = lambda o: _check_fits(o["fit"], truth, steps)
    for i, budget in enumerate(budgets):
        key = f"rank{i}"
        wl.checks[key] = lambda o, key=key, budget=budget: _check_rank(o[key], truth, budget)
    for key in ("crossover", "crossover_mmlu", "crossover_qa"):
        wl.checks[key] = lambda o, key=key: _check_crossover_count(o[key], truth, crossovers)
    wl.checks["allocate"] = lambda o: _check_shares(o["allocate"], truth)
    return wl


def _check_rank_flip_manifest(data: bytes, steps_per_source: int) -> list[str]:
    """The noise-free rank-flip manifest: wrap_like leads at the shortest
    run and falls with steps, mbf_like climbs past it by the longest."""
    manifest = json.loads(data)
    baseline = manifest["baseline_id"]
    scores: dict[str, dict[int, list[float]]] = {}
    for run in manifest["runs"]:
        scores.setdefault(run["source_id"], {}).setdefault(run["steps"], []).append(
            run["scores"][0]["value"]
        )
    if sorted(scores) != sorted([baseline, "mbf_like", "wrap_like"]) or any(
        len(by_steps) != steps_per_source for by_steps in scores.values()
    ):
        return [f"simulate: expected 3 series of {steps_per_source} steps, got {sorted(scores)}"]
    # Brier: lower is better, so a delta is the baseline minus the score.
    deltas = {
        source: [math.fsum(scores[baseline][k]) / len(scores[baseline][k]) - values[0]
                 for k, values in sorted(scores[source].items())]
        for source in ("wrap_like", "mbf_like")
    }
    wrap, mbf = deltas["wrap_like"], deltas["mbf_like"]
    problems = []
    if not (wrap[0] > mbf[0] and mbf[-1] > wrap[-1]):
        problems.append("simulate: the two sources do not swap the lead across the grid")
    if not (all(b < a for a, b in zip(wrap, wrap[1:])) and all(b > a for a, b in zip(mbf, mbf[1:]))):
        problems.append("simulate: noise-free deltas are not monotone in steps")
    return problems


def _check_fits(data: bytes, truth: dict, steps_per_source: int) -> list[str]:
    rows = _rows(data)
    fits = [r for r in rows if r["record"] == "fit"]
    points = [r for r in rows if r["record"] == "point"]
    problems = []
    if sorted(r["source_id"] for r in fits) != sorted(truth):
        problems.append(f"fit: {len(fits)} fit rows do not name the {len(truth)} sources")
    if len(points) != len(truth) * steps_per_source:
        problems.append(f"fit: {len(points)} point rows, expected {len(truth) * steps_per_source}")
    for r in fits:
        source = truth.get(r["source_id"])
        if source is None:
            continue
        if not (_close(float(r["intercept"]), source.true_intercept)
                and _close(float(r["slope"]), source.true_slope)):
            problems.append(
                f"fit {r['source_id']}: ({r['intercept']}, {r['slope']}) vs truth"
                f" ({source.true_intercept!r}, {source.true_slope!r})"
            )
    return problems


def _check_rank(data: bytes, truth: dict, budget: float) -> list[str]:
    rows = _rows(data)
    problems = []
    if sorted(r["source_id"] for r in rows) != sorted(truth):
        problems.append(f"rank@{budget:g}: rows do not name every source once")
    previous = math.inf
    for i, r in enumerate(rows):
        value = float(r["predicted_delta"])
        source = truth.get(r["source_id"])
        if int(r["rank"]) != i + 1:
            problems.append(f"rank@{budget:g}: row {i} has rank {r['rank']}")
        if value > previous + TRUTH_TOL:
            problems.append(f"rank@{budget:g}: row {i} out of order")
        previous = value
        if source is not None:
            want = source.true_intercept + source.true_slope * math.log(budget)
            if not _close(value, want):
                problems.append(f"rank@{budget:g} {r['source_id']}: {value!r} vs truth {want!r}")
    return problems


def _check_crossover_count(data: bytes, truth: dict, expected: int) -> list[str]:
    rows = _rows(data)
    n = len(truth)
    found = sum(r["status"] == "crossover" for r in rows)
    problems = []
    if len(rows) != n * (n - 1) // 2:
        problems.append(f"crossover: {len(rows)} rows, expected {n * (n - 1) // 2} pairs")
    if found != expected:
        problems.append(f"crossover: {found} crossovers, truth has {expected}")
    return problems


def _check_shares(data: bytes, truth: dict) -> list[str]:
    rows = [r for r in _rows(data) if r["record"] == "assignment"]
    positive = math.fsum(s.true_slope for s in truth.values() if s.true_slope > 0)
    problems = []
    if sorted(r["source_id"] for r in rows) != sorted(truth):
        problems.append("allocate: assignment rows do not name every source once")
    for r in rows:
        source = truth.get(r["source_id"])
        if source is None:
            continue
        want = source.true_slope / positive if source.true_slope > 0 else 0.0
        if not _close(float(r["share"]), want):
            problems.append(f"allocate {r['source_id']}: share {r['share']} vs {want!r}")
    return problems


# -------------------------------------------------------- cli-quickstart


def _oracle4_scenario(seed: int, rng: np.random.Generator) -> Scenario:
    kinds = [
        SourceCostModel(kind=SourceKind.MBF, mbf_recall=22.0, annotator_per_token_flops=2e8),
        SourceCostModel(kind=SourceKind.REPHRASE, expansion_factor=3.0, generator=ModelSpec(3e9)),
        SourceCostModel(kind=SourceKind.SYNTHETIC, expansion_factor=2.0, generator=ModelSpec(1e9)),
        SourceCostModel(kind=SourceKind.MBF, mbf_recall=8.0, annotator_per_token_flops=4e8),
    ]
    sources = tuple(
        GroundTruthSource(
            f"source_{i}",
            float(rng.uniform(-0.4, -0.2)),
            float(rng.uniform(0.004, 0.012)),
            model,
        )
        for i, model in enumerate(kinds)
    )
    return Scenario(sources=sources, rng_seed=seed)


def cli_quickstart(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    runs = work / "runs.json"
    scenario = scenario_rank_flip(seed, noise_sigma=QUICKSTART_NOISE)
    crossover_true = true_crossover(scenario, "wrap_like", "mbf_like")
    four = _oracle4_scenario(seed, rng)
    four_path = work / "four_sources.json"
    four_path.write_bytes(generate_manifest(four))

    def plan(name, key, manifest, *args):
        command = name.split("_")[0]  # allocate_oracle4 is an `allocate`
        return _command(work, name, key, [command, "--manifest", str(manifest), "--basis", "total", *args])

    # Each 4-source oracle follows quick-start commands, never another
    # oracle: back to back, the second ran about 15 % faster, which split
    # the tail's samples into two groups.
    wl = Workload(
        "cli-quickstart",
        subprocess=True,
        manifest=str(runs),
        cycle=[
            _command(work, "simulate", "simulate",
                     ["simulate", "--scenario", "rank-flip", "--seed", str(seed),
                      "--noise", repr(QUICKSTART_NOISE)], out=runs),
            plan("fit", "fit", runs),
            plan("rank", "rank_low", runs, "--budget", "9e19"),
            plan("allocate_oracle4", "allocate4", four_path, "--c-max", "4e21", "--with-oracle"),
            plan("rank", "rank_high", runs, "--budget", "3e21"),
            plan("crossover", "crossover", runs),
            plan("allocate", "allocate", runs, "--c-max", "1e21", "--with-oracle"),
            plan("allocate_oracle4", "allocate4_high", four_path, "--c-max", "1e22", "--with-oracle"),
        ],
        why="README quick start as subprocesses: interpreter start, imports and the cold grid oracle",
    )
    wl.checks["fit"] = lambda o: _check_quick_fit(o["fit"])
    wl.checks["rank_high"] = lambda o: _check_rank_flip(o["rank_low"], o["rank_high"])
    wl.checks["crossover"] = lambda o: _check_quick_crossover(o["crossover"], crossover_true)
    wl.checks["allocate"] = lambda o: _check_oracle(o["allocate"], None)
    for key in ("allocate4", "allocate4_high"):
        wl.checks[key] = lambda o, key=key: _check_oracle(o[key], {s.source_id: s for s in four.sources})
    # The rank-flip manifest the quick start analyses: generate_manifest is
    # what `simulate` writes, so its shape is known before the CLI runs.
    wl.properties = {
        **_manifest_properties(generate_manifest(scenario)),
        "manifest.points": len(scenario.sources) * len(scenario.steps_grid),
    }
    return wl


def _check_quick_fit(data: bytes) -> list[str]:
    rows = _rows(data)
    fits = {r["source_id"]: float(r["slope"]) for r in rows if r["record"] == "fit"}
    if set(fits) != {"wrap_like", "mbf_like"} or sum(r["record"] == "point" for r in rows) != 12:
        return ["fit: expected two fits over 12 points"]
    if not fits["mbf_like"] > fits["wrap_like"]:
        return ["fit: mbf_like no longer out-scales wrap_like"]
    return []


def _check_rank_flip(low: bytes, high: bytes) -> list[str]:
    top_low, top_high = _rows(low)[0]["source_id"], _rows(high)[0]["source_id"]
    if top_low == top_high:
        return [f"rank: {top_low} leads at both budgets; the two calls should disagree"]
    return []


def _check_quick_crossover(data: bytes, truth: float) -> list[str]:
    rows = _rows(data)
    if len(rows) != 1 or rows[0]["status"] != "crossover" or rows[0]["in_range"] != "true":
        return [f"crossover: expected one in-range crossover, got {rows}"]
    gap = abs(math.log(float(rows[0]["compute"])) - math.log(truth))
    if gap > CROSSOVER_LOG_TOL:
        return [f"crossover: ln compute {gap:.3f} away from the true crossover"]
    return []


def _check_oracle(data: bytes, truth: dict | None) -> list[str]:
    rows = _rows(data)
    summary = rows[-1]
    problems = []
    if summary["record"] != "summary" or summary["oracle_gap"] == "":
        return ["allocate: no oracle summary row"]
    if not float(summary["oracle_gap"]) <= 0.0:
        problems.append(f"allocate: oracle beats the closed form by {summary['oracle_gap']}")
    if truth is not None:
        problems += _check_shares(data, truth)
    return problems


# --------------------------------------------------------- profile-text


def profile_text(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    corpus = work / "corpus.txt"
    tokens, doc_ids = write_text_corpus(corpus, rng, PROFILE_TEXT_DOCS)
    expected = exact_ngram_counts(tokens, doc_ids, N_MAX)
    wl = Workload(
        "profile-text",
        subprocess=False,
        cycle=[_diversity_command(work, corpus, "text")],
        why="Zipf text: reader, string encoding, window hash, unique and consolidation all work",
    )
    wl.checks["diversity"] = _check_diversity(expected)
    wl.properties = _diversity_properties(tokens, doc_ids, PROFILE_TEXT_DOCS, expected)
    wl.properties["corpus.bytes"] = corpus.stat().st_size
    return wl


# ---------------------------------------------------------- profile-ids


def write_id_corpus(path: Path, rng: np.random.Generator, n_tokens: int):
    """Templated token ids in uint32-LE length-prefixed documents.

    Four in five spans copy one of 2000 templates (Zipf-popular), the
    rest are short random spans, so repeated n-grams dominate. Document
    lengths are log-normal: mostly short, a few thousands of tokens long.
    """
    vocab = 32_000
    lengths = rng.integers(4, 33, 2000)
    flat = rng.integers(0, vocab, int(lengths.sum()))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    pieces, total = [], 0
    while total < n_tokens:
        if rng.random() < 0.8:
            k = min(int(rng.zipf(1.3)) - 1, len(lengths) - 1)
            piece = flat[offsets[k] : offsets[k + 1]]
        else:
            piece = rng.integers(0, vocab, int(rng.integers(1, 9)))
        pieces.append(piece)
        total += len(piece)
    tokens = np.concatenate(pieces)[:n_tokens].astype(np.int64)
    doc_lengths = []
    remaining = n_tokens
    while remaining:
        length = int(min(max(1, rng.lognormal(3.5, 1.3)), remaining))
        doc_lengths.append(length)
        remaining -= length
    doc_lengths = np.array(doc_lengths, dtype=np.int64)
    n_docs = len(doc_lengths)
    out = np.empty(n_tokens + n_docs, dtype="<u4")
    headers = np.concatenate([[0], np.cumsum(doc_lengths + 1)[:-1]])
    mask = np.ones(len(out), dtype=bool)
    mask[headers] = False
    out[headers] = doc_lengths
    out[mask] = tokens
    path.write_bytes(out.tobytes())
    doc_ids = np.repeat(np.arange(n_docs), doc_lengths)
    return tokens, doc_ids, n_docs


def profile_ids(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 4])
    corpus = work / "corpus.bin"
    tokens, doc_ids, n_docs = write_id_corpus(corpus, rng, PROFILE_IDS_TOKENS)
    expected = exact_ngram_counts(tokens, doc_ids, N_MAX)
    wl = Workload(
        "profile-ids",
        subprocess=False,
        cycle=[_diversity_command(work, corpus, "binary")],
        why="templated ids, varied document lengths: binary reader, boundary masks, small tables",
    )
    wl.checks["diversity"] = _check_diversity(expected)
    wl.properties = _diversity_properties(tokens, doc_ids, n_docs, expected)
    wl.properties["corpus.bytes"] = corpus.stat().st_size
    return wl


BUILDERS = {
    "plan-large": plan_large,
    "cli-quickstart": cli_quickstart,
    "profile-text": profile_text,
    "profile-ids": profile_ids,
}
