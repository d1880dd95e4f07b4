"""Seeded end-to-end benchmark of the annealplan CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload plan-large --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run from the root of a checkout; the program is imported from ``src``.
One workload prints a report and, as its last line, one JSON object:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--workload all`` runs every workload in both modes and
prints one CSV row per workload with every metric. Inputs are generated
from ``--seed`` under ``perfbench/_work``; each run's details (samples,
properties, machine, problems) are kept in ``perfbench/_work/results``.
See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import loop
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = WORK / "results"

# Fresh `import annealplan.cli` interpreters per run, for setup_s, timed
# between cycles and spread over the run.
SETUP_SAMPLES = 16
# Repeats of the traced run's reference timings: a bare interpreter, a
# bare json.loads, and `python -X importtime`.
REFERENCE_REPEATS = 5
IMPORTTIME_REPEATS = 3

LOAD_SHAPE = (
    "closed loop, one caller, one benchmark process; subprocess commands run"
    " one at a time; no thread pool"
)

# The metrics BENCHMARK.json bounds, reported on every workload.
END_TO_END = {
    "setup_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
COMMANDS = ("simulate", "fit", "rank", "crossover", "allocate", "allocate_oracle4", "diversity")
BUSY = (
    "manifest.load_manifest", "manifest.build_utility_points", "manifest.average_seeds",
    "metrics.aggregate_suite", "metrics.utility_delta", "costs.total_cost",
    "scaling.fit_by_source", "scaling.rank_at_budget", "scaling.crossover",
    "allocation.allocate_proportional", "simulate.generate_manifest",
    "diversity.read", "diversity.add_document", "diversity.report",
)
CALLS = ("metrics.aggregate_suite", "metrics.utility_delta", "costs.total_cost")
PROPERTY_UNITS = {
    "manifest.bytes": "bytes",
    "manifest.runs": "count",
    "manifest.scores": "count",
    "manifest.points": "count",
    "diversity.documents": "count",
    "diversity.tokens": "count",
    **{f"diversity.distinct_n{n}": "count" for n in range(1, 5)},
    "diversity.ratio_n4": "ratio",
    "diversity.first_occurrence_share": "ratio",
}


PER_LAYER = dict(sorted({
    "cli.interpreter_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_annealplan_ms": "ms",
    **{f"cli.{name}_ms": "ms" for name in COMMANDS},
    "cli.main_self_s": "s",
    "manifest.json_decode_ref_s": "s",
    **{f"{name}_s": "s" for name in BUSY},
    **{f"{name}_calls": "count" for name in CALLS},
    "scaling.pairs": "count",
    "scaling.crossovers_found": "count",
    "scaling.crossover_found_ratio": "ratio",
    "allocation.grid_oracle_cold_s": "s",
    "allocation.grid_oracle_warm_s": "s",
    "allocation.grid_points": "count",
    **PROPERTY_UNITS,
    **{f"{layer}.self_share": "ratio" for layer in tracing.LAYERS},
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
}.items()))


# ------------------------------------------------------------ processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stderr=subprocess.DEVNULL) -> tuple[int, float]:
    """Run a child to completion: (exit code, wall seconds)."""
    start = perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=stderr)
    proc.wait()
    return proc.returncode, perf_counter() - start


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def import_breakdown(work: Path) -> dict:
    """numpy's cumulative and annealplan's own import time, from -X importtime."""
    numpy_us, annealplan_us = [], []
    log = work / "importtime.txt"
    for _ in range(IMPORTTIME_REPEATS):
        with open(log, "wb") as handle:
            spawn(python("-X", "importtime", "-c", "import annealplan.cli"), stderr=handle)
        own = 0
        for line in log.read_text(encoding="utf-8").splitlines():
            match = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$", line)
            if not match:
                continue
            self_us, cumulative_us, module = int(match[1]), int(match[2]), match[3].strip()
            if module == "numpy":
                numpy_us.append(cumulative_us)
            if module == "annealplan" or module.startswith("annealplan."):
                own += self_us
        annealplan_us.append(own)
    return {
        "cli.import_numpy_ms": loop.median(numpy_us) / 1e3,
        "cli.import_annealplan_ms": loop.median(annealplan_us) / 1e3,
    }


def machine() -> dict:
    import numpy

    def proc_field(path, key):
        try:
            for line in Path(path).read_text(encoding="utf-8").splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": proc_field("/proc/cpuinfo", "model name"),
        "memory": proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_shape": LOAD_SHAPE,
    }


# ------------------------------------------------------------ the loop


def run_commands(wl, seconds: float, trace: bool, work: Path):
    """Issue the workload's cycle; returns (samples, worker peak RSS kB,
    setup_s samples, recorded spans). An untraced run times SETUP_SAMPLES
    fresh imports between its cycles; a traced run times none."""
    outputs = work / "outputs"
    min_commands = loop.TAIL_BEYOND + 1
    spans_dir = work / "spans"
    spans_dir.mkdir()
    setup_samples = 0 if trace else SETUP_SAMPLES
    if wl.subprocess:
        runner = str(HERE / "runner.py")

        rss = work / "rss.txt"

        def execute(command, traced, run_id):
            options = ["--rss", str(rss)]
            if traced:
                options += ["--spans", str(spans_dir / f"{run_id}.json"), "--run-id", str(run_id)]
            rss.unlink(missing_ok=True)
            with open(work / "stderr.txt", "wb") as err:
                rc, wall = spawn(python(runner, *options, "--", *command.argv), stderr=err)
            return rc, wall, {"rss_kb": int(rss.read_text()) if rss.exists() else 0}

        imports = loop.ImportTimer(setup_samples, child_env())
        samples = loop.closed_loop(
            wl.cycle, seconds, min_commands, trace, execute, outputs, imports
        )
        worker_rss, setup_walls = None, imports.walls
    else:
        samples, worker_rss, setup_walls = run_worker(
            wl, seconds, min_commands, trace, setup_samples, outputs,
            spans_dir / "worker.json", work,
        )
    return samples, worker_rss, setup_walls, tracing.load(sorted(spans_dir.glob("*.json")))


def run_worker(wl, seconds, min_commands, trace, setup_samples, outputs, spans, work):
    """A fresh interpreter running the in-process loop: (samples, peak RSS
    kB, setup_s samples)."""
    spec = work / "spec.json"
    result = work / "result.json"
    spec.write_text(json.dumps({
        "cycle": [vars(c) for c in wl.cycle], "seconds": seconds,
        "min_commands": min_commands, "setup_samples": setup_samples,
        "trace": trace, "outputs": str(outputs), "spans": str(spans),
    }), encoding="utf-8")
    with open(work / "stderr.txt", "wb") as err:
        rc, _ = spawn(python(str(HERE / "worker.py"), str(spec), str(result)), stderr=err)
    if rc != 0:
        raise RuntimeError(
            "worker failed:\n" + (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        )
    data = json.loads(result.read_text(encoding="utf-8"))
    return data["samples"], data["peak_rss_kb"], data["setup_walls"]


# ------------------------------------------------------------- metrics


def end_to_end(wl, samples, worker_rss, setup_walls) -> tuple[dict, dict]:
    """The bounded metrics, and notes: the tail's percentile and sample count,
    and on the profile workloads ``profile_tokens_per_s``."""
    walls = [s["wall"] for s in samples]
    tail = loop.tail(walls)
    rss_kb = worker_rss if worker_rss is not None else max(s["rss_kb"] for s in samples)
    metrics = {
        "setup_s": loop.median(setup_walls),
        "cmd_p50_ms": loop.median(walls) * 1e3,
        "cmd_tail_ms": tail[0] * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }
    notes = {"cmd_tail_percentile": tail[1], "cmd_samples": tail[2]}
    if "diversity.tokens" in wl.properties:
        tokens = wl.properties["diversity.tokens"]
        notes["profile_tokens_per_s"] = loop.median(
            [tokens / s["wall"] for s in samples if s["name"] == "diversity"]
        )
    return metrics, notes


def per_layer(wl, samples, runs, work) -> dict:
    """The per-layer metrics of a traced run, from its samples and spans."""
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    # Layers a workload does not run read 0 (e.g. the grid oracle on plan-large).
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({k: v for k, v in wl.properties.items() if k in PROPERTY_UNITS})

    for name in COMMANDS:
        metrics[f"cli.{name}_ms"] = loop.median([s["wall"] for s in plain if s["name"] == name]) * 1e3

    def per_command(field, name, among=traced):
        """Median over the traced commands that record ``name`` of its per-command total."""
        return loop.median(
            [runs[s["run"]][field][name] for s in among
             if s["run"] in runs and name in runs[s["run"]][field]]
        )

    metrics["cli.main_self_s"] = per_command("self", "cli")
    for name in BUSY:
        metrics[f"{name}_s"] = per_command("busy", name)
    for name in CALLS:
        metrics[f"{name}_calls"] = per_command("calls", name)
    for name in ("scaling.pairs", "scaling.crossovers_found"):
        metrics[name] = per_command("counts", name)
    if metrics["scaling.pairs"]:
        metrics["scaling.crossover_found_ratio"] = (
            metrics["scaling.crossovers_found"] / metrics["scaling.pairs"]
        )
    oracle4 = [s for s in traced if s["name"] == "allocate_oracle4"]
    metrics["allocation.grid_oracle_cold_s"] = per_command("busy", tracing.ORACLE, oracle4)
    metrics["allocation.grid_oracle_warm_s"] = per_command("busy", tracing.ORACLE_WARM, oracle4)
    metrics["allocation.grid_points"] = per_command("counts", "allocation.grid_points", oracle4)

    # The warm oracle repeat is work the trace adds, so it is left out of
    # the traced wall time and of the allocation layer's self time.
    def warm(s):
        return runs[s["run"]]["busy"][tracing.ORACLE_WARM] if s["run"] in runs else 0.0

    total = sum(s["wall"] - warm(s) for s in traced)
    for layer in tracing.LAYERS:
        spent = sum(run["self"][layer] for run in runs.values())
        if layer == "allocation":
            spent -= sum(warm(s) for s in traced)
        metrics[f"{layer}.self_share"] = spent / total if total else 0.0

    # Samples come in back-to-back pairs of one traced, one untraced run.
    overhead = base = 0.0
    for command in wl.cycle:
        pairs = [(a, b) if a["traced"] else (b, a)
                 for a, b in zip(samples[0::2], samples[1::2]) if a["key"] == command.key]
        overhead += loop.median([t["wall"] - warm(t) - u["wall"] for t, u in pairs])
        base += loop.median([u["wall"] for _, u in pairs])
    metrics["trace.overhead_ms"] = overhead * 1e3
    metrics["trace.overhead_share"] = overhead / base if base else 0.0

    metrics["cli.interpreter_ms"] = loop.median(
        [spawn(python("-c", "pass"))[1] for _ in range(REFERENCE_REPEATS)]
    ) * 1e3
    metrics.update(import_breakdown(work))
    if wl.manifest is not None:
        text = Path(wl.manifest).read_text(encoding="utf-8")
        decode = []
        for _ in range(REFERENCE_REPEATS):
            start = perf_counter()
            json.loads(text)
            decode.append(perf_counter() - start)
        metrics["manifest.json_decode_ref_s"] = loop.median(decode)
    return metrics


# ------------------------------------------------------------- one run


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.BUILDERS[name](seed, work)
        loop.import_wall(child_env())  # writes the bytecode cache, as a user's first run would
        samples, worker_rss, setup_walls, trace_data = run_commands(wl, seconds, trace, work)
        failed, problems = loop.evaluate(samples, wl.checks, work / "outputs")
        if not trace:
            metrics, notes = end_to_end(wl, samples, worker_rss, setup_walls)
        else:
            notes = {}
            runs = tracing.per_run(trace_data["spans"], trace_data["counts"])
            metrics = per_layer(wl, samples, runs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "why": wl.why,
        "machine": machine(),
        "properties": wl.properties, "attempted": len(samples),
        "failed": failed, "failed_ratio": failed / len(samples), "problems": problems,
        "notes": notes, "setup_walls": setup_walls, "metrics": metrics,
        "samples": [{k: v for k, v in s.items() if k != "digest"} for s in samples],
    }


# -------------------------------------------------------------- report


def units(trace: bool) -> dict:
    return PER_LAYER if trace else END_TO_END


def report(result: dict) -> None:
    m = result["machine"]
    print(f"perfbench {result['workload']} seed={result['seed']} seconds={result['seconds']}"
          f" trace={int(result['trace'])}")
    print(f"  why: {result['why']}")
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu']} memory={m['memory']}"
          f" python={m['python']} numpy={m['numpy']}")
    print(f"  load: {m['load_shape']}")
    print("  properties: " + " ".join(f"{k}={v}" for k, v in result["properties"].items()))
    for name, unit in units(result["trace"]).items():
        extra = ""
        if name == "cmd_tail_ms":
            extra = (f"  (p{result['notes']['cmd_tail_percentile']:.1f} of"
                     f" {result['notes']['cmd_samples']} samples)")
        print(f"  {name:40s} {result['metrics'][name]:>16.6g} {unit}{extra}")
    if "profile_tokens_per_s" in result["notes"]:
        print(f"  {'profile_tokens_per_s':40s} {result['notes']['profile_tokens_per_s']:>16.6g} tokens/s")
    print(f"  {'failed_ratio':40s} {result['failed_ratio']:>16.6g} ratio"
          f"  ({result['failed']} of {result['attempted']})")
    for problem in result["problems"][:20]:
        print(f"  FAILED CHECK: {problem}")


def save(result: dict) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")


def table(results: list[dict]) -> None:
    """One CSV row per workload with every metric of both modes."""
    by_workload: dict[str, dict] = {}
    for result in results:
        row = by_workload.setdefault(result["workload"], {})
        row.update(result["metrics"])
        if not result["trace"]:
            row["failed_ratio"] = result["failed_ratio"]
            row.update(result["notes"])
    columns = {**END_TO_END, "profile_tokens_per_s": "tokens/s", "failed_ratio": "ratio",
               "cmd_tail_percentile": "%", "cmd_samples": "count", **PER_LAYER}
    print("workload," + ",".join(f"{name} [{unit}]" for name, unit in columns.items()))
    for name, row in by_workload.items():
        print(name + "," + ",".join(repr(row[c]) if c in row else "" for c in columns))


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "annealplan" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'annealplan'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        results = []
        for name in workloads.BUILDERS:
            for trace in (False, True):
                result = run_one(name, args.seed, args.seconds, trace)
                save(result)
                report(result)
                results.append(result)
        table(results)
        return 0 if all(r["failed"] == 0 for r in results) else 1

    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    save(result)
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units(result["trace"]).items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
