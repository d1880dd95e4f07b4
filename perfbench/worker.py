"""The closed loop of the in-process workloads, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the cycle, the seconds to run, whether to trace and how many
``setup_s`` samples to take. The worker imports ``annealplan.cli`` once
(import cost is ``setup_s``, timed in fresh interpreters between
cycles), calls ``cli.main`` for every command with ``--out`` files, and
writes the samples, the import times and its own peak RSS to RESULT.json.
Spans, when traced, go to the path SPEC names.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import annealplan.cli as cli

import loop
import tracing
from runner import peak_rss_kb


def execute(tracer, command, traced, run_id):
    """Call ``cli.main`` on the command's argv, through the tracing
    wrappers when ``traced``: (exit code, wall seconds, {})."""
    restore = None
    if traced:
        tracer.run_id = run_id
        restore = tracing.install(tracer)
    start = perf_counter()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            if traced:
                rc = tracer.call(tracing.MAIN, cli.main, command.argv)
            else:
                rc = cli.main(command.argv)
    finally:
        wall = perf_counter() - start
        if restore is not None:
            restore()
    return rc, wall, {}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    cycle = [SimpleNamespace(**command) for command in spec["cycle"]]
    tracer = tracing.Tracer()
    imports = loop.ImportTimer(spec["setup_samples"])
    samples = loop.closed_loop(
        cycle, spec["seconds"], spec["min_commands"], spec["trace"],
        functools.partial(execute, tracer), Path(spec["outputs"]), imports,
    )
    if spec["trace"]:
        tracer.dump(spec["spans"])
    result = {
        "samples": samples,
        "setup_walls": imports.walls,
        "peak_rss_kb": peak_rss_kb(),
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
