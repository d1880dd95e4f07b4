"""The closed loop that issues a workload's commands, and what is done with its samples.

One caller issues the cycle's commands one after another and starts
the next only when the previous one has ended. In a traced run each
command runs twice in a row, once untraced and once traced, the order
alternating between cycles, so the tracing overhead is a paired
difference taken under the same machine state.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


def closed_loop(
    cycle, seconds: float, min_commands: int, trace: bool, execute, outputs: Path, after_cycle=None
):
    """Issue the cycle's commands in order, round and round, for ``seconds``.

    Only whole cycles run, so every run holds the same mix of commands:
    no cycle starts after the deadline once ``min_commands`` have run.
    ``cycle`` holds :class:`workloads.Command`-like objects (``name``,
    ``key``, ``argv``, ``out``). ``execute(command, traced, run_id)`` runs
    one and returns ``(exit code, wall seconds, extra dict)``. Each
    distinct output of a command is saved once under ``outputs`` for the
    checks. ``after_cycle(progress)``, if given, is called after every
    cycle with the share of ``seconds`` gone. Returns one sample dict per
    command issued.
    """
    outputs.mkdir(parents=True, exist_ok=True)
    samples: list[dict] = []
    start = perf_counter()
    deadline = start + seconds
    cycle_no = 0
    while perf_counter() < deadline or len(samples) < min_commands:
        passes = (cycle_no % 2 == 1, cycle_no % 2 == 0) if trace else (False,)
        cycle_no += 1
        for command in cycle:
            for traced in passes:
                out = Path(command.out)
                out.unlink(missing_ok=True)
                rc, wall, extra = execute(command, traced, len(samples))
                data = out.read_bytes() if out.exists() else None
                digest = hashlib.sha256(data).hexdigest() if data is not None else None
                if digest is not None:
                    saved = outputs / f"{command.key}-{digest[:20]}"
                    if not saved.exists():
                        saved.write_bytes(data)
                samples.append(
                    {"run": len(samples), "name": command.name, "key": command.key,
                     "traced": traced, "rc": rc, "wall": wall, "digest": digest, **extra}
                )
        if after_cycle is not None:
            after_cycle((perf_counter() - start) / seconds if seconds > 0 else 1.0)
    return samples


def import_wall(env=None) -> float:
    """Wall seconds of a fresh interpreter running ``import annealplan.cli``."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import annealplan.cli"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    rc = proc.wait()
    wall = perf_counter() - start
    if rc != 0:
        raise RuntimeError("`import annealplan.cli` failed in a fresh interpreter")
    return wall


class ImportTimer:
    """The ``setup_s`` samples, spread over a run instead of taken in one burst.

    Used as ``after_cycle``: it times as many fresh imports as keep pace
    with ``total`` over the run's seconds, so the samples meet the host
    in the same slow and fast phases as the commands do.
    """

    def __init__(self, total: int, env=None):
        self.total = total
        self.env = env
        self.walls: list[float] = []

    def __call__(self, progress: float) -> None:
        while len(self.walls) < min(self.total, math.ceil(self.total * progress)):
            self.walls.append(import_wall(self.env))


def evaluate(samples: list[dict], checks: dict, outputs: Path) -> tuple[int, list[str]]:
    """Count failed commands: a nonzero exit, a missing output, an output
    that differs from the command's first untraced output, or one that
    fails the workload's check. Every failing sample counts once."""
    reference = {}
    for s in samples:
        if not s["traced"] and s["digest"] is not None:
            reference.setdefault(s["key"], s["digest"])
    verdicts: dict[str, list[str]] = {}
    failed, problems = 0, []
    for s in samples:
        key, digest = s["key"], s["digest"]
        if s["rc"] != 0 or digest is None:
            found = [f"{key}: exit code {s['rc']}" + ("" if digest else ", no output")]
        elif digest != reference.get(key):
            found = [f"{key}: output differs from its first untraced output"]
        else:
            if key not in verdicts:
                verdicts[key] = _check(checks.get(key), key, reference, outputs)
            found = verdicts[key]
        if found:
            failed += 1
            problems.extend(p for p in found if p not in problems)
    return failed, problems


def _check(check, key: str, reference: dict, outputs: Path) -> list[str]:
    if check is None:
        return []
    given = {k: (outputs / f"{k}-{d[:20]}").read_bytes() for k, d in reference.items()}
    try:
        return check(given)
    except (KeyError, ValueError, IndexError) as exc:
        return [f"{key}: unreadable output ({exc!r})"]


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples) at the highest percentile with
    TAIL_BEYOND samples above it, or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n, n


def median(values):
    return statistics.median(values) if values else 0.0
