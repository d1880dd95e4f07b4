"""The planning commands run without importing numpy.

numpy is imported on first use by the diversity profiler, the simulator's
random generator and the grid oracle; ``fit``, ``rank``, ``crossover``,
``allocate`` without the oracle and ``cost`` never load it. Each check runs
in a fresh interpreter, because this test process has numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import annealplan
from annealplan.cli import main

SRC = Path(annealplan.__file__).resolve().parents[1]

SCRIPT = r"""
import json
import sys

import annealplan
from annealplan import cli

manifest, corpus, work = sys.argv[1:]
plan = ["--manifest", manifest, "--basis", "total"]
planning = {
    "fit": ["fit", *plan, "--svg", f"{work}/fit.svg"],
    "rank": ["rank", *plan, "--budget", "1e20"],
    "crossover": ["crossover", *plan],
    "allocate": ["allocate", *plan, "--c-max", "1e21"],
    "cost": ["cost", "--preset", "tinygsm", "--tokens", "1.8e9"],
}
numpy_users = {
    "diversity": ["diversity", "--corpus", corpus, "--n-max", "2"],
    "simulate": ["simulate", "--seed", "3", "--out", f"{work}/sim.json"],
    "allocate --with-oracle": ["allocate", *plan, "--c-max", "1e21", "--with-oracle"],
}
# Per step, in order: [exit code, whether numpy is loaded afterwards].
result = {"import annealplan": [0, "numpy" in sys.modules]}
for name, argv in planning.items():
    result[name] = [cli.main([*argv, "--out", f"{work}/{name}.csv"]), "numpy" in sys.modules]

from annealplan import NgramProfiler

result["from annealplan import NgramProfiler"] = [
    int(NgramProfiler.__module__ != "annealplan.diversity"), "numpy" in sys.modules
]
for name, argv in numpy_users.items():
    if "--out" not in argv:
        argv = [*argv, "--out", f"{work}/{name}.csv"]
    result[name] = [cli.main(argv), "numpy" in sys.modules]
print(json.dumps(result))
"""


def test_planning_commands_leave_numpy_unloaded(tmp_path):
    manifest = tmp_path / "manifest.json"
    assert main(["simulate", "--seed", "7", "--out", str(manifest)]) == 0
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b a b c\nc a b\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(manifest), str(corpus), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import annealplan": [0, False],
        "fit": [0, False],
        "rank": [0, False],
        "crossover": [0, False],
        "allocate": [0, False],
        "cost": [0, False],
        "from annealplan import NgramProfiler": [0, True],
        "diversity": [0, True],
        "simulate": [0, True],
        "allocate --with-oracle": [0, True],
    }
    assert (tmp_path / "fit.svg").stat().st_size > 0
    assert (tmp_path / "sim.json").read_bytes().startswith(b"{")
