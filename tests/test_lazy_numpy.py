"""The planning commands run without importing numpy.

numpy is imported on first use by the diversity profiler, the simulator's
random generator (made only when some noise sigma is above 0) and the grid
oracle; ``fit``, ``rank``, ``crossover``, ``allocate`` without the oracle,
``cost`` and a noise-free ``simulate`` never load it. Each check runs in a
fresh interpreter, because this test process has numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import annealplan
from annealplan.cli import main

SRC = Path(annealplan.__file__).resolve().parents[1]

# Runs the named steps in order (all of them when none is named) and prints,
# per step, [exit code, whether numpy is loaded afterwards].
SCRIPT = r"""
import json
import sys

import annealplan
from annealplan import cli

manifest, corpus, work, *names = sys.argv[1:]
plan = ["--manifest", manifest, "--basis", "total"]


def import_profiler():
    from annealplan import NgramProfiler

    return int(NgramProfiler.__module__ != "annealplan.diversity")


steps = {
    # The planning set: each must leave numpy unloaded.
    "fit": ["fit", *plan, "--svg", f"{work}/fit.svg"],
    "rank": ["rank", *plan, "--budget", "1e20"],
    "crossover": ["crossover", *plan],
    "allocate": ["allocate", *plan, "--c-max", "1e21"],
    "cost": ["cost", "--preset", "tinygsm", "--tokens", "1.8e9"],
    "simulate": ["simulate", "--seed", "3", "--out", f"{work}/sim.json"],
    # The numpy users: each loads numpy.
    "simulate --noise 0.003": [
        "simulate", "--seed", "3", "--noise", "0.003", "--out", f"{work}/noisy.json"
    ],
    "from annealplan import NgramProfiler": import_profiler,
    "diversity": ["diversity", "--corpus", corpus, "--n-max", "2"],
    "allocate --with-oracle": ["allocate", *plan, "--c-max", "1e21", "--with-oracle"],
}
result = {"import annealplan": [0, "numpy" in sys.modules]}
for name in names or steps:
    step = steps[name]
    if callable(step):
        code = step()
    else:
        code = cli.main(step if "--out" in step else [*step, "--out", f"{work}/{name}.csv"])
    result[name] = [code, "numpy" in sys.modules]
print(json.dumps(result))
"""


@pytest.fixture
def run_fresh(tmp_path):
    """Run SCRIPT's named steps in a new interpreter; return its result dict."""
    manifest = tmp_path / "manifest.json"
    assert main(["simulate", "--seed", "7", "--out", str(manifest)]) == 0
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b a b c\nc a b\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def run(*names):
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT, str(manifest), str(corpus), str(tmp_path), *names],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    return run


def test_planning_commands_leave_numpy_unloaded(run_fresh, tmp_path):
    assert run_fresh() == {
        "import annealplan": [0, False],
        "fit": [0, False],
        "rank": [0, False],
        "crossover": [0, False],
        "allocate": [0, False],
        "cost": [0, False],
        "simulate": [0, False],
        "simulate --noise 0.003": [0, True],
        "from annealplan import NgramProfiler": [0, True],
        "diversity": [0, True],
        "allocate --with-oracle": [0, True],
    }
    assert (tmp_path / "fit.svg").stat().st_size > 0
    assert (tmp_path / "sim.json").read_bytes().startswith(b"{")
    assert (tmp_path / "noisy.json").read_bytes() != (tmp_path / "sim.json").read_bytes()


@pytest.mark.parametrize(
    "name", ["from annealplan import NgramProfiler", "diversity", "allocate --with-oracle"]
)
def test_each_later_numpy_user_loads_numpy_itself(run_fresh, name):
    # In the full run numpy is already loaded when these steps start.
    assert run_fresh(name) == {"import annealplan": [0, False], name: [0, True]}
