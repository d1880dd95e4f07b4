"""Spans around the public names the CLI calls, for the traced run.

The program is not changed: :func:`install` replaces names in the
namespaces of ``annealplan.cli`` and ``annealplan.manifest`` with
wrappers that record a span per call, and returns a function that puts
the originals back. Spans stay in memory until :meth:`Tracer.dump`.

A span's name is ``<layer>.<function>``; the layer is the annealplan
module the function lives in. Private helpers (``_load_points``,
``_encode``, ``_flush``, ``_consolidate``) are not wrapped, so their time
is part of their caller's self time.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

# Name looked up by annealplan.cli -> span name.
CLI_NAMES = {
    "load_manifest": "manifest.load_manifest",
    "build_utility_points": "manifest.build_utility_points",
    "fit_by_source": "scaling.fit_by_source",
    "rank_at_budget": "scaling.rank_at_budget",
    "crossover": "scaling.crossover",
    "allocate_proportional": "allocation.allocate_proportional",
    "generate_manifest": "simulate.generate_manifest",
}
# Names looked up by annealplan.manifest inside build_utility_points.
MANIFEST_NAMES = {
    "average_seeds": "manifest.average_seeds",
    "aggregate_suite": "metrics.aggregate_suite",
    "utility_delta": "metrics.utility_delta",
    "total_cost": "costs.total_cost",
}
READERS = ("read_text_token_documents", "read_binary_token_documents")
LAYERS = ("cli", "manifest", "metrics", "costs", "scaling", "allocation", "diversity", "simulate")
MAIN = "cli.main"
ORACLE = "allocation.grid_oracle"
ORACLE_WARM = "allocation.grid_oracle_warm"


class Tracer:
    """Records spans as ``[name, start, end, parent index, run id]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (run id, name) -> count
        self.run_id = 0
        self._open: list[int] = []
        self.oracle_call = None  # arguments of the first grid-oracle call

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent, self.run_id])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.counts[(self.run_id, name)] += value

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_reader(self, fn):
        """Time each step of a reader's iterator as a ``diversity.read`` span."""

        @functools.wraps(fn)
        def traced(path):
            iterator = iter(fn(path))
            while True:
                index = self.begin("diversity.read")
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                yield item

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans,
                 "counts": [[run, name, value] for (run, name), value in self.counts.items()]},
                handle,
            )


def install(tracer: Tracer):
    """Wrap the CLI's library calls; returns a function that undoes it."""
    import annealplan.cli as cli
    import annealplan.manifest as manifest

    saved = []

    def replace(module, name, value):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    for name, span in CLI_NAMES.items():
        replace(cli, name, tracer.wrap(span, getattr(cli, name)))
    for name, span in MANIFEST_NAMES.items():
        replace(manifest, name, tracer.wrap(span, getattr(manifest, name)))
    for name in READERS:
        replace(cli, name, tracer.wrap_reader(getattr(cli, name)))

    crossover = cli.crossover

    def counted_crossover(fit_a, fit_b):
        result = crossover(fit_a, fit_b)
        tracer.count("scaling.pairs")
        tracer.count("scaling.crossovers_found", result is not None)
        return result

    replace(cli, "crossover", counted_crossover)

    oracle = cli.allocate_grid_oracle

    def traced_oracle(fits, c_max, resolution):
        if tracer.oracle_call is None:
            tracer.oracle_call = (fits, c_max, resolution)
        # Strictly positive compositions of the grid over the included sources.
        included = sum(fit.slope > 0 for fit in fits)
        tracer.count("allocation.grid_points",
                     math.comb(resolution - 1, included - 1) if included else len(fits))
        return tracer.call(ORACLE, oracle, fits, c_max, resolution)

    replace(cli, "allocate_grid_oracle", traced_oracle)

    base = cli.NgramProfiler

    class TracedProfiler(base):
        def add_document(self, tokens):
            return tracer.call("diversity.add_document", base.add_document, self, tokens)

        def report(self):
            return tracer.call("diversity.report", base.report, self)

    replace(cli, "NgramProfiler", TracedProfiler)

    def restore():
        for module, name, value in reversed(saved):
            setattr(module, name, value)

    return restore


def repeat_oracle(tracer: Tracer) -> None:
    """Repeat the first grid-oracle call warm, in the same process."""
    if tracer.oracle_call is not None:
        import annealplan.allocation as allocation

        tracer.call(ORACLE_WARM, allocation.allocate_grid_oracle, *tracer.oracle_call)


def load(paths) -> dict:
    """Merge span files written by :meth:`Tracer.dump` into one list."""
    spans, counts = [], []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        for span in data["spans"]:  # parents index the file's own list
            if span[3] >= 0:
                span[3] += len(spans)
        spans += data["spans"]
        counts += data["counts"]
    return {"spans": spans, "counts": counts}


def per_run(spans: list[list], counts: list[list]) -> dict[int, dict]:
    """Aggregate spans by run id.

    Returns, per run: ``busy`` (inclusive seconds per span name), ``calls``
    (spans per name), ``self`` (seconds per layer: each span's duration
    minus its direct children's) and ``counts``.
    """
    children = defaultdict(float)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children[parent] += end - start
    runs: dict[int, dict] = defaultdict(
        lambda: {"busy": Counter(), "calls": Counter(), "self": Counter(), "counts": Counter()}
    )
    for index, (name, start, end, parent, run) in enumerate(spans):
        record = runs[run]
        record["busy"][name] += end - start
        record["calls"][name] += 1
        record["self"][name.split(".")[0]] += end - start - children[index]
    for run, name, value in counts:
        runs[run]["counts"][name] += value
    return dict(runs)
