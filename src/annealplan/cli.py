"""Command-line interface: fit, rank, crossover, allocate, cost, diversity, simulate.

Every command emits one CSV table (UTF-8, LF line endings, mandatory
header) to stdout or ``--out``; warnings go to stderr so the CSV stays
machine-readable. Output is built fully in memory before anything is
written, so a failing command produces no partial output. Exit codes:
0 success, 1 validation or usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import math
import sys
from pathlib import Path

from .allocation import MIN_ORACLE_RESOLUTION, allocate_grid_oracle, allocate_proportional
from .costs import (
    PRESET_FLOPS_PER_CURATED_TOKEN,
    SOURCE_FLOAT_FIELDS,
    AnnealingGeometry,
    CostBasis,
    ModelSpec,
    SourceCostModel,
    SourceKind,
    _check_at_least,
    _check_positive_finite,
    annealing_curation_cost,
    tokens_per_step,
    training_flops,
)
from .manifest import ManifestError, UtilityPoint, build_utility_points, load_manifest
from .metrics import MetricDirection
from .scaling import ScalingFit, crossover, fit_by_source, rank_at_budget
from .simulate import generate_manifest, scenario_rank_flip
from .svg import render_fit_svg

__all__ = ["main"]

# Bound on first use by __getattr__: importing diversity loads numpy,
# which no planning command needs.
_DIVERSITY_NAMES = (
    "NgramProfiler", "_read_text_blocks", "read_binary_token_documents",
    "read_text_token_documents",
)


def __getattr__(name: str):
    if name not in _DIVERSITY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import diversity

    return getattr(diversity, name)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _csv_field(value: str) -> str:
    """``value`` as ``csv.writer`` writes it within a row, quoted if it must be."""
    return _csv_text([value, ""], [])[:-2]


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _parse_tasks(spec: str | None) -> list[str] | None:
    if spec is None:
        return None
    patterns = [p for p in (s.strip() for s in spec.split(",")) if p]
    if not patterns:
        raise _UsageError("--tasks must name at least one glob pattern")
    return patterns


def _load_fits(args) -> tuple[list[UtilityPoint], list[ScalingFit], list[str]]:
    """Utility points, per-source fits and clamp warnings of ``--manifest``."""
    _check_at_least(args.drop_smallest, 0, "--drop-smallest")
    tasks = _parse_tasks(args.tasks)
    # Loading and the points build objects that all stay alive, so collector
    # passes over them would free nothing. Nothing is collected first: a
    # cached load parses nothing, and a fresh process has little garbage.
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        runset = load_manifest(args.manifest)
        points = build_utility_points(runset, tasks, CostBasis(args.basis))
    finally:
        if paused:
            gc.enable()
    if not points:
        raise ManifestError("manifest contains no treated runs to analyze")
    fits = fit_by_source(points, drop_smallest=args.drop_smallest)
    warnings = [
        f"run ({run.source_id}, seed {run.seed}, steps {run.steps}): {note}"
        for run in runset.runs
        if (note := run.metadata.get("clamp_warning"))
    ]
    return points, fits, warnings


_FIT_HEADER = [
    "record",
    "source_id",
    "basis",
    "intercept",
    "slope",
    "rmse",
    "n_points",
    "c_lo",
    "c_hi",
    "steps",
    "compute",
    "tokens_upsampled",
    "delta",
]


def _fit_rows(
    fits: list[ScalingFit], points: list[UtilityPoint], metric_oriented: bool
) -> list[list]:
    rows = [
        ["fit", fit.source_id, fit.basis.value, fit.intercept, fit.slope, fit.rmse,
         fit.n_points, *fit.compute_range, "", "", "", ""]
        for fit in fits
    ]
    for point in points:
        delta = point.delta.value
        if metric_oriented and point.delta.metric.direction is MetricDirection.LOWER_IS_BETTER:
            # Display in the metric's own orientation (an improvement on
            # a lower-is-better metric prints negative).
            delta = -delta
        rows.append(
            ["point", point.source_id, point.basis.value, "", "", "", "", "", "",
             point.steps, point.compute, point.tokens_upsampled, delta]
        )
    return rows


def _cmd_fit(args) -> list[str]:
    points, fits, warnings = _load_fits(args)
    text = _csv_text(_FIT_HEADER, _fit_rows(fits, points, args.delta_sign == "metric"))
    # SVG first: if its path is unwritable the command fails with no
    # partial output, and the CSV stays the source of truth either way.
    if args.svg:
        Path(args.svg).write_text(render_fit_svg(points, fits), encoding="utf-8", newline="")
    try:
        _emit(text, args.out)
    except BaseException:
        if args.svg:  # an SVG without its CSV would be partial output
            Path(args.svg).unlink(missing_ok=True)
        raise
    return warnings


def _cmd_rank(args) -> list[str]:
    _check_positive_finite(args.budget, "--budget")
    _, fits, warnings = _load_fits(args)
    ranked = rank_at_budget(fits, args.budget)
    extrapolated = [r.source_id for r in ranked if r.extrapolated]
    if extrapolated:
        warnings.append(
            f"predictions at budget {args.budget:.6g} are extrapolated for: "
            + ", ".join(extrapolated)
        )
    if any(r.tied for r in ranked):
        warnings.append("tied predictions broken lexicographically by source id")
    header = ["rank", "source_id", "predicted_delta", "extrapolated", "tied", "budget", "basis"]
    rows = [
        [i + 1, r.source_id, r.predicted_delta, _bool(r.extrapolated), _bool(r.tied),
         args.budget, args.basis]
        for i, r in enumerate(ranked)
    ]
    _emit(_csv_text(header, rows), args.out)
    return warnings


_CROSSOVER_HEADER = [
    "source_a", "source_b", "status", "compute", "leader_below", "leader_above", "in_range"
]


def _crossover_text(fits: list[ScalingFit], warnings: list[str]) -> str:
    """The crossover CSV of every pair of ``fits``, appending a warning per identical pair.

    Rows are written as text, the bytes ``csv.writer`` would give: each
    source id is quoted once, by the csv module itself, and a compute is
    written as its ``repr``, as ``csv.writer`` writes a float.
    """
    quoted = {fit.source_id: _csv_field(fit.source_id) for fit in fits}
    lines = [_csv_text(_CROSSOVER_HEADER, [])]
    for i, fit_a in enumerate(fits):
        field_a = quoted[fit_a.source_id]
        for fit_b in fits[i + 1 :]:
            result = crossover(fit_a, fit_b)
            if result is not None:
                compute, below, above, in_range = result
                lines.append(
                    f"{field_a},{quoted[fit_b.source_id]},crossover,{compute!r},"
                    f"{quoted[below]},{quoted[above]},{'true' if in_range else 'false'}\n"
                )
                continue
            if fit_a.slope == fit_b.slope and fit_a.intercept == fit_b.intercept:
                status = "identical"
                warnings.append(
                    f"{fit_a.source_id} and {fit_b.source_id} have identical fits (degenerate)"
                )
            elif fit_a.slope == fit_b.slope:
                status = "parallel"
            else:
                status = "no-crossover"
            lines.append(f"{field_a},{quoted[fit_b.source_id]},{status},,,,\n")
    return "".join(lines)


def _cmd_crossover(args) -> list[str]:
    _, fits, warnings = _load_fits(args)
    _emit(_crossover_text(fits, warnings), args.out)
    return warnings


def _cmd_allocate(args) -> list[str]:
    _check_positive_finite(args.c_max, "--c-max")
    _check_at_least(args.oracle_resolution, MIN_ORACLE_RESOLUTION, "--oracle-resolution")
    _, fits, warnings = _load_fits(args)
    plan = allocate_proportional(fits, args.c_max)
    oracle_utility = ""
    oracle_gap = ""
    if args.with_oracle:
        oracle = allocate_grid_oracle(fits, args.c_max, args.oracle_resolution)
        oracle_utility = oracle.predicted_mixture_utility
        oracle_gap = oracle.predicted_mixture_utility - plan.predicted_mixture_utility

    header = [
        "record",
        "source_id",
        "assigned_compute",
        "share",
        "excluded_reason",
        "c_max",
        "mixture_utility",
        "oracle_mixture_utility",
        "oracle_gap",
    ]
    reasons = dict(plan.excluded)
    rows = []
    for source_id in sorted(plan.assignments):
        assigned = plan.assignments[source_id]
        rows.append(
            ["assignment", source_id, assigned, assigned / plan.total,
             reasons.get(source_id, ""), "", "", "", ""]
        )
    rows.append(
        ["summary", "", "", "", "", plan.total, plan.predicted_mixture_utility,
         oracle_utility, oracle_gap]
    )
    _emit(_csv_text(header, rows), args.out)
    return warnings + list(plan.warnings)


def _geometry_from_args(args) -> AnnealingGeometry:
    return AnnealingGeometry(
        batch_size=args.batch_size,
        sequence_length=args.sequence_length,
        upsample_ratio=args.upsample_ratio,
        epochs=args.epochs,
    )


# Flags that describe a generic source, so a --preset leaves them no meaning;
# after --kind and --zero-cost, SourceCostModel's other fields in field order.
_SOURCE_FLAGS = tuple("--" + name.replace("_", "-") for name in (
    "kind", "zero_cost", SOURCE_FLOAT_FIELDS[0], "generator_params", *SOURCE_FLOAT_FIELDS[1:]
))


def _flag(flag: str, build, /, *args):
    """``build(*args)``, its ``ValueError`` prefixed with the flag it checks."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _cmd_cost(args) -> list[str]:
    basis = CostBasis(args.basis)
    geom = _geometry_from_args(args)
    if (args.steps is None) == (args.tokens is None):
        raise _UsageError("provide exactly one of --steps or --tokens")
    flag, amount = ("--tokens", args.tokens) if args.steps is None else ("--steps", args.steps)
    if not math.isfinite(amount):
        raise ValueError(f"{flag} must be finite, got {amount}")
    _check_at_least(amount, 0, flag)

    total_per_step, upsampled_per_step = tokens_per_step(geom)
    if args.preset is not None:
        given = [f for f in _SOURCE_FLAGS if getattr(args, f[2:].replace("-", "_")) is not None]
        if given:
            raise _UsageError(f"--preset cannot be combined with {given[0]}")
        # Presets price curated tokens: --tokens counts curated (upsampled)
        # tokens, --steps counts annealing steps.
        if args.steps is None:
            curated, total_tokens = args.tokens, args.tokens / geom.upsample_ratio
        else:
            curated, total_tokens = args.steps * upsampled_per_step, args.steps * total_per_step
        curation = curated * PRESET_FLOPS_PER_CURATED_TOKEN[args.preset]
    else:
        if args.zero_cost and args.kind is not None:
            raise _UsageError("--zero-cost cannot be combined with --kind")
        kind_name = "zero_cost" if args.zero_cost else args.kind
        if kind_name is None:
            raise _UsageError("provide --preset, --kind, or --zero-cost")
        kind = SourceKind(kind_name)
        generator = None
        if args.generator_params is not None:
            generator = _flag("--generator-params", ModelSpec, args.generator_params)
        # Flags left out take SourceCostModel's defaults.
        floats = {n: v for n in SOURCE_FLOAT_FIELDS if (v := getattr(args, n)) is not None}
        source = SourceCostModel(kind=kind, generator=generator, **floats)
        total_tokens = args.tokens if args.steps is None else args.steps * total_per_step
        curation = annealing_curation_cost(source, geom, total_tokens)

    training_model = None
    if args.training_params is not None:
        training_model = _flag("--training-params", ModelSpec, args.training_params)
    training = 0.0
    if basis is CostBasis.CURATION_PLUS_ANNEALING:
        if training_model is None:
            raise _UsageError("--basis total requires --training-params")
        training = training_flops(total_tokens, training_model)

    # The tokens column repeats --tokens (curated tokens under --preset),
    # or gives the annealing tokens of --steps.
    steps_out, tokens_out = ("", args.tokens) if args.steps is None else (args.steps, total_tokens)
    header = ["basis", "steps", "tokens", "curation_flops", "training_flops", "total_flops"]
    row = [basis.value, steps_out, tokens_out, curation, training, curation + training]
    overflowed = [f"{name} {value}" for name, value in zip(header[2:], row[2:])
                  if not math.isfinite(value)]
    if overflowed:
        raise ValueError(f"{flag} {amount} prices beyond the float range: {', '.join(overflowed)}")
    _emit(_csv_text(header, [row]), args.out)
    return []


def _cmd_diversity(args) -> list[str]:
    # Attribute lookups on the module, not bare names, so the first one
    # reaches __getattr__ and a name replaced on the module is honoured.
    cli = sys.modules[__name__]
    profiler = _flag("--n-max", cli.NgramProfiler, args.n_max)
    if args.format == "text" and not args.single_stream:
        # Each block of lines goes to the profiler in one call.
        for keys, lengths in cli._read_text_blocks(args.corpus):
            profiler._add_documents(keys, lengths)
    else:
        if args.format == "text":
            documents = cli.read_text_token_documents(args.corpus)
        else:
            documents = cli.read_binary_token_documents(args.corpus)
        if args.single_stream:
            # One unbounded stream: n-grams may span input documents. Rebinding
            # frees the per-document arrays before any are counted.
            import numpy as np

            documents = list(documents)
            documents = [np.concatenate(documents) if documents else []]
        for document in documents:
            profiler.add_document(document)
    report = profiler.report()
    warnings = [
        f"no n-grams of order {row.n}; ratio 1.0 is a convention for an empty set"
        for row in report.per_n
        if row.empty
    ]
    header = ["n", "distinct", "total", "ratio", "entropy_bits"]
    rows = [[row.n, row.distinct, row.total, row.ratio, row.entropy_bits] for row in report.per_n]
    _emit(_csv_text(header, rows), args.out)
    return warnings


def _cmd_simulate(args) -> list[str]:
    if args.scenario != "rank-flip":
        raise _UsageError(f"unknown scenario {args.scenario!r}")
    _check_at_least(args.seed, 0, "--seed")
    scenario = _flag("--noise", scenario_rank_flip, args.seed, args.noise)
    payload = generate_manifest(scenario)
    Path(args.out).write_bytes(payload)
    return []


def _add_manifest_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", required=True, help="experiment manifest JSON file")
    parser.add_argument(
        "--tasks", default=None,
        help="comma-separated glob patterns selecting task ids (default: all tasks)",
    )
    parser.add_argument(
        "--basis", choices=[b.value for b in CostBasis], default=CostBasis.CURATION_ONLY.value,
        help="cost basis for the compute axis (default: %(default)s)",
    )
    parser.add_argument(
        "--drop-smallest", type=int, default=0, metavar="K",
        help="exclude the K smallest-compute points of each source before fitting",
    )
    parser.add_argument("--out", default=None, help="output CSV path (default: stdout)")


@functools.cache  # built on the first main() call, then reused by every later one
def _build_parser() -> _Parser:
    parser = _Parser(prog="annealplan", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fit = subparsers.add_parser("fit", help="fit per-source utility scaling laws")
    _add_manifest_options(p_fit)
    p_fit.add_argument("--svg", default=None, help="also render points and fits to this SVG file")
    p_fit.add_argument(
        "--delta-sign", choices=["improvement", "metric"], default="improvement",
        help="print point deltas improvement-positive (default) or in the"
        " metric's own orientation",
    )
    p_fit.set_defaults(func=_cmd_fit)

    p_rank = subparsers.add_parser("rank", help="rank sources by predicted delta at a budget")
    _add_manifest_options(p_rank)
    p_rank.add_argument("--budget", type=float, required=True, help="compute budget in FLOPs")
    p_rank.set_defaults(func=_cmd_rank)

    p_cross = subparsers.add_parser("crossover", help="find where source rankings flip")
    _add_manifest_options(p_cross)
    p_cross.set_defaults(func=_cmd_crossover)

    p_alloc = subparsers.add_parser("allocate", help="split a budget across sources")
    _add_manifest_options(p_alloc)
    p_alloc.add_argument("--c-max", type=float, required=True, help="total budget in FLOPs")
    p_alloc.add_argument(
        "--with-oracle", action="store_true",
        help="also run the grid-enumeration oracle and report the utility gap",
    )
    p_alloc.add_argument("--oracle-resolution", type=int, default=200, metavar="R")
    p_alloc.set_defaults(func=_cmd_allocate)

    p_cost = subparsers.add_parser("cost", help="price a data source in FLOPs")
    p_cost.add_argument("--preset", choices=list(PRESET_FLOPS_PER_CURATED_TOKEN), default=None)
    p_cost.add_argument("--kind", choices=[k.value for k in SourceKind], default=None)
    # None marks a source flag as not given (see _SOURCE_FLAGS).
    p_cost.add_argument("--zero-cost", action="store_true", default=None,
                        help="shorthand for --kind zero_cost")
    for flag in _SOURCE_FLAGS[2:]:
        p_cost.add_argument(flag, type=float, default=None)
    p_cost.add_argument(
        "--steps", type=float, default=None, help="annealing steps to price"
    )
    p_cost.add_argument(
        "--tokens", type=float, default=None,
        help="tokens to price: total annealing tokens, or curated tokens with --preset",
    )
    p_cost.add_argument("--training-params", type=float, default=None,
                        help="training model parameter count (needed for --basis total)")
    p_cost.add_argument("--batch-size", type=int, default=256)
    p_cost.add_argument("--sequence-length", type=int, default=8192)
    p_cost.add_argument("--upsample-ratio", type=float, default=0.1)
    p_cost.add_argument("--epochs", type=float, default=1.0)
    p_cost.add_argument(
        "--basis", choices=[b.value for b in CostBasis], default=CostBasis.CURATION_ONLY.value
    )
    p_cost.add_argument("--out", default=None)
    p_cost.set_defaults(func=_cmd_cost)

    p_div = subparsers.add_parser("diversity", help="n-gram diversity statistics of a corpus")
    p_div.add_argument("--corpus", required=True, help="corpus file")
    p_div.add_argument(
        "--format", choices=["text", "binary"], default="text",
        help="text: one whitespace-tokenized document per line;"
        " binary: uint32-LE length-prefixed token-id documents",
    )
    p_div.add_argument("--n-max", type=int, default=4)
    p_div.add_argument(
        "--single-stream", action="store_true",
        help="ignore document boundaries and treat the corpus as one token stream",
    )
    p_div.add_argument("--out", default=None)
    p_div.set_defaults(func=_cmd_diversity)

    p_sim = subparsers.add_parser("simulate", help="generate a synthetic manifest")
    p_sim.add_argument("--scenario", default="rank-flip", help="scenario name (rank-flip)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--noise", type=float, default=0.0,
                       help="Gaussian noise sigma added to every simulated delta")
    p_sim.add_argument("--out", required=True, help="manifest output path")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # Warnings follow the command's output, so a failed write prints none.
        for message in args.func(args):
            print(f"warning: {message}", file=sys.stderr)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal invariant violations
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
