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
import io
import sys
from pathlib import Path

from .allocation import allocate_grid_oracle, allocate_proportional
from .costs import (
    PRESET_FLOPS_PER_CURATED_TOKEN,
    AnnealingGeometry,
    CostBasis,
    ModelSpec,
    SourceCostModel,
    SourceKind,
    cost_breakdown,
    tinygsm_curation_cost,
    tinygsm_mind_curation_cost,
    tokens_per_step,
    training_flops,
)
from .diversity import (
    NgramProfiler,
    read_binary_token_documents,
    read_text_token_documents,
)
from .manifest import ManifestError, UtilityPoint, build_utility_points, load_manifest
from .metrics import MetricDirection
from .scaling import ScalingFit, crossover, fit_by_source, rank_at_budget
from .simulate import generate_manifest, scenario_rank_flip
from .svg import render_fit_svg

__all__ = ["main"]


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


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _warn(warnings: list[str]) -> None:
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)


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
    runset = load_manifest(args.manifest)
    points = build_utility_points(runset, _parse_tasks(args.tasks), CostBasis(args.basis))
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


def _cmd_fit(args) -> int:
    points, fits, warnings = _load_fits(args)
    text = _csv_text(_FIT_HEADER, _fit_rows(fits, points, args.delta_sign == "metric"))
    # SVG first: if its path is unwritable the command fails with no
    # partial output, and the CSV stays the source of truth either way.
    if args.svg:
        Path(args.svg).write_text(render_fit_svg(points, fits), encoding="utf-8", newline="")
    _emit(text, args.out)
    _warn(warnings)
    return 0


def _cmd_rank(args) -> int:
    if not args.budget > 0:
        raise _UsageError("--budget must be positive")
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
    _warn(warnings)
    return 0


def _cmd_crossover(args) -> int:
    _, fits, warnings = _load_fits(args)
    rows = []
    for i, fit_a in enumerate(fits):
        for fit_b in fits[i + 1 :]:
            pair = [fit_a.source_id, fit_b.source_id]
            result = crossover(fit_a, fit_b)
            if result is not None:
                rows.append(pair + ["crossover", result.compute, result.leader_below,
                                    result.leader_above, _bool(result.in_range)])
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
            rows.append(pair + [status, "", "", "", ""])
    header = ["source_a", "source_b", "status", "compute", "leader_below", "leader_above", "in_range"]
    _emit(_csv_text(header, rows), args.out)
    _warn(warnings)
    return 0


def _cmd_allocate(args) -> int:
    if not args.c_max > 0:
        raise _UsageError("--c-max must be positive")
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
    _warn(warnings + list(plan.warnings))
    return 0


def _geometry_from_args(args) -> AnnealingGeometry:
    return AnnealingGeometry(
        batch_size=args.batch_size,
        sequence_length=args.sequence_length,
        upsample_ratio=args.upsample_ratio,
        epochs=args.epochs,
    )


def _cmd_cost(args) -> int:
    basis = CostBasis(args.basis)
    geom = _geometry_from_args(args)
    if (args.steps is None) == (args.tokens is None):
        raise _UsageError("provide exactly one of --steps or --tokens")

    total_per_step, _ = tokens_per_step(geom)

    if args.preset is not None:
        # Presets price curated tokens directly: --tokens counts curated
        # (upsampled) tokens, --steps counts annealing steps.
        if args.steps is not None:
            curated_cost = (
                tinygsm_curation_cost(args.steps, geom)
                if args.preset == "tinygsm"
                else tinygsm_mind_curation_cost(args.steps, geom)
            )
            total_tokens = args.steps * total_per_step
            steps_out, tokens_out = args.steps, total_tokens
        else:
            curated_cost = args.tokens * PRESET_FLOPS_PER_CURATED_TOKEN[args.preset]
            total_tokens = args.tokens / geom.upsample_ratio
            steps_out, tokens_out = "", args.tokens
        training = 0.0
        if basis is CostBasis.CURATION_PLUS_ANNEALING:
            if args.training_params is None:
                raise _UsageError("--basis total requires --training-params")
            training = training_flops(total_tokens, ModelSpec(args.training_params))
        curation = curated_cost
    else:
        kind_name = "zero_cost" if args.zero_cost else args.kind
        if kind_name is None:
            raise _UsageError("provide --preset, --kind, or --zero-cost")
        kind = SourceKind(kind_name)
        generator = None
        if args.generator_params is not None:
            generator = ModelSpec(param_count=args.generator_params)
        if kind in (SourceKind.SYNTHETIC, SourceKind.REPHRASE) and generator is None:
            raise _UsageError(f"--kind {kind.value} requires --generator-params")
        if args.expansion_factor > 0 and generator is None:
            raise _UsageError("--expansion-factor > 0 requires --generator-params")
        source = SourceCostModel(
            kind=kind,
            expansion_factor=args.expansion_factor,
            generator=generator,
            annotator_per_token_flops=args.annotator_per_token_flops,
            annotator_training_flops=args.annotator_training_flops,
            mbf_recall=args.mbf_recall,
        )
        total_tokens = args.tokens if args.tokens is not None else args.steps * total_per_step
        steps_out = args.steps if args.steps is not None else ""
        tokens_out = total_tokens
        if basis is CostBasis.CURATION_PLUS_ANNEALING and args.training_params is None:
            raise _UsageError("--basis total requires --training-params")
        training_model = ModelSpec(args.training_params) if args.training_params else ModelSpec(1)
        curation, training_full = cost_breakdown(source, geom, total_tokens, training_model)
        training = training_full if basis is CostBasis.CURATION_PLUS_ANNEALING else 0.0

    header = ["basis", "steps", "tokens", "curation_flops", "training_flops", "total_flops"]
    rows = [[basis.value, steps_out, tokens_out, curation, training, curation + training]]
    _emit(_csv_text(header, rows), args.out)
    return 0


def _cmd_diversity(args) -> int:
    if args.n_max < 1:
        raise _UsageError("--n-max must be >= 1")
    if args.format == "text":
        documents = read_text_token_documents(args.corpus)
    else:
        documents = read_binary_token_documents(args.corpus)
    profiler = NgramProfiler(args.n_max)
    if args.single_stream:
        # One unbounded stream: n-grams may span input documents.
        profiler.add_document(token for document in documents for token in document)
    else:
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
    _warn(warnings)
    return 0


def _cmd_simulate(args) -> int:
    if args.scenario != "rank-flip":
        raise _UsageError(f"unknown scenario {args.scenario!r}")
    scenario = scenario_rank_flip(args.seed, noise_sigma=args.noise)
    payload = generate_manifest(scenario)
    Path(args.out).write_bytes(payload)
    return 0


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
    p_cost.add_argument("--zero-cost", action="store_true", help="shorthand for --kind zero_cost")
    p_cost.add_argument("--expansion-factor", type=float, default=0.0)
    p_cost.add_argument("--generator-params", type=float, default=None)
    p_cost.add_argument("--annotator-per-token-flops", type=float, default=0.0)
    p_cost.add_argument("--annotator-training-flops", type=float, default=0.0)
    p_cost.add_argument("--mbf-recall", type=float, default=1.0)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
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
