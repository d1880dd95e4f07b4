"""FLOPs cost calculus for data curation and annealing training.

Every quantity is a real-valued FLOPs count; nothing is rounded to
integers, so identities such as cost additivity hold to machine
precision. Costs come in two bases: curation only (the FLOPs spent
obtaining the upsampled tokens) or curation plus the annealing
training itself.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "PRESET_FLOPS_PER_CURATED_TOKEN",
    "SOURCE_FLOAT_FIELDS",
    "AnnealingGeometry",
    "CostBasis",
    "ModelSpec",
    "SourceCostModel",
    "SourceKind",
    "annealing_curation_cost",
    "inference_flops_per_token",
    "tinygsm_curation_cost",
    "tinygsm_mind_curation_cost",
    "tokens_per_step",
    "total_cost",
    "training_flops",
]

# FLOPs per generated token for the GPT-3.5-class model assumed to have
# produced the TinyGSM corpus (2 * 175e9 parameters), and for the 7B
# model assumed to have rewritten it into TinyGSM-MIND (2 * 7e9). The
# MIND corpus is 3.6x the size of its source, with 1/3.6 of its tokens
# carried over and 2/3.6 freshly generated by the smaller model.
TINYGSM_GENERATION_FLOPS_PER_TOKEN = 350e9
TINYGSM_MIND_GENERATION_FLOPS_PER_TOKEN = 14e9
TINYGSM_MIND_EXPANSION = 3.6

# Price of one curated token of each preset corpus.
PRESET_FLOPS_PER_CURATED_TOKEN = {
    "tinygsm": TINYGSM_GENERATION_FLOPS_PER_TOKEN,
    "tinygsm-mind": (
        TINYGSM_GENERATION_FLOPS_PER_TOKEN + 2.0 * TINYGSM_MIND_GENERATION_FLOPS_PER_TOKEN
    ) / TINYGSM_MIND_EXPANSION,
}


class CostBasis(enum.Enum):
    """Which FLOPs are charged to a data source."""

    CURATION_ONLY = "curation-only"
    CURATION_PLUS_ANNEALING = "total"


class SourceKind(enum.Enum):
    MBF = "mbf"
    SYNTHETIC = "synthetic"
    REPHRASE = "rephrase"
    ZERO_COST = "zero_cost"


def _require_finite(obj, *names: str) -> None:
    for name in names:
        value = getattr(obj, name)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer past the float range
            raise ValueError(f"{name} is beyond the float range") from None
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")


# The package's numeric bound rules; callers pass the parameter's or the flag's name.
def _check_positive_finite(value: float, name: str) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if not value < math.inf:  # exact for integers, even those past the float range
        raise ValueError(f"{name} must be finite, got {value}")


def _check_at_least(value: float, low: int, name: str) -> None:
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class ModelSpec:
    """A model identified only by its parameter count."""

    param_count: float

    def __post_init__(self) -> None:
        _check_positive_finite(self.param_count, "param_count")


@dataclass(frozen=True)
class AnnealingGeometry:
    """Batch geometry and upsampling configuration of an annealing run.

    ``upsample_ratio`` is the fraction of each batch drawn from the
    evaluated source; the remainder is replay of the default mix.
    ``epochs`` counts passes over the upsampled tokens (1.0 means every
    upsampled token is seen once).
    """

    batch_size: int
    sequence_length: int
    upsample_ratio: float
    epochs: float = 1.0

    def __post_init__(self) -> None:
        _check_positive_finite(self.batch_size, "batch_size")
        _check_positive_finite(self.sequence_length, "sequence_length")
        try:  # tokens per step, priced in floats
            finite = math.isfinite(self.batch_size * self.sequence_length)
        except OverflowError:  # an integer product past the float range
            finite = False
        if not finite:
            raise ValueError("batch_size * sequence_length is beyond the float range")
        if not 0.0 < self.upsample_ratio < 1.0:
            raise ValueError(
                f"upsample_ratio must lie strictly between 0 and 1, got {self.upsample_ratio}"
            )
        _check_at_least(self.epochs, 1, "epochs")
        _require_finite(self, "epochs")


# SourceCostModel's float fields, in field order: the names a manifest
# source and the ``cost`` command's flags give them.
SOURCE_FLOAT_FIELDS = (
    "expansion_factor", "annotator_per_token_flops", "annotator_training_flops", "mbf_recall",
)


@dataclass(frozen=True)
class SourceCostModel:
    """Curation cost parameters of one data source.

    ``expansion_factor`` is the number of synthetic tokens generated per
    seed token. ``annotator_per_token_flops`` is the inference cost of
    scoring one candidate token with the quality annotator (a reasonable
    default is 2x the annotator's parameter count, matching the
    inference convention used everywhere else); ``annotator_training_flops``
    is the one-time cost of training that annotator, amortized over the
    seed tokens it yields. ``mbf_recall`` is how many tokens must be
    scored to keep one seed token.
    """

    kind: SourceKind
    expansion_factor: float = 0.0
    generator: ModelSpec | None = None
    annotator_per_token_flops: float = 0.0
    annotator_training_flops: float = 0.0
    mbf_recall: float = 1.0

    def __post_init__(self) -> None:
        if self.expansion_factor < 0:
            raise ValueError(f"expansion_factor must be >= 0, got {self.expansion_factor}")
        if self.annotator_per_token_flops < 0:
            raise ValueError("annotator_per_token_flops must be >= 0")
        if self.annotator_training_flops < 0:
            raise ValueError("annotator_training_flops must be >= 0")
        if self.generator is None:
            needs = "requires a generator model (generator_params)"
            if self.kind in (SourceKind.SYNTHETIC, SourceKind.REPHRASE):
                raise ValueError(f"kind {self.kind.value} {needs}")
            if self.expansion_factor > 0:
                raise ValueError(f"expansion_factor > 0 {needs}")
        _check_at_least(self.mbf_recall, 1, "mbf_recall")
        priced = self.expansion_factor, self.annotator_per_token_flops, self.annotator_training_flops
        if self.kind is SourceKind.ZERO_COST and (self.generator is not None or any(priced)):
            raise ValueError("zero_cost source must have all cost fields zero")
        _require_finite(self, *SOURCE_FLOAT_FIELDS)


def training_flops(tokens: float, model: ModelSpec) -> float:
    """Training cost in FLOPs: 6 FLOPs per parameter per token."""
    _check_at_least(tokens, 0, "tokens")
    return 6.0 * model.param_count * tokens


def inference_flops_per_token(model: ModelSpec) -> float:
    """Generation/inference cost in FLOPs per token: 2 FLOPs per parameter."""
    return 2.0 * model.param_count


def tokens_per_step(geom: AnnealingGeometry) -> tuple[float, float]:
    """Tokens consumed per training step: (total, upsampled portion).

    Both values are exact reals; the upsampled portion is generally
    fractional (e.g. 209,715.2 for a 256 x 8192 batch at 10% upsampling).
    """
    total = float(geom.batch_size * geom.sequence_length)
    return total, geom.upsample_ratio * total


def total_cost(
    model: SourceCostModel,
    geom: AnnealingGeometry,
    total_tokens: float,
    training_model: ModelSpec,
    basis: CostBasis,
) -> float:
    """Cost of an annealing run over ``total_tokens`` under the given basis.

    Curation-only charges just the source's curation FLOPs for the seed
    tokens implied by the geometry; the full basis adds 6 * |params| *
    total_tokens of training.
    """
    curation = annealing_curation_cost(model, geom, total_tokens)
    if basis is CostBasis.CURATION_ONLY:
        return curation
    return curation + training_flops(total_tokens, training_model)


def annealing_curation_cost(
    model: SourceCostModel, geom: AnnealingGeometry, total_tokens: float
) -> float:
    """Curation FLOPs of an annealing run over ``total_tokens``.

    ``epochs`` passes over m seed tokens and the ``expansion_factor``
    tokens generated from each fill the run's upsampled share, so

        m = upsample_ratio * total_tokens / (epochs * (1 + expansion_factor))
        unit_cost = mbf_recall * annotator_per_token_flops + annotator_training_flops / m
        cost = unit_cost * m + inference_flops_per_token(generator) * expansion_factor * m

    unit_cost, which synthetic and rephrase sources pay too for annotated
    seed selection, is 0 when m is. Zero-cost sources cost nothing.
    """
    _check_at_least(total_tokens, 0, "total_tokens")
    if model.kind is SourceKind.ZERO_COST:
        return 0.0
    m = geom.upsample_ratio * total_tokens / (geom.epochs * (1.0 + model.expansion_factor))
    annotation = model.mbf_recall * model.annotator_per_token_flops
    unit_cost = annotation + model.annotator_training_flops / m if m > 0 else 0.0
    generation = 0.0
    if model.expansion_factor > 0:
        generation = inference_flops_per_token(model.generator) * model.expansion_factor * m
    return unit_cost * m + generation


def _preset_curation_cost(preset: str, steps: float, geom: AnnealingGeometry) -> float:
    _check_at_least(steps, 0, "steps")
    return steps * tokens_per_step(geom)[1] * PRESET_FLOPS_PER_CURATED_TOKEN[preset]


def tinygsm_curation_cost(steps: float, geom: AnnealingGeometry) -> float:
    """Curation cost of ``steps`` annealing steps on TinyGSM data, every
    upsampled token of ``geom`` charged at the large generator's rate."""
    return _preset_curation_cost("tinygsm", steps, geom)


def tinygsm_mind_curation_cost(steps: float, geom: AnnealingGeometry) -> float:
    """Curation cost of ``steps`` annealing steps on TinyGSM-MIND data:
    1/3.6 of its tokens at the TinyGSM rate, 2/3.6 at the 7B rewriting rate."""
    return _preset_curation_cost("tinygsm-mind", steps, geom)
