"""Task scoring and baseline-relative utility deltas.

The Brier score here is the multi-class sum of squared differences
between the predicted choice distribution and the one-hot answer, so it
ranges over [0, 2]. Absolute values depend on this choice of variant;
anything comparing against externally produced Brier numbers must check
that the same convention was used.

Utility deltas are always oriented so that positive means better than
the baseline, regardless of whether the underlying metric improves
downward (Brier) or upward (accuracy, exact match).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .costs import _check_positive_finite

__all__ = [
    "MetricDirection",
    "MetricKind",
    "TaskScore",
    "UtilityDelta",
    "aggregate_suite",
    "anchored_mean",
    "brier_score",
    "utility_delta",
]


class MetricDirection(enum.Enum):
    LOWER_IS_BETTER = "lower"
    HIGHER_IS_BETTER = "higher"


class MetricKind(enum.Enum):
    BRIER = "brier"
    ACCURACY = "accuracy"
    EXACT_MATCH = "exact_match"

    # Members are singletons equal only to themselves; skip Enum's Python __hash__.
    __hash__ = object.__hash__

    @property
    def direction(self) -> MetricDirection:
        if self is MetricKind.BRIER:
            return MetricDirection.LOWER_IS_BETTER
        return MetricDirection.HIGHER_IS_BETTER

    @property
    def value_range(self) -> tuple[float, float]:
        return _VALUE_RANGES[self]

    def improvement(self, baseline: float, treated: float) -> float:
        """How far ``treated`` beats ``baseline``; positive is better in either direction."""
        if self.direction is MetricDirection.LOWER_IS_BETTER:
            return baseline - treated
        return treated - baseline


# Inclusive (low, high) bounds of each metric's values.
_VALUE_RANGES = {
    MetricKind.BRIER: (0.0, 2.0),
    MetricKind.ACCURACY: (0.0, 1.0),
    MetricKind.EXACT_MATCH: (0.0, 1.0),
}


@dataclass(frozen=True)
class TaskScore:
    """One task's metric value over ``n_examples`` evaluation examples."""

    task_id: str
    metric: MetricKind
    value: float
    n_examples: int

    def __post_init__(self) -> None:
        lo, hi = _VALUE_RANGES[self.metric]
        if not (lo <= self.value <= hi):
            raise ValueError(
                f"{self.metric.value} value {self.value} outside valid range [{lo}, {hi}]"
                f" for task {self.task_id!r}"
            )
        _check_positive_finite(self.n_examples, "n_examples")


@dataclass(frozen=True)
class UtilityDelta:
    """Improvement over a baseline score; positive is always better."""

    value: float
    metric: MetricKind
    source_id: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"delta must be finite, got {self.value}")


def brier_score(probabilities: Sequence[float], correct_index: int) -> float:
    """Sum of squared errors between choice probabilities and the one-hot answer.

    Args:
        probabilities: nonnegative values summing to 1 within 1e-6.
        correct_index: index of the correct choice.

    Returns:
        A value in [0, 2]; 0 for a certain correct prediction, 2 for a
        certain wrong one.
    """
    probs = list(probabilities)
    if not probs:
        raise ValueError("probabilities must be nonempty")
    if not all(p >= 0 for p in probs):
        raise ValueError(f"probabilities must be nonnegative, got {probs}")
    total = math.fsum(probs)
    if not abs(total - 1.0) <= 1e-6:
        raise ValueError(f"probabilities must sum to 1 within 1e-6, got {total!r}")
    if not 0 <= correct_index < len(probs):
        raise IndexError(
            f"correct_index {correct_index} out of range for {len(probs)} choices"
        )
    return math.fsum(
        (p - 1.0) ** 2 if k == correct_index else p * p for k, p in enumerate(probs)
    )


def anchored_mean(values: Sequence[float]) -> float:
    """Mean of a nonempty sequence, anchored at its first value.

    The offsets from the first value are summed exactly (``fsum``), so a
    constant input returns that value bit-for-bit, not a re-rounded sum/n.
    """
    anchor = values[0]
    return anchor + math.fsum([v - anchor for v in values]) / len(values)


def aggregate_suite(scores: Sequence[TaskScore]) -> TaskScore:
    """Collapse per-task scores into their macro average.

    Every task weighs the same; the aggregate's ``n_examples`` is the
    total example count. A single task aggregates to itself.
    """
    if not scores:
        raise ValueError("cannot aggregate an empty score list")
    first = scores[0].metric
    if any(s.metric is not first for s in scores):
        names = sorted({s.metric.value for s in scores})
        raise ValueError(f"cannot aggregate mixed metric kinds: {names}")
    if len(scores) == 1:
        return scores[0]
    return TaskScore(
        task_id="suite",
        metric=scores[0].metric,
        value=anchored_mean([s.value for s in scores]),
        n_examples=sum(s.n_examples for s in scores),
    )


def utility_delta(baseline: TaskScore, treated: TaskScore, source_id: str = "") -> UtilityDelta:
    """Improvement of ``treated`` over ``baseline``, oriented positive-is-better."""
    if baseline.task_id != treated.task_id:
        raise ValueError(
            f"task mismatch: baseline {baseline.task_id!r} vs treated {treated.task_id!r}"
        )
    if baseline.metric is not treated.metric:
        raise ValueError(
            f"metric mismatch: baseline {baseline.metric.value} vs treated {treated.metric.value}"
        )
    value = baseline.metric.improvement(baseline.value, treated.value)
    return UtilityDelta(value=value, metric=baseline.metric, source_id=source_id)
