import numpy as np
import pytest

from annealplan.metrics import (
    MetricDirection,
    MetricKind,
    TaskScore,
    aggregate_suite,
    brier_score,
    exact_match,
    normalize_identity,
    utility_delta,
)


def brier_oracle(probs, correct):
    # Straight-line reference implementation: plain loop, plain accumulator.
    total = 0.0
    for k, p in enumerate(probs):
        y = 1.0 if k == correct else 0.0
        total += (p - y) ** 2
    return total


class TestBrierScore:
    def test_perfect_prediction(self):
        assert brier_score([1, 0, 0, 0], 0) == 0.0

    def test_maximally_wrong(self):
        assert brier_score([0, 1, 0, 0], 0) == 2.0

    def test_uniform_four_way(self):
        assert brier_score([0.25, 0.25, 0.25, 0.25], 0) == 0.75

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            probs = rng.dirichlet(np.ones(k)).tolist()
            correct = int(rng.integers(0, k))
            assert brier_score(probs, correct) == pytest.approx(
                brier_oracle(probs, correct), abs=1e-12
            )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            probs = rng.dirichlet(np.ones(k))
            correct = int(rng.integers(0, k))
            perm = rng.permutation(k)
            permuted = probs[perm].tolist()
            new_correct = int(np.where(perm == correct)[0][0])
            assert brier_score(permuted, new_correct) == pytest.approx(
                brier_score(probs.tolist(), correct), abs=1e-12
            )

    def test_improves_as_correct_mass_grows(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            probs = rng.dirichlet(np.ones(k))
            correct = int(rng.integers(0, k))
            bumped = probs.copy()
            take = 0.5 * (1 - bumped[correct])
            others = bumped.sum() - bumped[correct]
            if others <= 0:
                continue
            scale = (others - take) / others
            bumped = bumped * scale
            bumped[correct] = probs[correct] + take
            bumped = bumped / bumped.sum()
            assert brier_score(bumped.tolist(), correct) < brier_score(
                probs.tolist(), correct
            )

    def test_unnormalized_rejected_with_sum(self):
        with pytest.raises(ValueError, match="0.9"):
            brier_score([0.5, 0.4], 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            brier_score([1.1, -0.1], 0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            brier_score([0.5, 0.5], 2)


class TestExactMatch:
    def test_equal(self):
        assert exact_match("42", "42") == 1

    def test_whitespace_and_case(self):
        assert exact_match(" 42 ", "42") == 1
        assert exact_match("Paris", "paris") == 1

    def test_different(self):
        assert exact_match("41", "42") == 0

    def test_identity_normalizer(self):
        assert exact_match(" 42 ", "42", normalizer=normalize_identity) == 0


def score(task, value, n=100, metric=MetricKind.BRIER):
    return TaskScore(task_id=task, metric=metric, value=value, n_examples=n)


class TestAggregateSuite:
    def test_macro_mean(self):
        got = aggregate_suite([score("a", 0.4), score("b", 0.6)])
        assert got.value == pytest.approx(0.5, rel=1e-12)
        assert got.n_examples == 200

    def test_single_task_is_identity(self):
        one = score("a", 0.37)
        assert aggregate_suite([one]) == one

    def test_identical_values_exact(self):
        tasks = [score(t, 0.1) for t in "abc"]
        assert aggregate_suite(tasks).value == 0.1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate_suite([])

    def test_mixed_metrics_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            aggregate_suite([score("a", 0.4), score("b", 0.6, metric=MetricKind.ACCURACY)])


class TestUtilityDelta:
    def test_lower_is_better_metric(self):
        got = utility_delta(score("t", 0.50), score("t", 0.45), source_id="s")
        assert got.value == pytest.approx(0.05, rel=1e-9)
        assert got.source_id == "s"

    def test_higher_is_better_metric(self):
        base = score("t", 0.30, metric=MetricKind.EXACT_MATCH)
        treated = score("t", 0.35, metric=MetricKind.EXACT_MATCH)
        assert utility_delta(base, treated).value == pytest.approx(0.05, rel=1e-9)

    def test_equal_scores(self):
        assert utility_delta(score("t", 0.4), score("t", 0.4)).value == 0.0

    def test_task_mismatch(self):
        with pytest.raises(ValueError, match="task"):
            utility_delta(score("a", 0.4), score("b", 0.4))

    def test_metric_mismatch(self):
        with pytest.raises(ValueError, match="metric"):
            utility_delta(score("t", 0.4), score("t", 0.4, metric=MetricKind.ACCURACY))

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            metric = MetricKind.BRIER if rng.random() < 0.5 else MetricKind.ACCURACY
            hi = metric.value_range[1]
            a = score("t", float(rng.uniform(0, hi)), metric=metric)
            b = score("t", float(rng.uniform(0, hi)), metric=metric)
            assert utility_delta(a, b).value == -utility_delta(b, a).value


class TestMetricKind:
    def test_directions(self):
        assert MetricKind.BRIER.direction is MetricDirection.LOWER_IS_BETTER
        assert MetricKind.ACCURACY.direction is MetricDirection.HIGHER_IS_BETTER
        assert MetricKind.EXACT_MATCH.direction is MetricDirection.HIGHER_IS_BETTER

    def test_value_ranges_enforced(self):
        with pytest.raises(ValueError, match="range"):
            score("t", 2.5)
        with pytest.raises(ValueError, match="range"):
            score("t", 1.5, metric=MetricKind.ACCURACY)
