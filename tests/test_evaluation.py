import numpy as np
import pytest

from riskchoice import (
    GeneratorConfig,
    InputError,
    UndefinedMetricError,
    accuracy,
    auc,
    evaluate_predictions,
    generate_dataset,
    split,
)
from riskchoice.evaluation import INTERPRETABILITY, MODEL_LABELS


def brute_force_auc(scores, y):
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestSplit:
    def test_default_proportions(self):
        data = generate_dataset(GeneratorConfig(n=5000, seed=42))
        train, test = split(data, 0.8, seed=0)
        assert len(train) == 4000 and len(test) == 1000

    def test_disjoint_union(self):
        data = generate_dataset(GeneratorConfig(n=400, seed=1))
        train, test = split(data, 0.7, seed=5)
        ids = train.id.tolist() + test.id.tolist()
        assert sorted(ids) == list(range(400))
        assert not (set(train.id.tolist()) & set(test.id.tolist()))
        # each row keeps its own attributes
        for side in (train, test):
            np.testing.assert_array_equal(side.safe, data.safe[side.id])
            np.testing.assert_array_equal(side.choice, data.choice[side.id])

    def test_seeded_determinism(self):
        data = generate_dataset(GeneratorConfig(n=200, seed=2))
        def ids(seed):
            return [side.id.tolist() for side in split(data, 0.8, seed=seed)]

        assert ids(3) == ids(3)
        assert ids(3) != ids(4)

    def test_two_scenarios_half(self):
        data = generate_dataset(GeneratorConfig(n=2, seed=3))
        train, test = split(data, 0.5, seed=0)
        assert len(train) == 1 and len(test) == 1

    def test_degenerate_sizes(self):
        data = generate_dataset(GeneratorConfig(n=3, seed=4))
        with pytest.raises(InputError):
            split(data, 0.99, seed=0)
        with pytest.raises(InputError):
            split([], 0.5, seed=0)
        with pytest.raises(InputError):
            split(data, 1.0, seed=0)


class TestAccuracy:
    def test_hand_counted(self):
        assert accuracy(np.array([0.9, 0.2, 0.6]), np.array([1, 0, 0])) == pytest.approx(2 / 3)

    def test_perfect(self):
        assert accuracy(np.array([0.8, 0.1, 0.7]), np.array([1, 0, 1])) == 1.0

    def test_tie_rule_at_threshold(self):
        # 0.5 counts as a positive prediction
        y = np.array([1, 0, 1, 1])
        assert accuracy(np.full(4, 0.5), y) == pytest.approx(np.mean(y == 1))

    def test_empty_and_shape_errors(self):
        with pytest.raises(InputError):
            accuracy(np.array([]), np.array([]))
        with pytest.raises(InputError):
            accuracy(np.array([0.5]), np.array([1, 0]))


class TestAuc:
    def test_perfect_separation(self):
        assert auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
        assert auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0])) == 0.0

    def test_all_tied_scores(self):
        assert auc(np.full(10, 0.3), np.array([1, 0] * 5)) == pytest.approx(0.5)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_matches_brute_force_with_ties(self):
        rng = np.random.Generator(np.random.PCG64(20))
        for _ in range(100):
            n = int(rng.integers(4, 120))
            scores = np.round(rng.random(n), 1)
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            assert auc(scores, y) == pytest.approx(brute_force_auc(scores, y), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.Generator(np.random.PCG64(21))
        scores = rng.random(60)
        y = rng.integers(0, 2, 60)
        y[:2] = [0, 1]
        assert auc(np.exp(3 * scores), y) == pytest.approx(auc(scores, y), abs=1e-12)

    def test_complement_symmetry_without_ties(self):
        rng = np.random.Generator(np.random.PCG64(22))
        scores = rng.permutation(80).astype(float)
        y = rng.integers(0, 2, 80)
        y[:2] = [0, 1]
        assert auc(-scores, y) == pytest.approx(1.0 - auc(scores, y), abs=1e-12)


def test_evaluate_predictions_bundles_labels():
    probs = np.array([0.9, 0.4, 0.6, 0.1])
    y = np.array([1, 0, 1, 0])
    for key in ("symbolic", "blackbox", "cpt"):
        m = evaluate_predictions(key, probs, y)
        assert m.model_name == MODEL_LABELS[key]
        assert m.interpretability_label == INTERPRETABILITY[key]
        assert m.n_test == 4
        assert m.accuracy == 1.0 and m.auc == 1.0
    with pytest.raises(InputError):
        evaluate_predictions("oracle", probs, y)


def test_interpretability_labels_are_fixed_constants():
    assert INTERPRETABILITY == {"symbolic": "High", "blackbox": "Low", "cpt": "Moderate"}
    assert MODEL_LABELS == {"symbolic": "Symbolic", "blackbox": "Black-box", "cpt": "CPT"}
