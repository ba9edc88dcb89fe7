import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

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
from riskchoice.evaluation import midranks
from riskchoice.pipeline import MODEL_KEYS, MODELS

# few distinct values, so ties are common; with both zeros and both infinities
TIE_POOL = [-np.inf, -2.5, -1.0, -0.0, 0.0, 1e-300, 0.5, 0.5000000000000001, 3.0, np.inf]


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

    def test_bad_seed_is_input_error(self):
        # numpy would raise ValueError or TypeError on these
        data = generate_dataset(GeneratorConfig(n=10, seed=4))
        for seed in (-1, 1.5, True, None):
            with pytest.raises(InputError, match="^seed must be a nonnegative integer"):
                split(data, 0.8, seed)
        assert split(data, 0.8, np.int64(3))[0].id.tolist() == split(data, 0.8, 3)[0].id.tolist()


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

    def test_nan_probability_gives_nan_accuracy(self):
        # as auc does: a NaN is no prediction, so it is not counted as 0
        assert np.isnan(accuracy(np.array([np.nan, 0.7]), np.array([0, 1])))
        assert np.isnan(accuracy(np.array([0.2, 0.7, np.nan]), np.array([0, 1, 1])))


class TestAuc:
    def test_perfect_separation(self):
        assert auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
        assert auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0])) == 0.0

    def test_all_tied_scores(self):
        assert auc(np.full(10, 0.3), np.array([1, 0] * 5)) == pytest.approx(0.5)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_shape_errors(self):
        with pytest.raises(InputError, match="equal-length vectors"):
            auc(np.array([0.1, 0.9]), np.array([0, 1, 1]))
        with pytest.raises(InputError, match="equal-length vectors"):
            auc(np.array([[0.1, 0.9]]), np.array([[0, 1]]))

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

    @settings(max_examples=300)
    @given(
        scores=st.lists(
            st.sampled_from(TIE_POOL) | st.floats(-10.0, 10.0), min_size=1, max_size=60
        ),
        data=st.data(),
    )
    def test_midranks_match_rankdata(self, scores, data):
        scores = np.array(scores)
        np.testing.assert_array_equal(midranks(scores), rankdata(scores))
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(scores),
                                        max_size=len(scores))))
        n_pos = int(y.sum())
        if 0 < n_pos < len(y):
            ranks = rankdata(scores)
            expected = (float(np.sum(ranks[y == 1])) - n_pos * (n_pos + 1) / 2.0) / (
                n_pos * (len(y) - n_pos)
            )
            assert auc(scores, y) == expected
            assert auc(scores, y) == pytest.approx(brute_force_auc(scores, y), abs=1e-12)

    def test_nan_score_gives_nan_auc(self):
        y = np.array([0, 1, 0, 1])
        assert np.isnan(auc(np.array([0.1, np.nan, 0.3, 0.9]), y))
        assert np.isnan(auc(np.array([np.nan] * 4), y))

    def test_complement_symmetry_without_ties(self):
        rng = np.random.Generator(np.random.PCG64(22))
        scores = rng.permutation(80).astype(float)
        y = rng.integers(0, 2, 80)
        y[:2] = [0, 1]
        assert auc(-scores, y) == pytest.approx(1.0 - auc(scores, y), abs=1e-12)


def test_evaluate_predictions_bundles_labels():
    probs = np.array([0.9, 0.4, 0.6, 0.1])
    y = np.array([1, 0, 1, 0])
    for key, (name, label) in MODELS.items():
        m = evaluate_predictions(key, probs, y)
        assert list(m.items()) == [
            ("model", name),
            ("accuracy", 1.0),
            ("auc", 1.0),
            ("n_test", 4),
            ("interpretability", label),
        ]
    with pytest.raises(InputError):
        evaluate_predictions("oracle", probs, y)


def test_single_class_auc_is_null_with_a_warning(caplog):
    probs = np.array([0.9, 0.4, 0.6])
    with caplog.at_level(logging.WARNING, logger="riskchoice.pipeline"):
        m = evaluate_predictions("symbolic", probs, np.ones(3, dtype=int))
    assert m["auc"] is None
    assert m["accuracy"] == pytest.approx(2 / 3)
    assert caplog.messages == ["AUC for symbolic undefined: AUC undefined: only one class present"]
    # accuracy is checked first, so a length mismatch is its error, not the AUC's
    with pytest.raises(InputError, match="probs and y"):
        evaluate_predictions("symbolic", probs, np.ones(2, dtype=int))


def test_interpretability_labels_are_fixed_constants():
    assert MODELS == {
        "symbolic": ("Symbolic", "High"),
        "blackbox": ("Black-box", "Low"),
        "cpt": ("CPT", "Moderate"),
    }
    assert MODEL_KEYS == ("symbolic", "blackbox", "cpt")
