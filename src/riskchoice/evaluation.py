"""Train/test splitting and held-out scoring (accuracy, AUC)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .errors import InputError, UndefinedMetricError
from .scenario import ScenarioArrays

# Display names and qualitative interpretability labels for the three model
# families compared in the experiment. The labels are fixed editorial
# constants attached to the model class, not a computed metric.
MODEL_LABELS = {"symbolic": "Symbolic", "blackbox": "Black-box", "cpt": "CPT"}
INTERPRETABILITY = {"symbolic": "High", "blackbox": "Low", "cpt": "Moderate"}


@dataclass(frozen=True)
class EvalMetrics:
    """Held-out performance of one model."""

    model_name: str
    accuracy: float
    auc: float | None
    n_test: int
    interpretability_label: str

    def to_json_dict(self) -> dict:
        return {
            "model": self.model_name,
            "accuracy": self.accuracy,
            "auc": self.auc,
            "n_test": self.n_test,
            "interpretability": self.interpretability_label,
        }


def split(
    data: ScenarioArrays, train_frac: float, seed: int
) -> tuple[ScenarioArrays, ScenarioArrays]:
    """Shuffle with a seeded permutation, then cut into train and test.

    The train side gets round(train_frac * n) scenarios. Both sides must be
    nonempty.
    """
    if not 0.0 < train_frac < 1.0:
        raise InputError(f"train_frac must lie strictly in (0, 1), got {train_frac}")
    n = len(data)
    if n == 0:
        raise InputError("cannot split an empty dataset")
    n_train = int(round(train_frac * n))
    if n_train < 1 or n_train >= n:
        raise InputError(
            f"split of {n} scenarios at train_frac={train_frac} leaves a side empty"
        )
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    return data.take(perm[:n_train]), data.take(perm[n_train:])


def accuracy(probs, y, threshold: float = 0.5) -> float:
    """Fraction of correct classifications at the given threshold.

    A probability exactly at the threshold counts as a positive prediction.
    """
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(y)
    if probs.ndim != 1 or probs.shape != y.shape:
        raise InputError("probs and y must be equal-length vectors")
    if probs.shape[0] == 0:
        raise InputError("cannot score an empty prediction vector")
    preds = (probs >= threshold).astype(int)
    return float(np.mean(preds == y))


def auc(scores, y) -> float:
    """Area under the ROC curve via the Mann-Whitney rank statistic.

    Midranks handle ties, so a tied positive/negative pair contributes 1/2.

    Raises
    ------
    UndefinedMetricError
        If y contains a single class; ranking quality is undefined then.
    """
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y)
    if scores.ndim != 1 or scores.shape != y.shape:
        raise InputError("scores and y must be equal-length vectors")
    pos = y == 1
    n_pos = int(np.sum(pos))
    n_neg = int(scores.shape[0] - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC undefined: only one class present")
    ranks = rankdata(scores)
    rank_sum_pos = float(np.sum(ranks[pos]))
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate_predictions(model_key: str, probs, y) -> EvalMetrics:
    """Bundle accuracy and AUC for one model's test-set predictions."""
    if model_key not in MODEL_LABELS:
        raise InputError(f"unknown model key {model_key!r}")
    y = np.asarray(y)
    return EvalMetrics(
        model_name=MODEL_LABELS[model_key],
        accuracy=accuracy(probs, y),
        auc=auc(probs, y),
        n_test=int(y.shape[0]),
        interpretability_label=INTERPRETABILITY[model_key],
    )
