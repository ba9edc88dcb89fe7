"""Train/test splitting and held-out scoring (accuracy, AUC)."""

from __future__ import annotations

import numpy as np

from .errors import InputError, UndefinedMetricError
from .scenario import ScenarioArrays, is_integer


def split(
    data: ScenarioArrays, train_frac: float, seed: int
) -> tuple[ScenarioArrays, ScenarioArrays]:
    """Shuffle with a seeded permutation, then cut into train and test.

    The train side gets round(train_frac * n) scenarios. Both sides must be
    nonempty, and ``seed`` a nonnegative integer.
    """
    if not (is_integer(seed) and seed >= 0):
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
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


def accuracy(probs, y) -> float:
    """Fraction of correct classifications at the threshold 0.5.

    A probability of exactly 0.5 counts as a positive prediction. Any NaN
    probability makes the accuracy NaN, as it makes the AUC.
    """
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(y)
    if probs.ndim != 1 or probs.shape != y.shape:
        raise InputError("probs and y must be equal-length vectors")
    if probs.shape[0] == 0:
        raise InputError("cannot score an empty prediction vector")
    if np.isnan(probs).any():
        return float("nan")
    preds = (probs >= 0.5).astype(int)
    return float(np.mean(preds == y))


def auc(scores, y) -> float:
    """Area under the ROC curve via the Mann-Whitney rank statistic.

    Midranks handle ties, so a tied positive/negative pair contributes 1/2.
    Any NaN score makes the AUC NaN.

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
    if np.isnan(scores).any():
        return float("nan")
    rank_sum_pos = float(np.sum(midranks(scores)[pos]))
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def midranks(scores) -> np.ndarray:
    """Ranks 1..n of the scores in ascending order, each group of equal
    scores sharing the mean of its ranks; -0.0 equals 0.0. Each NaN is a
    group of its own, ranked after every number.

    Every member of a group gets the group's mean rank, so the sort need
    not keep the order of equal scores.
    """
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    order = np.argsort(scores)
    ordered = scores[order]
    # tie groups are the runs of equal values in sorted order; the group
    # holding sorted positions start..end-1 has mean rank (start + 1 + end) / 2
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], n)
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks
