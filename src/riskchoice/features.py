"""Feature extraction and effect-size-guided feature selection.

Two feature maps are defined over scenarios. The symbolic map encodes
domain-motivated behavioral regularities (framing, probability distortion,
payoff magnitude, expected-value dominance); the raw map passes scenario
attributes through untouched. Selection screens each symbolic candidate by a
bivariate effect size against the observed choice: Cramér's V for categorical
or indicator columns, eta squared for continuous ones. A candidate is kept
when its effect size clears the threshold for its metric.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import InputError, UndefinedEffectSizeError
from .scenario import ScenarioArrays

log = logging.getLogger(__name__)

SYMBOLIC_NAMES = ("intercept", "frame", "low_prob", "magnitude", "dominance")
RAW_NAMES = ("intercept", "safe", "risky", "p", "frame")

# Selection thresholds. Cramér's V and eta squared are not on a common scale,
# so each metric gets its own default, both set at the conventional
# small-effect boundary.
DEFAULT_TAU_V = 0.1
DEFAULT_TAU_ETA = 0.01


def _col_frame(a: ScenarioArrays) -> np.ndarray:
    return a.frame.astype(float)


def _col_low_prob(a: ScenarioArrays) -> np.ndarray:
    return (a.p < 0.2).astype(float)


def _col_magnitude(a: ScenarioArrays) -> np.ndarray:
    return (a.risky - a.safe) / 100.0


def _col_dominance(a: ScenarioArrays) -> np.ndarray:
    return (a.p * a.risky > a.safe).astype(float)


def _col_certainty(a: ScenarioArrays) -> np.ndarray:
    # The safe option pays with certainty in every scenario of this design,
    # so this indicator is constant; it exists to exercise the screening
    # path that drops uninformative columns.
    return np.ones(len(a))


_COLUMN_BUILDERS: dict[str, Callable[[ScenarioArrays], np.ndarray]] = {
    "intercept": lambda a: np.ones(len(a)),
    "frame": _col_frame,
    "low_prob": _col_low_prob,
    "magnitude": _col_magnitude,
    "dominance": _col_dominance,
    "certainty": _col_certainty,
    "safe": lambda a: a.safe.copy(),
    "risky": lambda a: a.risky.copy(),
    "p": lambda a: a.p.copy(),
}


# The candidates that screening scores, in report order, with their kind:
# "categorical" columns are screened with Cramér's V, "continuous" ones with
# eta squared. Each column comes from _COLUMN_BUILDERS.
CANDIDATE_KINDS = {
    "frame": "categorical",
    "low_prob": "categorical",
    "magnitude": "continuous",
    "dominance": "categorical",
    "certainty": "categorical",
}


def design_matrix(arrays: ScenarioArrays, names) -> np.ndarray:
    """Build a design matrix with the given feature columns, in order."""
    cols = []
    for name in names:
        builder = _COLUMN_BUILDERS.get(name)
        if builder is None:
            raise InputError(f"unknown feature {name!r}")
        cols.append(builder(arrays))
    if not cols:
        raise InputError("no feature names given")
    return np.column_stack(cols)


def cramers_v(x, y) -> float:
    """Cramér's V between a categorical vector and a binary outcome.

    Computed as sqrt(chi2 / (n * (min(r, c) - 1))) from the Pearson
    chi-squared statistic of the r x c contingency table, without a
    continuity correction.

    Raises
    ------
    UndefinedEffectSizeError
        If either vector is constant; a one-level table carries no
        association information, which is not the same as zero association.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 1 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise InputError("x and y must be equal-length vectors")
    n = x.shape[0]
    if n < 2:
        raise InputError("need at least 2 observations")

    x_levels, xi = np.unique(x, return_inverse=True)
    y_levels, yi = np.unique(y, return_inverse=True)
    r, c = x_levels.shape[0], y_levels.shape[0]
    if r < 2:
        raise UndefinedEffectSizeError("x is constant; Cramér's V is undefined")
    if c < 2:
        raise UndefinedEffectSizeError("y is constant; Cramér's V is undefined")

    observed = np.zeros((r, c))
    np.add.at(observed, (xi, yi), 1.0)
    row_tot = observed.sum(axis=1, keepdims=True)
    col_tot = observed.sum(axis=0, keepdims=True)
    expected = row_tot @ col_tot / n
    chi2 = float(((observed - expected) ** 2 / expected).sum())

    v2 = chi2 / (n * (min(r, c) - 1))
    # chi2 arithmetic can land a hair outside [0,1] at machine precision
    return float(min(max(np.sqrt(max(v2, 0.0)), 0.0), 1.0))


def eta_squared(x, y) -> float:
    """Eta squared (SS_between / SS_total) of a continuous vector grouped by
    a binary outcome.

    Raises
    ------
    UndefinedEffectSizeError
        If x is constant (SS_total = 0) or y has a single class.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 1 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise InputError("x and y must be equal-length vectors")
    if x.shape[0] < 2:
        raise InputError("need at least 2 observations")

    groups = np.unique(y)
    if groups.shape[0] < 2:
        raise UndefinedEffectSizeError("y is constant; eta squared is undefined")

    if np.all(x == x[0]):
        raise UndefinedEffectSizeError("x is constant; eta squared is undefined")
    # the ratio is unchanged by scaling x; a power-of-two scale is exact and
    # brings max |x| into [0.5, 1), so no sum of squares underflows to 0 or
    # overflows to inf
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
    grand = x.mean()
    ss_total = float(((x - grand) ** 2).sum())
    ss_between = 0.0
    for g in groups:
        xg = x[y == g]
        ss_between += xg.shape[0] * (xg.mean() - grand) ** 2
    return float(min(max(ss_between / ss_total, 0.0), 1.0))


@dataclass(frozen=True)
class EffectSizeEntry:
    """Screening verdict for one candidate feature."""

    name: str
    metric: str
    value: float | None
    threshold: float
    retained: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EffectSizeReport:
    """Outcome of effect-size screening over all candidates."""

    entries: tuple[EffectSizeEntry, ...]

    def retained_names(self) -> tuple[str, ...]:
        """Feature names for the downstream model; the intercept is always
        kept and is not itself screened."""
        return ("intercept",) + tuple(e.name for e in self.entries if e.retained)

    def to_json_list(self) -> list[dict]:
        return [e.to_json_dict() for e in self.entries]


def select_features(
    arrays: ScenarioArrays,
    tau_v: float = DEFAULT_TAU_V,
    tau_eta: float = DEFAULT_TAU_ETA,
) -> EffectSizeReport:
    """Screen the candidate features of CANDIDATE_KINDS against the observed
    choices.

    Categorical candidates are scored with Cramér's V against threshold
    ``tau_v``; continuous ones with eta squared against ``tau_eta``. A
    constant column has no defined effect size: it is reported with a null
    value, dropped, and a warning is logged.
    """
    if len(arrays) < 2:
        raise InputError("need at least 2 scenarios to screen features")
    y = arrays.choice

    entries = []
    for name, kind in CANDIDATE_KINDS.items():
        col = _COLUMN_BUILDERS[name](arrays)
        if kind == "categorical":
            metric, threshold, score = "cramers_v", tau_v, cramers_v
        else:
            metric, threshold, score = "eta_squared", tau_eta, eta_squared
        try:
            value = score(col, y)
        except UndefinedEffectSizeError as exc:
            log.warning("dropping feature %r: %s", name, exc)
            entries.append(EffectSizeEntry(name, metric, None, threshold, False))
            continue
        entries.append(EffectSizeEntry(name, metric, value, threshold, value >= threshold))
    return EffectSizeReport(tuple(entries))
