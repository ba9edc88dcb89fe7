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


def _write_magnitude(a: ScenarioArrays, out: np.ndarray) -> None:
    np.subtract(a.risky, a.safe, out=out)
    out /= 100.0


def _write_dominance(a: ScenarioArrays, out: np.ndarray) -> None:
    np.multiply(a.p, a.risky, out=out)
    np.greater(out, a.safe, out=out)


# Each feature's writer ``write(a, out)`` fills the float array ``out`` with
# that feature's column of ``a`` in place; design_matrix is their one caller.
_COLUMN_BUILDERS = {
    "intercept": lambda a, out: out.fill(1.0),
    "frame": lambda a, out: np.copyto(out, a.frame),
    "low_prob": lambda a, out: np.less(a.p, 0.2, out=out),
    "magnitude": _write_magnitude,
    "dominance": _write_dominance,
    "safe": lambda a, out: np.copyto(out, a.safe),
    "risky": lambda a, out: np.copyto(out, a.risky),
    "p": lambda a, out: np.copyto(out, a.p),
}


# The candidates that screening scores, in report order, with their kind:
# "categorical" columns are screened with Cramér's V, "continuous" ones with
# eta squared. Screening reads each column as one row of the k x n storage
# of a single design_matrix over these names.
CANDIDATE_KINDS = {
    "frame": "categorical",
    "low_prob": "categorical",
    "magnitude": "continuous",
    "dominance": "categorical",
}


def design_matrix(arrays: ScenarioArrays, names) -> np.ndarray:
    """Build a design matrix with the given feature columns, in order.

    The n x k matrix is stored column-major, each feature's column
    contiguous and written in place, as the fit reads it; its values are
    those of ``np.column_stack`` over the same columns.
    """
    writers = []
    for name in names:
        write = _COLUMN_BUILDERS.get(name)
        if write is None:
            raise InputError(f"unknown feature {name!r}")
        writers.append(write)
    if not writers:
        raise InputError("no feature names given")
    # row j of the row-major k x n array is column j of the design
    columns = np.empty((len(writers), len(arrays)))
    for write, column in zip(writers, columns):
        write(arrays, column)
    return columns.T


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
    if x.shape[0] < 2:
        raise InputError("need at least 2 observations")
    return _cramers_v(x, _levels(y))


def _levels(v) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of v in sorted order and each element's index
    among them, as np.unique gives them: NaNs form one level, sorted last,
    and -0.0 shares the level of 0.0.

    The levels are the sorted values that differ from their neighbour. A
    column of two levels is coded by one comparison (the index is then
    boolean); any other by a binary search, which orders NaN and -0.0 as
    the sort does.
    """
    ordered = np.sort(v)
    first = np.empty(ordered.shape, bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if ordered.dtype.kind in "cfmM" and ordered.size and np.isnan(ordered[-1]):
        # NaN differs from itself, so only the first NaN opens a level
        first[np.searchsorted(np.isnan(ordered), True) + 1 :] = False
    levels = ordered[first]
    if levels.shape[0] == 2:
        return levels, v != levels[0]
    return levels, np.searchsorted(levels, v)


def _cramers_v(x, y_coded: tuple[np.ndarray, np.ndarray]) -> float:
    """cramers_v of x against an outcome given by its _levels."""
    n = x.shape[0]
    (x_levels, x_index), (y_levels, y_index) = _levels(x), y_coded
    r, c = x_levels.shape[0], y_levels.shape[0]
    if r < 2:
        raise UndefinedEffectSizeError("x is constant; Cramér's V is undefined")
    if c < 2:
        raise UndefinedEffectSizeError("y is constant; Cramér's V is undefined")

    cell = x_index * c + y_index
    observed = np.bincount(cell, minlength=r * c).reshape(r, c).astype(float)
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
    return _eta_squared(x, _levels(y))


def _eta_squared(x, y_coded: tuple[np.ndarray, np.ndarray]) -> float:
    """eta_squared of the float vector x grouped by an outcome given by its
    _levels."""
    levels, index = y_coded
    if levels.shape[0] < 2:
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
    for j in range(levels.shape[0]):
        # the same elements as x[index == j], gathered faster
        xg = np.take(x, np.flatnonzero(index == j))
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
    # the outcome's levels, found once for every candidate
    y_coded = _levels(arrays.choice)

    # the design's k x n storage: one contiguous row per candidate
    columns = design_matrix(arrays, tuple(CANDIDATE_KINDS)).T
    entries = []
    for (name, kind), col in zip(CANDIDATE_KINDS.items(), columns):
        if kind == "categorical":
            metric, threshold = "cramers_v", tau_v
        else:
            metric, threshold = "eta_squared", tau_eta
        try:
            value = (_cramers_v if kind == "categorical" else _eta_squared)(col, y_coded)
        except UndefinedEffectSizeError as exc:
            log.warning("dropping feature %r: %s", name, exc)
            entries.append(EffectSizeEntry(name, metric, None, threshold, False))
            continue
        entries.append(EffectSizeEntry(name, metric, value, threshold, value >= threshold))
    return EffectSizeReport(tuple(entries))
