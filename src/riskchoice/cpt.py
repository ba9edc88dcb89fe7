"""Prospect-theoretic choice model: piecewise power value function, Prelec
probability weighting, and bounded maximum-likelihood estimation.

The value function is v(x) = x^alpha for gains and -lambda * (-x)^beta for
losses; the weighting function is w(p) = exp(-(-ln p)^gamma). A scenario's
risky option is valued at w(p) v(R), the safe option at v(S), and the choice
probability is the logistic transform of eta times their difference.

Estimation runs a trust-region Newton iteration from multiple random start
points in an unconstrained reparameterization (logit-type transforms for the
box-bounded shape parameters, log transforms for the positive ones), so every
visited point maps inside the constraint box. One pass over the data gives the
mean negative log-likelihood with its analytic gradient and Hessian in
(alpha, beta, lambda, gamma, eta), from the closed-form derivatives of the
power value function and the Prelec weight; both are chained through the
transforms. A parameter whose branch no row evaluates leaves the solve:
gain-only payoffs never reach the loss branch, so beta and lambda have an
exactly zero gradient and stay at their start values. A shape parameter whose
optimum lies on its upper bound is held exactly there. Standard errors come
from the observed Fisher information, the same analytic Hessian at the
optimum. Parameters the data carry no information about (a zero row of the
information matrix) get no standard error rather than a fabricated one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import EstimationError, InputError
from .glm import sigmoid, softplus_sum
from .scenario import ScenarioArrays

PARAM_NAMES = ("alpha", "beta", "lambda", "gamma", "eta")

DEFAULT_GAMMA_MAX = 5.0
DEFAULT_RESTARTS = 20
DEFAULT_FIT_SEED = 7

# A restart has converged when half the Newton decrement g' H^-1 g of the
# mean negative log-likelihood over its free coordinates falls to this. It
# estimates how far the objective still is above the optimum; the objective
# is a mean over rows, so the rule does not change with n.
_DECREMENT_TOL = 1e-12

# Likelihood passes one restart may take before it stops unconverged.
_MAX_PASSES = 200

# A box-bounded coordinate within this relative distance of its upper bound,
# whose gradient points out of the box, is moved onto the bound. Newton steps
# in t approach the bound about one unit of t per step, since there
# theta = bound * (1 - exp(-t)) to first order.
_BOUND_REL = 1e-3

# t of a coordinate held on its upper bound (sigmoid(t) == 1.0 exactly from
# t = 37 on), and t where a released coordinate restarts, _BOUND_REL below it
_T_HELD = 40.0
_T_RELEASED = math.log((1.0 - _BOUND_REL) / _BOUND_REL)

# First trust-region radius, in units of t, so that no first step moves a
# positive parameter by more than a factor e ** 2. Without it a full Newton
# step from a poor start can land on the eta -> 0 plateau, where the
# objective is flat at log 2.
_RADIUS_START = 2.0

# exp(t) overflows from here on
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class CptParams:
    """Parameters (alpha, beta, lambda, gamma, eta) of the choice model.

    alpha and beta are the gain and loss curvature exponents in (0, 1];
    lam is the loss-aversion multiplier; gamma the weighting exponent; eta
    the choice sensitivity. All are finite; lam, gamma, eta strictly
    positive.
    """

    alpha: float
    beta: float
    lam: float
    gamma: float
    eta: float

    def __post_init__(self):
        vals = (self.alpha, self.beta, self.lam, self.gamma, self.eta)
        if not all(math.isfinite(v) for v in vals):
            raise InputError("parameters must be finite")
        if not 0.0 < self.alpha <= 1.0:
            raise InputError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise InputError(f"beta must lie in (0, 1], got {self.beta}")
        if self.lam <= 0.0:
            raise InputError(f"lambda must be positive, got {self.lam}")
        if self.gamma <= 0.0:
            raise InputError(f"gamma must be positive, got {self.gamma}")
        if self.eta <= 0.0:
            raise InputError(f"eta must be positive, got {self.eta}")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.alpha, self.beta, self.lam, self.gamma, self.eta)


def value_array(x, params: CptParams) -> np.ndarray:
    """Piecewise power value of each payoff: x^alpha on gains, -lam*(-x)^beta
    on losses."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = x[pos] ** params.alpha
    out[~pos] = -params.lam * (-x[~pos]) ** params.beta
    return out


def weight_array(p, params: CptParams) -> np.ndarray:
    """Prelec weighting exp(-(-ln p)^gamma) of each probability; fixes p=1
    and p=1/e."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise InputError("probabilities must lie in (0, 1]")
    return np.exp(-((-np.log(p)) ** params.gamma))


def choice_prob_array(arrays: ScenarioArrays, params: CptParams) -> np.ndarray:
    """P(risky) = sigmoid(eta * (w(p) v(R) - v(S))) for every scenario."""
    u_risky = weight_array(arrays.p, params) * value_array(arrays.risky, params)
    u_safe = value_array(arrays.safe, params)
    return sigmoid(params.eta * (u_risky - u_safe))


def cpt_log_likelihood(params: CptParams, arrays: ScenarioArrays) -> float:
    """Bernoulli log-likelihood of the observed choices under the model."""
    prep = _Prepared(arrays)
    return float(-prep.neg_mean_ll(params.as_tuple()) * prep.n)


class _Prepared:
    """Dataset preprocessed for repeated likelihood and derivative passes.

    Rows are reordered once so that rows sharing a (risky sign, safe sign)
    pair form one contiguous block. Within a block each payoff takes a single
    branch of the value function, so every power term is one exp(a * log|x|)
    over a slice, with no boolean-mask gather or scatter; gain-only data is a
    single block. The likelihood is a sum over rows, so the order changes it
    only by summation rounding. Every per-row intermediate lives in a work
    buffer allocated here, so a pass allocates no array of n rows.
    """

    def __init__(self, arrays: ScenarioArrays):
        if np.any(arrays.p <= 0.0) or np.any(arrays.p >= 1.0):
            raise InputError("win probabilities must lie strictly in (0, 1)")
        self.n = n = len(arrays)
        risky_sign = np.sign(arrays.risky).astype(np.int64)
        safe_sign = np.sign(arrays.safe).astype(np.int64)
        order = np.argsort(3 * risky_sign + safe_sign, kind="stable")
        risky_sign = risky_sign[order]
        safe_sign = safe_sign[order]
        changes = (np.diff(risky_sign) != 0) | (np.diff(safe_sign) != 0)
        edges = [0, *(np.flatnonzero(changes) + 1).tolist(), n]
        # (rows, risky sign, safe sign) for each block
        self.blocks = tuple(
            (slice(lo, hi), int(risky_sign[lo]), int(safe_sign[lo]))
            for lo, hi in zip(edges[:-1], edges[1:])
            if hi > lo
        )
        # The parameters the likelihood depends on: a branch of the value
        # function enters only through payoffs of its sign, gamma only
        # through nonzero risky payoffs. The others have an exactly zero
        # gradient and Hessian row, whatever the parameters.
        signs = {sign for _, rs, ss in self.blocks for sign in (rs, ss)}
        self.identified = np.array([
            1 in signs,
            -1 in signs,
            -1 in signs,
            any(rs != 0 for _, rs, _ in self.blocks),
            signs != {0},
        ])

        self.sign = (1.0 - 2.0 * arrays.choice.astype(float))[order]
        self.loglogp = np.log(-np.log(arrays.p[order]))
        with np.errstate(divide="ignore"):
            # log 0 = -inf is never read: zero payoffs take the zero branch
            self.log_abs_risky = np.log(np.abs(arrays.risky[order]))
            self.log_abs_safe = np.log(np.abs(arrays.safe[order]))

        # one allocation each: small ones come from the reused heap, not from
        # fresh pages that every new instance would fault in
        self._neg_q, self._u_risky, self._v_safe, self._signed = (np.empty(n) for _ in range(4))
        # d is only read on the way to the signed latent until a derivative
        # pass gives it a row of its own
        self._diff = self._signed
        # the derivative pass's own buffers, made by its first call, so that
        # value-only use (cpt_log_likelihood) does not pay for them
        self._jac = None

    def _latent(self, theta) -> None:
        """Fill, per row, -q = -(-ln p)^gamma, the risky payoff's weighted
        value w(p) v(R) with w(p) = exp(-q), v(S), d = w(p) v(R) - v(S) and the
        signed latent sign * eta * d, whose softplus is the row's term."""
        alpha, beta, lam, gamma, eta = theta
        neg_q, u_risky, v_safe = self._neg_q, self._u_risky, self._v_safe
        np.multiply(self.loglogp, gamma, out=neg_q)
        np.exp(neg_q, out=neg_q)
        np.negative(neg_q, out=neg_q)
        for rows, rs, ss in self.blocks:
            # w(p) |R|^a = exp(a ln|R| - q)
            _branch_value(rs, self.log_abs_risky[rows], alpha, beta, lam, u_risky[rows], neg_q[rows])
            _branch_value(ss, self.log_abs_safe[rows], alpha, beta, lam, v_safe[rows])
        diff = np.subtract(u_risky, v_safe, out=self._diff)
        np.multiply(diff, eta, out=self._signed)
        self._signed *= self.sign

    def neg_mean_ll(self, theta) -> float:
        """Negative per-observation log-likelihood; +inf when evaluation
        breaks down numerically."""
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            self._latent(theta)
            # -q and w(p) v(R) are spent once the latent is formed
            total, _ = softplus_sum(self._signed, self._neg_q, self._u_risky)
        if not np.isfinite(total):
            return np.inf
        return total / self.n

    def derivatives(self, theta) -> tuple[float, np.ndarray, np.ndarray]:
        """neg_mean_ll with its gradient and Hessian in (alpha, beta, lambda,
        gamma, eta), from one pass over the rows.

        Each row's term is softplus(sign * z) with z = eta * d. With rho its
        derivative in z and h its second derivative, the Hessian of the sum
        is sum h (dz/dtheta)(dz/dtheta)' + sum rho d2z/dtheta2; both use the
        closed-form derivatives of the power value function and the Prelec
        weight. Where the value or a derivative is not finite the value is
        +inf and the derivatives are NaN. Rows and columns of parameters
        outside ``identified`` are exactly 0.
        """
        lam, eta = theta[2], theta[4]
        if self._jac is None:
            # per row, dz/dtheta / eta for (alpha, beta, lambda, gamma) and
            # then dz/deta = d, for the latent z = eta * d of each row. Rows of
            # parameters that a block never reaches stay 0; d is written
            # straight into the last row from now on.
            self._jac = np.zeros((5, self.n))
            self._hjac = np.empty((5, self.n))
            self._diff = self._jac[4]
            self._e, self._aux, self._rho, self._h = (np.empty(self.n) for _ in range(4))
            self._half_sign = 0.5 * self.sign
        jac, rho, h, aux = self._jac, self._rho, self._h, self._aux
        # sum rho d2z/dtheta2 / eta over (alpha, beta, lambda, gamma), with
        # the diagonal at half weight: it is added with its transpose
        second = np.zeros((4, 4))
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            self._latent(theta)
            total, e = softplus_sum(self._signed, self._e, aux)
            # rho = sign * sigmoid(signed) and h = sigmoid (1 - sigmoid), from e
            np.add(e, 1.0, out=aux)
            np.reciprocal(aux, out=aux)
            np.multiply(e, aux, out=h)
            h *= aux
            np.subtract(aux, 0.5, out=rho)
            np.copysign(rho, jac[4], out=rho)
            rho += self._half_sign
            # dw/dgamma = -w m and d2w/dgamma2 = w m (m - ln(-ln p)), where
            # m = q ln(-ln p)
            neg_m = np.multiply(self._neg_q, self.loglogp, out=self._neg_q)
            np.multiply(self._u_risky, neg_m, out=jac[3])
            np.add(self.loglogp, neg_m, out=aux)
            second[3, 3] = 0.5 * _dot3(rho, jac[3], aux)
            for rows, rs, ss in self.blocks:
                self._add_block(second, rows, rs, ss, lam)
            jac_rho = jac @ rho
            second[1, 2] = jac_rho[1] / lam
            np.multiply(jac, h, out=self._hjac)
            # rows 0-3 of jac are dz/dtheta / eta; the Hessian is
            # D (jac h jac') D + eta * second + the eta row and column,
            # with D = diag(eta, eta, eta, eta, 1)
            scale = np.array([eta, eta, eta, eta, 1.0])
            hess = self._hjac @ jac.T
            hess += hess.T
            hess *= 0.5 * np.multiply.outer(scale, scale)
            second *= eta
            hess[:4, :4] += second
            hess[:4, :4] += second.T
            hess[:4, 4] += jac_rho[:4]
            hess[4, :4] += jac_rho[:4]
            grad = jac_rho * scale
        if not (np.isfinite(total) and np.all(np.isfinite(hess)) and np.all(np.isfinite(grad))):
            return np.inf, np.full(5, np.nan), np.full((5, 5), np.nan)
        return total / self.n, grad / self.n, hess / self.n

    def _add_block(self, second, rows, rs, ss, lam) -> None:
        """Write one block's rows of dz/d(alpha, beta, lambda) / eta and add
        its terms of sum rho d2z/dtheta2 / eta to ``second``, each diagonal
        term at half weight, since ``second`` is added with its transpose.

        A payoff x of sign +1 (-1) enters z / eta as c u, with c = +1 for the
        risky payoff and -1 for the safe one, u = w(p)^[risky] v(x) and
        v(x) = |x|^a or -lambda |x|^a for the exponent a = alpha (beta). So
        dz/da / eta = c u ln|x|, whose derivative in a is c u ln|x|^2; on
        losses dz/dlambda / eta = c u / lambda, whose derivative in lambda is
        0; on the risky payoff d2z/(da dgamma) = ln|x| dz/dgamma.
        """
        jac, rho, dz_dgamma = self._jac, self._rho[rows], self._jac[3, rows]
        written = set()
        for sign, coef, u, log_abs in (
            (rs, 1.0, self._u_risky[rows], self.log_abs_risky[rows]),
            (ss, -1.0, self._v_safe[rows], self.log_abs_safe[rows]),
        ):
            if sign == 0:
                continue
            k = 0 if sign > 0 else 1
            # u ln|x|, into row k when this block has not yet written it
            a = self._aux[rows] if k in written else jac[k, rows]
            np.multiply(u, log_abs, out=a)
            second[k, k] += 0.5 * coef * _dot3(rho, a, log_abs)
            if coef > 0.0:
                second[k, 3] += _dot3(rho, dz_dgamma, log_abs)
                if sign < 0:
                    second[2, 3] += _dot(rho, dz_dgamma) / lam
            if k in written:
                # only the safe payoff (c = -1) comes second
                jac[k, rows] -= a
            elif coef < 0.0:
                np.negative(a, out=a)
            written.add(k)
            if sign < 0:
                if 2 in written:
                    jac[2, rows] += np.multiply(u, coef / lam, out=self._aux[rows])
                else:
                    np.multiply(u, coef / lam, out=jac[2, rows])
                    written.add(2)


def _dot(a, b) -> float:
    # einsum's own loop, not BLAS ddot: waking a threaded BLAS for each
    # block's product costs more than the product at these sizes, and its
    # partial sums would depend on the BLAS thread count
    return float(np.einsum("i,i->", a, b))


def _dot3(a, b, c) -> float:
    return float(np.einsum("i,i,i->", a, b, c))


def _branch_value(sign: int, log_abs, alpha, beta, lam, out, log_weight=None) -> None:
    """Write v(x) for payoffs of one sign into out, given log|x|; times
    exp(log_weight) when that is given."""
    if sign == 0:
        out[:] = 0.0
        return
    np.multiply(log_abs, alpha if sign > 0 else beta, out=out)
    if log_weight is not None:
        out += log_weight
    np.exp(out, out=out)
    if sign < 0:
        out *= -lam


def _upper_bounds(gamma_max: float) -> tuple[float | None, ...]:
    """The fit's box, one entry per coordinate in PARAM_NAMES order.

    A coordinate with an upper bound (alpha, beta, gamma) is bound * sigmoid(t)
    of its unconstrained coordinate t; one without (None: lambda, eta) is
    exp(t).
    """
    return (1.0, 1.0, None, gamma_max, None)


def _start_box(gamma_max: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Lower and upper corners of the box that restart start points are
    drawn from, in PARAM_NAMES order."""
    gamma_hi = min(2.0, gamma_max)
    gamma_lo = min(0.2, gamma_hi / 2.0)
    return (0.2, 0.2, 0.5, gamma_lo, 0.01), (1.0, 1.0, 3.0, gamma_hi, 1.0)


def _logit(x: float) -> float:
    """log(x / (1 - x)) for x in [0, 1], with -inf at 0 and inf at 1."""
    if x == 0.0 or x == 1.0:
        return math.copysign(math.inf, x - 0.5)
    return math.log(x / (1.0 - x))


def _to_unconstrained(theta, gamma_max: float) -> np.ndarray:
    bounds = _upper_bounds(gamma_max)
    return np.array([np.log(v) if hi is None else _logit(v / hi) for v, hi in zip(theta, bounds)])


def _from_unconstrained(t, gamma_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta at unconstrained coordinates t, and the diagonals of its first
    and second derivatives d theta / d t and d2 theta / d t2."""
    theta, jac, curv = [], [], []
    for ti, hi in zip(np.asarray(t, dtype=float).tolist(), _upper_bounds(gamma_max)):
        if hi is None:
            v = math.exp(ti) if ti < _LOG_FLOAT_MAX else math.inf
            theta.append(v)
            jac.append(v)
            curv.append(v)
        else:
            # up = sigmoid(t) and down = sigmoid(-t), without overflow
            z = math.exp(-abs(ti))
            big, small = 1.0 / (1.0 + z), z / (1.0 + z)
            up, down = (big, small) if ti >= 0.0 else (small, big)
            theta.append(hi * up)
            jac.append(hi * up * down)
            curv.append(hi * up * down * (down - up))
    return np.array(theta), np.array(jac), np.array(curv)


@dataclass(frozen=True)
class RestartRecord:
    """One Newton restart: where it started and where it ended.

    ``n_evals`` counts likelihood passes, each giving the value with its
    gradient and Hessian; ``converged`` says whether the Newton decrement
    reached the stop rule (see _newton) within the pass limit.
    """

    index: int
    seed: int
    start: tuple[float, float, float, float, float]
    log_likelihood: float
    converged: bool
    n_evals: int

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["start"] = dict(zip(PARAM_NAMES, self.start))
        return d


@dataclass
class CptFit:
    """Result of the multi-restart maximum-likelihood fit.

    ``std_errors`` holds one entry per parameter in the order
    (alpha, beta, lambda, gamma, eta); an entry is None when the observed
    information carries nothing about that parameter (its row is zero) or the
    identified block could not be inverted, in which case
    ``information_singular`` is also set.
    """

    params: CptParams
    std_errors: tuple[float | None, ...]
    log_likelihood: float
    restart_log: tuple[RestartRecord, ...]
    converged: bool
    information_singular: bool
    n_obs: int
    gamma_max: float
    unconstrained_optimum: np.ndarray

    def to_json_dict(self) -> dict:
        d = dict(zip(PARAM_NAMES, self.params.as_tuple()))
        d["std_errors"] = {
            name: (None if se is None else float(se))
            for name, se in zip(PARAM_NAMES, self.std_errors)
        }
        d["log_likelihood"] = float(self.log_likelihood)
        d["converged"] = self.converged
        d["information_singular"] = self.information_singular
        d["n_obs"] = self.n_obs
        d["gamma_max"] = float(self.gamma_max)
        d["restarts"] = [r.to_json_dict() for r in self.restart_log]
        return d


def _standard_errors(info: np.ndarray) -> tuple[tuple[float | None, ...], bool]:
    """Invert the identified block of the information matrix.

    Rows that are numerically zero mark parameters the likelihood does not
    depend on; their entries come back None. Returns (std_errors, singular).
    """
    k = info.shape[0]
    scale = max(1.0, float(np.max(np.abs(info))))
    live = [i for i in range(k) if np.any(np.abs(info[i]) > 1e-10 * scale)]
    ses: list[float | None] = [None] * k
    singular = len(live) < k
    if not live:
        return tuple(ses), True
    sub = info[np.ix_(live, live)]
    try:
        sub_cov = np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        return tuple(ses), True
    diag = np.diag(sub_cov)
    for pos, i in enumerate(live):
        d = diag[pos]
        if np.isfinite(d) and d >= 0.0:
            ses[i] = float(np.sqrt(d))
        else:
            singular = True
    return tuple(ses), singular


class _Point(NamedTuple):
    """An iterate: unconstrained coordinates, theta with the diagonals of
    d theta/dt and d2 theta/dt2, and neg_mean_ll with its gradient and
    Hessian in theta."""

    t: np.ndarray
    theta: np.ndarray
    jac: np.ndarray
    curv: np.ndarray
    value: float
    grad: np.ndarray
    hess: np.ndarray


def _evaluate(prep: _Prepared, t, gamma_max: float) -> _Point:
    theta, jac, curv = _from_unconstrained(t, gamma_max)
    return _Point(t, theta, jac, curv, *prep.derivatives(theta))


def _newton(prep: _Prepared, t0, gamma_max: float) -> tuple[np.ndarray, float, bool, int]:
    """Minimize neg_mean_ll from t0 by trust-region Newton steps in
    unconstrained coordinates; return (end point, value there, converged,
    likelihood passes).

    Coordinates outside ``prep.identified`` stay at their start. A
    box-bounded coordinate near its upper bound whose gradient points out of
    the box is held exactly on the bound when that does not raise the
    objective and the gradient on the bound still points out of the box, and
    released when its gradient turns inward (as in projected Newton,
    Bertsekas 1982). The free coordinates step along
    -(H_t + mu I)^-1 g_t, where g_t = J g and H_t = J H J + diag(g theta'')
    are the gradient and Hessian in t, with the smallest mu >= 0 that keeps
    the step inside the trust region (Nocedal & Wright, Numerical
    Optimization, ch. 4). A step that raises the objective is rejected.
    Once half the Newton decrement over the free coordinates is at most
    _DECREMENT_TOL, the restart has converged: one last full Newton step is
    taken, which near the optimum squares the remaining error, and kept if
    it does not raise the objective.
    """
    upper = np.array([math.inf if hi is None else hi for hi in _upper_bounds(gamma_max)])
    bounded = [i for i in range(5) if math.isfinite(upper[i]) and prep.identified[i]]
    # distance below its upper bound from which a coordinate is tried on it;
    # after a failed try or a release, half the distance it was at, so a
    # coordinate whose optimum lies just inside the box is tried only as
    # often as it closes in on the bound
    gap = _BOUND_REL * upper
    held = np.zeros(5, dtype=bool)
    point = _evaluate(prep, np.array(t0, dtype=float), gamma_max)
    passes = 1
    radius = _RADIUS_START
    while passes < _MAX_PASSES and math.isfinite(point.value):
        theta, grad = point.theta.tolist(), point.grad.tolist()
        onto = [i for i in bounded
                if not held[i] and upper[i] - theta[i] < gap[i] and grad[i] < 0.0]
        if onto:
            t = point.t.copy()
            t[onto] = _T_HELD
            trial = _evaluate(prep, t, gamma_max)
            passes += 1
            # the bound must not raise the objective and must be a KKT point:
            # there the gradient still points out of the box
            if trial.value <= point.value and np.all(trial.grad[onto] < 0.0):
                point = trial
                held[onto] = True
                continue
            gap[onto] = 0.5 * (upper[onto] - point.theta[onto])
        off = [i for i in bounded if held[i] and grad[i] > 0.0]
        if off:
            t = point.t.copy()
            t[off] = _T_RELEASED
            point = _evaluate(prep, t, gamma_max)
            passes += 1
            held[off] = False
            gap[off] = 0.5 * (upper[off] - point.theta[off])
            continue

        free = np.flatnonzero(prep.identified & ~held)
        if free.size == 0:
            return point.t, point.value, True, passes
        jac = point.jac[free]
        hess_t = jac[:, None] * point.hess[free][:, free] * jac
        hess_t.flat[:: free.size + 1] += point.grad[free] * point.curv[free]
        eig, vec = np.linalg.eigh(hess_t)
        proj = vec.T @ (jac * point.grad[free])
        if eig[0] > 0.0 and proj @ (proj / eig) <= 2.0 * _DECREMENT_TOL:
            t = point.t.copy()
            t[free] -= vec @ (proj / eig)
            final = _evaluate(prep, t, gamma_max)
            if final.value <= point.value:
                point = final
            return point.t, point.value, True, passes + 1

        while passes < _MAX_PASSES:
            step = _trust_region_step(eig, proj, radius)
            t = point.t.copy()
            t[free] += vec @ step
            trial = _evaluate(prep, t, gamma_max)
            passes += 1
            predicted = -(proj @ step + 0.5 * (eig * step) @ step)
            gain = point.value - trial.value
            length = math.sqrt(step @ step)
            if not gain >= 0.25 * predicted:
                radius = length / 4.0
            elif gain >= 0.75 * predicted and length >= 0.99 * radius:
                radius = 2.0 * radius
            if trial.value <= point.value:
                point = trial
                break
    return point.t, point.value, False, passes


def _trust_region_step(eig, proj, radius: float) -> np.ndarray:
    """Minimizer, in the eigenbasis of the Hessian, of the quadratic model
    proj's + s'diag(eig)s / 2 over steps s no longer than radius:
    s = -proj / (eig + mu) with the smallest admissible mu >= 0, found by
    Newton's method on 1/|s(mu)| - 1/radius (Nocedal & Wright, Alg. 4.3).
    """
    if eig[0] > 0.0:
        with np.errstate(over="ignore"):
            newton = -proj / eig
            if newton @ newton <= radius * radius:
                return newton
    lowest = max(0.0, -float(eig[0]))
    mu = lowest + 1e-12 * max(1.0, lowest)
    for _ in range(50):
        step = -proj / (eig + mu)
        length = math.sqrt(step @ step)
        if length <= radius * (1.0 + 1e-3):
            break
        # scaled by the step's length, so that no square underflows
        unit = step / length
        mu += (length / radius - 1.0) / ((unit * unit) @ (1.0 / (eig + mu)))
    return step


def fit_cpt(
    arrays: ScenarioArrays,
    n_restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_FIT_SEED,
    gamma_max: float = DEFAULT_GAMMA_MAX,
) -> CptFit:
    """Fit the choice model by maximum likelihood with random restarts.

    Each restart draws a start point uniformly over a box of canonical
    parameter values, maps it to unconstrained coordinates, and runs the
    trust-region Newton iteration of _newton there on the analytic gradient
    and Hessian. The fit's box is alpha, beta in
    (0, 1], gamma in (0, gamma_max] and lambda, eta > 0. The restart with the
    highest final log-likelihood wins, and exact ties go to the lowest
    restart index, so the result is a pure function of (data, n_restarts,
    seed, gamma_max). The winner's record supplies ``log_likelihood`` and
    ``converged``, and its end point ``unconstrained_optimum``. Standard
    errors come from the analytic Hessian at the reported parameters.

    Raises
    ------
    EstimationError
        If no restart converges, or the best one ends at coordinates that map
        to a non-finite parameter; the error carries the restart log.
    """
    if n_restarts < 1:
        raise InputError("n_restarts must be at least 1")
    if not gamma_max > 0.0:
        raise InputError("gamma_max must be positive")

    prep = _Prepared(arrays)
    restart_seeds = np.random.SeedSequence(seed).generate_state(n_restarts)
    start_lo, start_hi = _start_box(gamma_max)

    records: list[RestartRecord] = []
    optima: list[np.ndarray] = []  # end points in unconstrained coordinates
    for idx, restart_seed in enumerate(restart_seeds.tolist()):
        start = np.random.Generator(np.random.PCG64(restart_seed)).uniform(start_lo, start_hi)
        end, value, converged, passes = _newton(prep, _to_unconstrained(start, gamma_max), gamma_max)
        records.append(
            RestartRecord(
                index=idx,
                seed=restart_seed,
                start=tuple(start.tolist()),
                log_likelihood=float(-value * prep.n),
                converged=converged,
                n_evals=passes,
            )
        )
        optima.append(end)

    if not any(r.converged for r in records):
        raise EstimationError(
            f"none of the {n_restarts} restarts converged", restart_log=records
        )

    # max keeps the first of equal keys, so an exact tie goes to the lowest index
    best = max(records, key=lambda r: r.log_likelihood)
    optimum = optima[best.index]

    theta, _, _ = _from_unconstrained(optimum, gamma_max)
    if not np.all(np.isfinite(theta)):
        raise EstimationError(
            f"best restart {best.index} ended at non-finite parameters "
            f"{dict(zip(PARAM_NAMES, theta.tolist()))}",
            restart_log=records,
        )
    # the transforms keep iterates inside the open box, but a coordinate
    # driven far into a flat direction can underflow to exactly 0
    theta = np.maximum(theta, 1e-300).tolist()
    params = CptParams(
        *(v if hi is None else min(v, hi) for v, hi in zip(theta, _upper_bounds(gamma_max)))
    )

    _, _, hess = prep.derivatives(params.as_tuple())
    std_errors, singular = _standard_errors(prep.n * hess)

    return CptFit(
        params=params,
        std_errors=std_errors,
        log_likelihood=best.log_likelihood,
        restart_log=tuple(records),
        converged=best.converged,
        information_singular=singular,
        n_obs=prep.n,
        gamma_max=float(gamma_max),
        unconstrained_optimum=optimum,
    )


def sample_value_curve(params: CptParams) -> np.ndarray:
    """Tabulate (x, v(x)) for plotting at 251 evenly spaced payoffs from -100
    to 150, spanning losses and gains."""
    x = np.linspace(-100.0, 150.0, 251)
    return np.column_stack([x, value_array(x, params)])


def sample_weight_curve(params: CptParams) -> np.ndarray:
    """Tabulate (p, w(p)) for plotting at 99 evenly spaced probabilities from
    0.01 to 0.99."""
    p = np.linspace(0.01, 0.99, 99)
    return np.column_stack([p, weight_array(p, params)])
