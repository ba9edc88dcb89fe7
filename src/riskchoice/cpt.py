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
(alpha, beta, lambda, gamma, eta); both are chained through the transforms.
Each payoff's term of the latent is +-eta exp(a ln|x|), times lambda on
losses and times the Prelec weight exp(-(-ln p)^gamma) for the risky payoff,
so one table of what a payoff of each sign enters (a gain alpha; a loss beta
and lambda, which it holds linearly; the risky payoff also gamma) decides
everything the pass does: which parameters the data identify, each branch of
the value function, and every derivative row and second-order sum. The pass
works only on the identified parameters: gain-only payoffs never reach the
loss branch, so beta and lambda have an exactly zero gradient, leave the solve
and stay at their start values. A shape parameter whose optimum lies on its
upper bound is held exactly there. Standard errors come from the observed Fisher
information, the same analytic Hessian at the optimum, inverted over the
identified parameters; the others get no standard error rather than a
fabricated one.
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
# the restart seeds are drawn up front, a 32-bit word each, so their count
# is bounded
MAX_RESTARTS = 10**6
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


def _latent_array(arrays: ScenarioArrays, params: CptParams) -> np.ndarray:
    """The latent eta * (w(p) v(R) - v(S)) of every scenario."""
    u_risky = weight_array(arrays.p, params) * value_array(arrays.risky, params)
    u_safe = value_array(arrays.safe, params)
    return params.eta * (u_risky - u_safe)


def choice_prob_array(arrays: ScenarioArrays, params: CptParams) -> np.ndarray:
    """P(risky) = sigmoid(eta * (w(p) v(R) - v(S))) for every scenario."""
    return sigmoid(_latent_array(arrays, params))


def cpt_log_likelihood(params: CptParams, arrays: ScenarioArrays) -> float:
    """Bernoulli log-likelihood of the observed choices under the model,
    -sum softplus((1 - 2y) z) over the latents z that choice_prob_array
    forms from value_array and weight_array; -inf when the sum overflows.
    """
    if len(arrays) == 0:
        raise InputError("the likelihood needs at least one scenario")
    with np.errstate(over="ignore", invalid="ignore"):
        signed = (1.0 - 2.0 * arrays.choice) * _latent_array(arrays, params)
        total, _ = softplus_sum(signed)
    return -total if math.isfinite(total) else -math.inf


# What the term of a nonzero payoff x enters, by its sign. The term in
# z = eta * (w(p) v(R) - v(S)) is +-eta * exp(phi) on gains and +-eta *
# lambda * exp(phi) on losses, with phi = a ln|x|, minus q = (-ln p)^gamma for
# the risky payoff. Each entry is (coordinate, kind): "power" is the exponent
# a, alpha on gains and beta on losses, with dphi/da = ln|x|; "linear" is
# lambda, which multiplies the term, so the term's derivative in it is the
# term / lambda and its second is 0; "weight" is gamma, which only the risky
# payoff enters, through w(p) = exp(-q), with dphi/dgamma = -m for
# m = q ln(-ln p) and d2phi/dgamma2 = -m ln(-ln p). eta multiplies every term.
_POWER, _LINEAR, _WEIGHT = "power", "linear", "weight"
_BY_SIGN = {1: ((0, _POWER),), -1: ((1, _POWER), (2, _LINEAR))}


def _enters(payoff: int, sign: int) -> tuple[tuple[int, str], ...]:
    """The (coordinate, kind) entries of a payoff (0 risky, 1 safe) of the
    given sign, as _BY_SIGN states them; none for a zero payoff."""
    if sign == 0:
        return ()
    return _BY_SIGN[sign] + ((3, _WEIGHT),) * (payoff == 0)


# each coordinate's kind, as the risky payoff enters it
_KIND = {c: kind for sign in (1, -1) for c, kind in _enters(0, sign)}


class _Prepared:
    """Dataset preprocessed for fit_cpt's repeated derivative passes, each
    giving the mean negative log-likelihood with its gradient and Hessian.
    It serves the fit only: cpt_log_likelihood and choice_prob_array evaluate
    the model through value_array and weight_array instead.

    Rows are reordered once so that rows sharing a (risky sign, safe sign)
    pair form one contiguous block. Within a block each payoff takes a single
    branch of the value function, so every power term is one exp(a * log|x|)
    over a slice, with no boolean-mask gather or scatter; gain-only data is a
    single block. The likelihood is a sum over rows, so the order changes it
    only by summation rounding. Every per-row intermediate lives in a work
    buffer allocated here, so a pass allocates no array of n rows.
    """

    def __init__(self, arrays: ScenarioArrays):
        self.n = n = len(arrays)
        if n == 0:
            raise InputError("the likelihood needs at least one scenario")
        # int8 keys: numpy sorts small integer types by radix
        risky_sign = np.sign(arrays.risky).astype(np.int8)
        safe_sign = np.sign(arrays.safe).astype(np.int8)
        order = np.argsort(3 * risky_sign + safe_sign, kind="stable")
        risky_sign = risky_sign[order]
        safe_sign = safe_sign[order]
        changes = (np.diff(risky_sign) != 0) | (np.diff(safe_sign) != 0)
        edges = [0, *(np.flatnonzero(changes) + 1).tolist(), n]
        # (rows, risky sign, safe sign) for each block
        self.blocks = tuple(
            (slice(lo, hi), int(risky_sign[lo]), int(safe_sign[lo]))
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        self.sign = (1.0 - 2.0 * arrays.choice.astype(float))[order]
        self.loglogp = np.log(-np.log(arrays.p[order]))
        with np.errstate(divide="ignore"):
            # log 0 = -inf is never read: zero payoffs take the zero branch
            self.log_abs = tuple(np.log(np.abs(x[order])) for x in (arrays.risky, arrays.safe))

        # one allocation each: small ones come from the reused heap, not from
        # fresh pages that every new instance would fault in
        self._q, self._signed = np.empty(n), np.empty(n)
        # w(p) v(R) and v(S), for the risky and the safe payoff
        self._uv = np.empty((2, n))
        self._u_risky, self._v_safe = self._uv
        # for each block and payoff, its sign, the coordinate of each kind it
        # enters and its slices of log|x|, of its value and of q
        self._branches = [
            (s, {kind: c for c, kind in _enters(x, s)}, self.log_abs[x][rows],
             self._uv[x, rows], self._q[rows])
            for rows, *signs in self.blocks
            for x, s in enumerate(signs)
        ]
        # The parameters the likelihood depends on: those some payoff enters,
        # and eta when any does. The others have an exactly zero gradient and
        # Hessian row, whatever the parameters.
        entered = {c for _, enters, *_ in self._branches for c in enters.values()}
        self.identified = np.array([c in entered for c in range(4)] + [bool(entered)])

        # the pass's work buffers, and from the sign table its fixed rows and
        # where each of its sums goes
        blocks = self.blocks
        self._coords = coords = np.flatnonzero(self.identified).tolist()
        # the identified coordinates but eta, which any of them brings, last
        params = coords[:-1]
        # jac holds, per data row, a row r for each identified coordinate,
        # with dz/dtheta = eta * c * r for z = eta * d (see _pass): r sums,
        # over the payoffs that enter the coordinate, +-u g, + for the risky
        # payoff and - for the safe one, where u is w(p) v(R) or v(S) and g
        # is ln|x| for an exponent, m for gamma and 1 for lambda. eta's r is
        # d, the last row; when every payoff is 0 nothing is identified and
        # d is the only row, read by no sum. Entries that no block reaches
        # stay 0.
        self._jac = jac = np.zeros((max(len(coords), 1), n))
        # h times each row of jac, then rho: one product with jac gives both
        # sum h r r' and sum rho r; then three work rows, in one allocation
        rows = np.empty((len(jac) + 4, n))
        self._left, work = rows[:-3], rows[-3:]
        self._rho = self._left[-1]
        self._e, self._aux, self._h = work
        self._half_sign = 0.5 * self.sign
        # dphi/dtheta = c g for each coordinate's g: c is 1 for an exponent,
        # -1 for gamma and 1 / theta, set by each pass, for a linear one
        self._c = [-1.0 if _KIND[i] == _WEIGHT else 1.0 for i in range(4)]
        self._linear = [i for i in params if _KIND[i] == _LINEAR]

        # Where each sum of a pass goes: the Hessian is 25 floats, row-major.
        # Its lower triangle, as (row r, row c, index, index of the mirror
        # entry), takes sum h r r' times the two rows' scales,
        self._pairs = [
            (r, c, 5 * i + j, 5 * j + i)
            for r, i in enumerate(coords)
            for c, j in enumerate(coords[: r + 1])
        ]
        # and then sum rho d2z/dtheta2. Its entries with eta are sum rho r
        # times c. For two other coordinates i and j it is eta c_i c_j times
        # the sum, over the payoffs x that enter both, of +-rho u g_i g_j:
        # that is sum rho r_o when one of them is linear and entered wherever
        # the other, o, is, and gamma with itself adds its curvature
        # -m ln(-ln p). The other sums over the data rows come from one
        # product of the weighted rows (rho u for each payoff and, for gamma,
        # rho u m, which takes over one factor m) with fixed rows: ln|x|^k on
        # the rows where x has a sign that enters both coordinates, k the
        # number of exponents among them, then ln(-ln p), and m, which each
        # pass writes. Each term is (index, weighted row, fixed row, +-1, i,
        # j); weighted row -1 stands for rho, whose sums are sum rho r.
        entries = [{s: dict(_enters(x, s)) for s in {b[1 + x] for b in blocks}} for x in (0, 1)]
        entered = [e for d in entries for e in d.values()]
        gamma = 3 in params
        keys = {"loglogp": -2, "m": -1} if gamma else {}
        # gamma's curvature: rho u m against ln(-ln p), times -eta c_gamma^2
        self._second = [(5 * 3 + 3, 2, -2, -1, 3, 3)] * gamma
        for a, i in enumerate(params):
            # a linear coordinate has no second derivative of its own
            for j in params[a + (_KIND[i] == _LINEAR) :]:
                kinds = sorted(_KIND[c] for c in (i, j))
                o, l = (i, j) if _KIND[j] == _LINEAR else (j, i)
                if kinds[0] == _LINEAR and all(l in e for e in entered if o in e):
                    self._second.append((5 * j + i, -1, params.index(o), 1, i, j))
                    continue
                for x, enters in enumerate(entries):
                    signs = tuple(s for s in sorted(enters) if i in enters[s] and j in enters[s])
                    if signs:
                        key = "m" if kinds == [_WEIGHT] * 2 else (x, signs, kinds.count(_POWER))
                        f = keys.setdefault(key, len(keys) - 2 * gamma)
                        w = 2 if _WEIGHT in kinds else x
                        self._second.append((5 * j + i, w, f, 1 - 2 * x, i, j))
        self._fixed = np.zeros((len(keys), n))
        for (x, signs, power), f in list(keys.items())[2 * gamma :]:
            for rows, *s in blocks:
                if s[x] in signs:
                    self._fixed[f, rows] = self.log_abs[x][rows] ** power
        if gamma:
            # ln(-ln p) lives in its fixed row from now on
            self._fixed[-2] = self.loglogp
        self.loglogp, self._m = self._fixed[-2:] if gamma else (self.loglogp, None)
        # rho times u, v and, when gamma is identified, r_gamma is formed
        # once e, aux and h are spent, in their memory
        self._weighted = work[: 2 + gamma]

        # The block-by-block steps that write each r but eta's, as (r's
        # slice, aux's slice, first term, other terms): a term (payoff, u, g)
        # for each payoff that enters the coordinate, the risky one first,
        # with g of each kind (1 for a linear one) by payoff.
        g = {_POWER: self.log_abs, _WEIGHT: [self._m]}
        self._fills = []
        for rows, *signs in blocks:
            for r, i in enumerate(params):
                fill = [(x, self._uv[x, rows], g[kind][x][rows] if kind in g else 1.0)
                        for x, s in enumerate(signs) for c, kind in _enters(x, s) if c == i]
                if fill:
                    self._fills.append((jac[r, rows], self._aux[rows], fill[0], fill[1:]))

    def derivatives(self, theta) -> tuple[float, np.ndarray, np.ndarray]:
        """Mean negative log-likelihood with its gradient and Hessian in
        (alpha, ..., eta), from one pass over the rows (see _pass)."""
        value, grad, hess = self._pass(theta)
        return value, np.array(grad), np.array(hess).reshape(5, 5)

    def _pass(self, theta) -> tuple[float, list[float], list[float]]:
        """Mean negative log-likelihood with its gradient and its Hessian in
        (alpha, ..., eta), the Hessian as 25 floats in row-major order.

        Each row's term is softplus(sign * z) with z = eta * d. With rho its
        derivative in z and h its second derivative, the Hessian of the sum
        is sum h (dz/dtheta)(dz/dtheta)' + sum rho d2z/dtheta2; both come
        from the sign table's entries (see __init__) and are formed for the
        coordinates in ``identified`` only. Where the value or a derivative
        is not finite the value is +inf and the derivatives are NaN. Rows
        and columns of parameters outside ``identified`` are exactly 0.
        """
        eta = float(theta[4])
        jac, rho, h, aux = self._jac, self._rho, self._h, self._aux
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            # per row, q = (-ln p)^gamma, the risky payoff's weighted value
            # w(p) v(R) with w(p) = exp(-q), v(S), d = w(p) v(R) - v(S) and
            # the signed latent sign * eta * d, whose softplus is the term
            np.multiply(self.loglogp, theta[3], out=self._q)
            np.exp(self._q, out=self._q)
            for branch in self._branches:
                _branch_value(theta, *branch)
            diff = np.subtract(self._u_risky, self._v_safe, out=jac[-1])
            np.multiply(diff, eta, out=self._signed)
            self._signed *= self.sign
            total, e = softplus_sum(self._signed, self._e, aux)
            # rho = sign * sigmoid(signed) and h = sigmoid (1 - sigmoid), from e
            np.add(e, 1.0, out=aux)
            np.reciprocal(aux, out=aux)
            np.multiply(e, aux, out=h)
            h *= aux
            np.subtract(aux, 0.5, out=rho)
            np.copysign(rho, diff, out=rho)
            rho += self._half_sign
            if self._m is not None:
                np.multiply(self._q, self.loglogp, out=self._m)
            for out, tmp, (x, u, g), rest in self._fills:
                np.multiply(u, g, out=out)
                for _, v, g in rest:  # the safe payoff's term
                    out -= np.multiply(v, g, out=tmp)
                if x:  # the safe payoff's term alone
                    np.negative(out, out=out)
            np.multiply(jac, h, out=self._left[:-1])
            # e, aux and h are spent: their memory takes the weighted rows
            np.multiply(self._uv, rho, out=self._weighted[:2])
            if self._m is not None:
                # gamma's row is the last but eta's
                np.multiply(jac[-2], rho, out=self._weighted[2])
            second = (self._weighted @ self._fixed.T).tolist()
            sums = (self._left @ jac.T).tolist()

        n, jac_rho, c = self.n, sums[-1], self._c
        second.append(jac_rho)
        for i in self._linear:
            # a lambda that underflowed to 0 makes the pass non-finite, not
            # an error
            c[i] = 1.0 / float(theta[i]) if theta[i] > 0.0 else math.inf
        scale = [eta * c[i] if i < 4 else 1.0 for i in self._coords]
        grad = [0.0] * 5
        for r, i in enumerate(self._coords):
            grad[i] = jac_rho[r] * scale[r] / n
        hess = [0.0] * 25  # the lower triangle, then mirrored
        for r, k, lower, _ in self._pairs:
            hess[lower] = (sums[r][k] + sums[k][r]) * (0.5 * scale[r] * scale[k])
        # eta multiplies z: d2z/(dtheta deta) = c r
        for r, i in enumerate(self._coords[:-1]):
            hess[20 + i] += jac_rho[r] * c[i]
        for lower, w, f, sign, i, j in self._second:
            hess[lower] += second[w][f] * (sign * eta * c[i] * c[j])
        for _, _, lower, upper in self._pairs:
            hess[lower] = hess[upper] = hess[lower] / n
        if not math.isfinite(total + sum(grad) + sum(hess)):
            return math.inf, [math.nan] * 5, [math.nan] * 25
        return total / n, grad, hess


def _branch_value(theta, sign: int, enters: dict, log_abs, out, q) -> None:
    """Write v(x) for the payoffs of one sign into out, given log|x| and the
    coordinate of each kind that the payoff enters (see _enters): exp(a log|x|)
    for its exponent a, times exp(-q) when it enters the weight, times the
    sign and its linear coordinate."""
    if sign == 0:
        out[:] = 0.0
        return
    np.multiply(log_abs, theta[enters[_POWER]], out=out)
    if _WEIGHT in enters:
        out -= q
    np.exp(out, out=out)
    multiplier = sign * theta[enters[_LINEAR]] if _LINEAR in enters else sign
    if multiplier != 1:
        out *= multiplier


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


def _from_unconstrained(t, gamma_max: float) -> tuple[list[float], list[float], list[float]]:
    """theta at unconstrained coordinates t, and the diagonals of its first
    and second derivatives d theta / d t and d2 theta / d t2."""
    theta, jac, curv = [], [], []
    for ti, hi in zip(t, _upper_bounds(gamma_max)):
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
    return theta, jac, curv


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
    (alpha, beta, lambda, gamma, eta); an entry is None when the data do not
    identify that parameter (see _Prepared), when the identified block of the
    observed information could not be inverted, or when its variance came
    out negative or not finite, and then ``information_singular`` is set.
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


def _standard_errors(
    info: np.ndarray, identified: np.ndarray
) -> tuple[tuple[float | None, ...], bool]:
    """Invert the identified block of the information matrix.

    Parameters outside ``identified`` (see _Prepared) get None, as does every
    parameter when the block cannot be inverted, and any whose variance comes
    out negative or not finite. Returns (std_errors, singular), where
    singular says whether any entry is None.
    """
    live = np.flatnonzero(identified).tolist()
    ses: list[float | None] = [None] * info.shape[0]
    if not live:
        return tuple(ses), True
    try:
        sub_cov = np.linalg.inv(info[np.ix_(live, live)])
    except np.linalg.LinAlgError:
        return tuple(ses), True
    for i, d in zip(live, np.diag(sub_cov).tolist()):
        if math.isfinite(d) and d >= 0.0:
            ses[i] = math.sqrt(d)
    return tuple(ses), None in ses


class _Point(NamedTuple):
    """An iterate: unconstrained coordinates, theta with the diagonals of
    d theta/dt and d2 theta/dt2, and the objective with its gradient and
    Hessian in theta (row-major), as _Prepared._pass gives them."""

    t: list[float]
    theta: list[float]
    jac: list[float]
    curv: list[float]
    value: float
    grad: list[float]
    hess: list[float]


def _evaluate(prep: _Prepared, t, gamma_max: float) -> _Point:
    theta, jac, curv = _from_unconstrained(t, gamma_max)
    return _Point(t, theta, jac, curv, *prep._pass(theta))


def _newton(prep: _Prepared, t0, gamma_max: float) -> tuple[list[float], float, bool, int]:
    """Minimize the mean negative log-likelihood from t0 by trust-region
    Newton steps in unconstrained coordinates; return (end point, value
    there, converged, likelihood passes).

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
    upper = [math.inf if hi is None else hi for hi in _upper_bounds(gamma_max)]
    identified = np.flatnonzero(prep.identified).tolist()
    bounded = [i for i in identified if upper[i] < math.inf]
    # distance below its upper bound from which a coordinate is tried on it;
    # after a failed try or a release, half the distance it was at, so a
    # coordinate whose optimum lies just inside the box is tried only as
    # often as it closes in on the bound
    gap = [_BOUND_REL * hi for hi in upper]
    held: list[int] = []
    free = identified
    point = _evaluate(prep, [float(v) for v in t0], gamma_max)
    passes = 1
    radius = _RADIUS_START
    while passes < _MAX_PASSES and math.isfinite(point.value):
        theta, grad = point.theta, point.grad
        onto = [i for i in bounded
                if i not in held and upper[i] - theta[i] < gap[i] and grad[i] < 0.0]
        if onto:
            trial = _evaluate(prep, _replaced(point.t, onto, _T_HELD), gamma_max)
            passes += 1
            # the bound must not raise the objective and must be a KKT point:
            # there the gradient still points out of the box
            if trial.value <= point.value and all(trial.grad[i] < 0.0 for i in onto):
                point = trial
                held = sorted(held + onto)
                free = [i for i in identified if i not in held]
                continue
            for i in onto:
                gap[i] = 0.5 * (upper[i] - theta[i])
        off = [i for i in held if grad[i] > 0.0]
        if off:
            point = _evaluate(prep, _replaced(point.t, off, _T_RELEASED), gamma_max)
            passes += 1
            held = [i for i in held if i not in off]
            free = [i for i in identified if i not in held]
            for i in off:
                gap[i] = 0.5 * (upper[i] - point.theta[i])
            continue

        if not free:
            return point.t, point.value, True, passes
        hess = point.hess
        jac = [point.jac[i] for i in free]
        hess_t = [[ja * hess[5 * i + j] * jb for j, jb in zip(free, jac)] for i, ja in zip(free, jac)]
        for a, i in enumerate(free):
            hess_t[a][a] += grad[i] * point.curv[i]
        eig, vec = np.linalg.eigh(hess_t)
        eig, vec = eig.tolist(), vec.tolist()
        grad_t = [ja * grad[i] for i, ja in zip(free, jac)]
        # the gradient in the eigenbasis, vec' g_t
        proj = [sum(v[b] * g for v, g in zip(vec, grad_t)) for b in range(len(free))]
        if eig[0] > 0.0 and sum(p * (p / e) for p, e in zip(proj, eig)) <= 2.0 * _DECREMENT_TOL:
            newton = [-p / e for p, e in zip(proj, eig)]
            final = _evaluate(prep, _stepped(point.t, free, vec, newton), gamma_max)
            if final.value <= point.value:
                point = final
            return point.t, point.value, True, passes + 1

        while passes < _MAX_PASSES:
            step = _trust_region_step(eig, proj, radius)
            trial = _evaluate(prep, _stepped(point.t, free, vec, step), gamma_max)
            passes += 1
            predicted = -sum(p * s + 0.5 * (e * s) * s for p, e, s in zip(proj, eig, step))
            gain = point.value - trial.value
            length = math.sqrt(sum(s * s for s in step))
            if not gain >= 0.25 * predicted:
                radius = length / 4.0
                if radius == 0.0:
                    # the step's length underflowed: no shorter step is left
                    return point.t, point.value, False, passes
            elif gain >= 0.75 * predicted and length >= 0.99 * radius:
                radius = 2.0 * radius
            if trial.value <= point.value:
                point = trial
                break
    return point.t, point.value, False, passes


def _replaced(t: list[float], coords: list[int], value: float) -> list[float]:
    """t with the given coordinates set to value."""
    t = list(t)
    for i in coords:
        t[i] = value
    return t


def _stepped(t: list[float], free: list[int], vec: list[list[float]], step) -> list[float]:
    """t moved on the free coordinates by vec @ step, a step given in the
    eigenbasis whose vectors are the columns of vec."""
    t = list(t)
    for i, v in zip(free, vec):
        t[i] += sum(a * s for a, s in zip(v, step))
    return t


def _trust_region_step(eig: list[float], proj: list[float], radius: float) -> list[float]:
    """Minimizer, in the eigenbasis of the Hessian, of the quadratic model
    proj's + s'diag(eig)s / 2 over steps s no longer than radius:
    s = -proj / (eig + mu) with the smallest admissible mu >= 0, found by
    Newton's method on 1/|s(mu)| - 1/radius (Nocedal & Wright, Alg. 4.3).
    Takes and returns lists of floats, eig in ascending order; a quotient
    too large for a float is inf, as float division gives.
    """
    if eig[0] > 0.0:
        newton = [-p / e for p, e in zip(proj, eig)]
        if sum(s * s for s in newton) <= radius * radius:
            return newton
    lowest = max(0.0, -eig[0])
    mu = lowest + 1e-12 * max(1.0, lowest)
    for _ in range(50):
        step = [-p / (e + mu) for p, e in zip(proj, eig)]
        length = math.sqrt(sum(s * s for s in step))
        if length <= radius * (1.0 + 1e-3):
            break
        # scaled by the step's length, so that no square underflows
        slope = sum((s / length) * (s / length) / (e + mu) for s, e in zip(step, eig))
        # 0 or not finite where every component of the step over/underflows:
        # Newton's method on mu has no step to take
        if not 0.0 < slope < math.inf:
            break
        mu += (length / radius - 1.0) / slope
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
    if not 1 <= n_restarts <= MAX_RESTARTS:
        raise InputError(f"n_restarts must be from 1 to {MAX_RESTARTS}, got {n_restarts!r}")
    if not 0.0 < gamma_max < math.inf:
        raise InputError("gamma_max must be positive and finite")

    prep = _Prepared(arrays)
    restart_seeds = np.random.SeedSequence(seed).generate_state(n_restarts)
    start_lo, start_hi = _start_box(gamma_max)

    records: list[RestartRecord] = []
    optima: list[list[float]] = []  # end points in unconstrained coordinates
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
    optimum = np.array(optima[best.index], dtype=float)

    theta, _, _ = _from_unconstrained(optimum.tolist(), gamma_max)
    if not all(math.isfinite(v) for v in theta):
        raise EstimationError(
            f"best restart {best.index} ended at non-finite parameters "
            f"{dict(zip(PARAM_NAMES, theta))}",
            restart_log=records,
        )
    # the transforms keep iterates inside the open box, but a coordinate
    # driven far into a flat direction can underflow to exactly 0
    theta = [max(v, 1e-300) for v in theta]
    params = CptParams(
        *(v if hi is None else min(v, hi) for v, hi in zip(theta, _upper_bounds(gamma_max)))
    )

    _, _, hess = prep.derivatives(params.as_tuple())
    std_errors, singular = _standard_errors(prep.n * hess, prep.identified)

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
