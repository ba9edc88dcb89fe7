"""Prospect-theoretic choice model: piecewise power value function, Prelec
probability weighting, and bounded maximum-likelihood estimation.

The value function is v(x) = x^alpha for gains and -lambda * (-x)^beta for
losses; the weighting function is w(p) = exp(-(-ln p)^gamma). A scenario's
risky option is valued at w(p) v(R), the safe option at v(S), and the choice
probability is the logistic transform of eta times their difference.

Estimation runs L-BFGS-B from multiple random start points in an
unconstrained reparameterization (logit-type transforms for the box-bounded
shape parameters, log transforms for the positive ones), so every visited
point maps inside the constraint box. The mean negative log-likelihood and its
analytic gradient with respect to (alpha, beta, lambda, gamma, eta) come from
one pass over the data; the gradient is chained through the transforms.
Standard errors come from the observed Fisher information, central
differences of that analytic gradient in the original coordinates. Parameters
the data carry no information about (a zero row of the information matrix)
get no standard error rather than a fabricated one; gain-only payoffs leave
beta and lambda in exactly that position because the loss branch is never
evaluated: their gradient components are exactly zero, so the optimizer never
moves them from their start values.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, logit

from .errors import EstimationError, InputError
from .glm import softplus_sum
from .scenario import ScenarioArrays

PARAM_NAMES = ("alpha", "beta", "lambda", "gamma", "eta")

DEFAULT_GAMMA_MAX = 5.0
DEFAULT_RESTARTS = 20
DEFAULT_FIT_SEED = 7

# L-BFGS-B stopping rule per restart: the gradient max-norm of the mean
# negative log-likelihood in unconstrained coordinates falls to gtol, or its
# relative decrease per iteration falls to rounding level
_LBFGS_OPTIONS = {"gtol": 1e-9, "ftol": 1e-15}

# relative step for the central differences of the gradient that give the
# observed information
_FD_REL_STEP = 1e-4


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
    """P(risky) = expit(eta * (w(p) v(R) - v(S))) for every scenario."""
    u_risky = weight_array(arrays.p, params) * value_array(arrays.risky, params)
    u_safe = value_array(arrays.safe, params)
    return expit(params.eta * (u_risky - u_safe))


def cpt_log_likelihood(params: CptParams, arrays: ScenarioArrays) -> float:
    """Bernoulli log-likelihood of the observed choices under the model."""
    prep = _Prepared(arrays)
    return float(-prep.neg_mean_ll(params.as_tuple()) * prep.n)


class _Prepared:
    """Dataset preprocessed for repeated likelihood and gradient evaluation.

    Rows are reordered once so that rows sharing a (risky sign, safe sign)
    pair form one contiguous block. Within a block each payoff takes a single
    branch of the value function, so every power term is one exp(a * log|x|)
    over a slice, with no boolean-mask gather or scatter; gain-only data is a
    single block. The likelihood is a sum over rows, so the order changes it
    only by summation rounding. Evaluation is total: parameter vectors
    slightly outside the constraint box (as visited by finite differences at
    a near-boundary optimum) still get a value.
    """

    def __init__(self, arrays: ScenarioArrays):
        if np.any(arrays.p <= 0.0) or np.any(arrays.p >= 1.0):
            raise InputError("win probabilities must lie strictly in (0, 1)")
        self.n = len(arrays)
        risky_sign = np.sign(arrays.risky).astype(np.int64)
        safe_sign = np.sign(arrays.safe).astype(np.int64)
        order = np.argsort(3 * risky_sign + safe_sign, kind="stable")
        risky_sign = risky_sign[order]
        safe_sign = safe_sign[order]
        changes = (np.diff(risky_sign) != 0) | (np.diff(safe_sign) != 0)
        edges = [0, *(np.flatnonzero(changes) + 1).tolist(), self.n]
        # (rows, risky sign, safe sign) for each block
        self.blocks = tuple(
            (slice(lo, hi), int(risky_sign[lo]), int(safe_sign[lo]))
            for lo, hi in zip(edges[:-1], edges[1:])
            if hi > lo
        )

        self.sign = (1.0 - 2.0 * arrays.choice.astype(float))[order]
        self.loglogp = np.log(-np.log(arrays.p[order]))
        with np.errstate(divide="ignore"):
            # log 0 = -inf is never read: zero payoffs take the zero branch
            self.log_abs_risky = np.log(np.abs(arrays.risky[order]))
            self.log_abs_safe = np.log(np.abs(arrays.safe[order]))

    def _latent_parts(self, theta):
        """Per row: (-ln p)^gamma, w(p), v(R), v(S), d = w(p) v(R) - v(S), and
        the signed latent sign * eta * d, whose softplus is the row's term."""
        alpha, beta, lam, gamma, eta = theta
        q = np.exp(gamma * self.loglogp)
        w = np.exp(-q)
        v_risky = np.empty(self.n)
        v_safe = np.empty(self.n)
        for rows, rs, ss in self.blocks:
            _branch_value(rs, self.log_abs_risky[rows], alpha, beta, lam, v_risky[rows])
            _branch_value(ss, self.log_abs_safe[rows], alpha, beta, lam, v_safe[rows])
        diff = w * v_risky
        diff -= v_safe
        signed = diff * eta
        signed *= self.sign
        return q, w, v_risky, v_safe, diff, signed

    def neg_mean_ll(self, theta) -> float:
        """Negative per-observation log-likelihood; +inf when evaluation
        breaks down numerically (the minimizer then backs away)."""
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            total, _ = softplus_sum(self._latent_parts(theta)[-1])
        if not np.isfinite(total):
            return np.inf
        return total / self.n

    def value_and_grad(self, theta) -> tuple[float, np.ndarray]:
        """neg_mean_ll and its gradient in (alpha, beta, lambda, gamma, eta).

        Where the value is +inf the gradient is NaN. A component whose
        branch no row evaluates (beta and lambda on gain-only data) is
        exactly 0.0.
        """
        lam, eta = theta[2], theta[4]
        grad = np.zeros(5)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            q, w, v_risky, v_safe, diff, signed = self._latent_parts(theta)
            total, e = softplus_sum(signed)
            if not np.isfinite(total):
                return np.inf, np.full(5, np.nan)
            # derivative of each row's term with respect to eta * d:
            # sign * expit(signed), with expit formed from the same e
            dz = np.where(signed >= 0.0, 1.0, e)
            e += 1.0
            dz /= e
            dz *= self.sign
            # each value times the derivative of the row's term with respect
            # to that value
            dv_risky = dz * eta
            dv_risky *= w
            dv_risky *= v_risky
            dv_safe = dz * -eta
            dv_safe *= v_safe
            for rows, rs, ss in self.blocks:
                _add_branch_grad(grad, rs, dv_risky[rows], self.log_abs_risky[rows], lam)
                _add_branch_grad(grad, ss, dv_safe[rows], self.log_abs_safe[rows], lam)
            # dw/dgamma = -w q ln(-ln p)
            q *= dv_risky
            grad[3] = -_dot(q, self.loglogp)
            grad[4] = _dot(dz, diff)
        return total / self.n, grad / self.n


def _dot(a, b) -> float:
    # einsum's own loop, not BLAS ddot: waking a threaded BLAS for each
    # block's product costs more than the product at these sizes, and its
    # partial sums would depend on the BLAS thread count
    return float(np.einsum("i,i->", a, b))


def _branch_value(sign: int, log_abs, alpha, beta, lam, out) -> None:
    """Write v(x) for payoffs of one sign into out, given log|x|."""
    if sign > 0:
        np.exp(alpha * log_abs, out=out)
    elif sign < 0:
        np.exp(beta * log_abs, out=out)
        out *= -lam
    else:
        out[:] = 0.0


def _add_branch_grad(grad, sign: int, dv, log_abs, lam) -> None:
    """Add one block's payoffs to the gradient. dv holds each value v(x)
    times the derivative of the row's term with respect to v(x); then
    dv/d(exponent) = v log|x| and dv/dlambda = v / lambda on losses."""
    if sign > 0:
        grad[0] += _dot(dv, log_abs)
    elif sign < 0:
        grad[1] += _dot(dv, log_abs)
        grad[2] += dv.sum() / lam


def _upper_bounds(gamma_max: float) -> tuple[float | None, ...]:
    """The fit's box, one entry per coordinate in PARAM_NAMES order.

    A coordinate with an upper bound (alpha, beta, gamma) is bound * expit(t)
    of its unconstrained coordinate t; one without (None: lambda, eta) is
    exp(t).
    """
    return (1.0, 1.0, None, gamma_max, None)


def _to_unconstrained(theta, gamma_max: float) -> np.ndarray:
    bounds = _upper_bounds(gamma_max)
    return np.array([np.log(v) if hi is None else logit(v / hi) for v, hi in zip(theta, bounds)])


def _from_unconstrained(t, gamma_max: float) -> tuple[np.ndarray, np.ndarray]:
    """theta at unconstrained coordinates t, and the diagonal of its
    Jacobian d theta / d t."""
    theta = np.empty(len(t))
    jac = np.empty(len(t))
    for i, (ti, hi) in enumerate(zip(t, _upper_bounds(gamma_max))):
        if hi is None:
            theta[i] = jac[i] = np.exp(ti)
        else:
            theta[i] = hi * expit(ti)
            jac[i] = theta[i] * expit(-ti)
    return theta, jac


@dataclass(frozen=True)
class RestartRecord:
    """One L-BFGS-B restart: where it started and where it ended.

    ``n_evals`` counts evaluations of the likelihood value together with its
    gradient; ``converged`` is the optimizer's own success flag.
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


def _observed_information(prep: _Prepared, theta: np.ndarray) -> np.ndarray:
    """Negative Hessian of the total log-likelihood at theta: central
    differences of the analytic gradient in the original coordinates,
    symmetrised."""
    k = theta.shape[0]
    h = _FD_REL_STEP * np.maximum(np.abs(theta), 1.0)
    hess = np.empty((k, k))
    for j in range(k):
        e = np.zeros(k)
        e[j] = h[j]
        _, g_plus = prep.value_and_grad(theta + e)
        _, g_minus = prep.value_and_grad(theta - e)
        hess[:, j] = (g_plus - g_minus) / (2.0 * h[j])
    return prep.n * 0.5 * (hess + hess.T)


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


def fit_cpt(
    arrays: ScenarioArrays,
    n_restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_FIT_SEED,
    gamma_max: float = DEFAULT_GAMMA_MAX,
) -> CptFit:
    """Fit the choice model by maximum likelihood with random restarts.

    Each restart draws a start point uniformly over a box of canonical
    parameter values, maps it to unconstrained coordinates, and runs
    L-BFGS-B there on the analytic gradient. The fit's box is alpha, beta in
    (0, 1], gamma in (0, gamma_max] and lambda, eta > 0. The restart with the
    highest final log-likelihood wins, and exact ties go to the lowest
    restart index, so the result is a pure function of (data, n_restarts,
    seed, gamma_max). The winner's record supplies ``log_likelihood`` and
    ``converged``, and its end point ``unconstrained_optimum``.

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

    def objective(t):
        # a line-search trial step far out in t can overflow exp; the value
        # is then +inf and L-BFGS-B shortens the step
        with np.errstate(over="ignore", invalid="ignore"):
            theta, jac = _from_unconstrained(t, gamma_max)
            value, grad = prep.value_and_grad(theta)
            return value, grad * jac

    restart_seeds = np.random.SeedSequence(seed).generate_state(n_restarts)
    gamma_hi = min(2.0, gamma_max)
    gamma_lo = min(0.2, gamma_hi / 2.0)
    start_lo = (0.2, 0.2, 0.5, gamma_lo, 0.01)
    start_hi = (1.0, 1.0, 3.0, gamma_hi, 1.0)

    records: list[RestartRecord] = []
    optima: list[np.ndarray] = []  # end points in unconstrained coordinates
    for idx, restart_seed in enumerate(restart_seeds.tolist()):
        start = np.random.Generator(np.random.PCG64(restart_seed)).uniform(start_lo, start_hi)
        t0 = _to_unconstrained(start, gamma_max)
        res = minimize(objective, t0, method="L-BFGS-B", jac=True, options=_LBFGS_OPTIONS)
        records.append(
            RestartRecord(
                index=idx,
                seed=restart_seed,
                start=tuple(start.tolist()),
                log_likelihood=float(-res.fun * prep.n),
                converged=bool(res.success),
                n_evals=int(res.nfev),
            )
        )
        optima.append(np.asarray(res.x, dtype=float))

    if not any(r.converged for r in records):
        raise EstimationError(
            f"none of the {n_restarts} restarts converged", restart_log=records
        )

    # max keeps the first of equal keys, so an exact tie goes to the lowest index
    best = max(records, key=lambda r: r.log_likelihood)
    optimum = optima[best.index]

    with np.errstate(over="ignore"):
        theta, _ = _from_unconstrained(optimum, gamma_max)
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

    info = _observed_information(prep, np.asarray(params.as_tuple()))
    std_errors, singular = _standard_errors(info)

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
