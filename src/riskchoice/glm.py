"""Maximum-likelihood logistic regression, written from scratch.

Fitting is Newton/IRLS with a step-halving line search on the penalized
log-likelihood. It stops on half the Newton decrement, as the CPT fit does
(Boyd & Vandenberghe, Convex Optimization, 9.5.1): that test does not depend
on the columns' scales, and its rounding floor stays far below the tolerance
at any n. The optional L2 penalty never touches the intercept, which by
convention is column 0 of the design matrix. The covariance of the estimates
is the inverse of the negative penalized Hessian at the optimum; a fit that
separates the classes has no optimum and reports none.

One kernel, ``_pass``, computes the log-likelihood, gradient and Hessian
together in a single pass over the rows, ``_BLOCK_ROWS`` at a time. It reads
the design as its row-major k x n transpose, which a fit makes once and
which is a view of the column-major designs of ``features.design_matrix``:
each block is then a view of k row segments, and no block is copied. A pass
holds only one block's temporaries (a k x ``_BLOCK_ROWS`` buffer for the
weighted block, reused, and a few block-length vectors), never an n x k or
full-length one. A fit reads its design only through that transpose: the
passes and the separation check.

Outside the fit, rows are scored by ``linear_predictor``, whose bits are
those of a row-major product: the generator's latent,
``FittedLogistic.predict`` and ``pipeline.model_probs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100

# Rows per block of a likelihood pass. A block's k x 8192 weighted copy and
# its block-length vectors stay in cache. On a 2-core machine with BLAS on
# one thread, one pass over an 800k x 5 column-major design took 18 ms at
# 8192 rows, 19-20 ms at 4096 and 16384, 24 ms at 2048 and 37 ms at 131072.
# The block partial sums add in row order, so the size also fixes the
# rounding of every figure a pass returns.
_BLOCK_ROWS = 1 << 13


def sigmoid(z):
    """The logistic link 1 / (1 + exp(-z)) of every model family, elementwise.

    The same formula as scipy's ``expit``, in numpy alone. exp(-z) overflows
    to inf for z below about -709.78, which gives 0.0, and results below
    about 2.2e-308 are subnormal; neither warns. +inf gives 1.0, -inf gives
    0.0 and NaN gives NaN. Returns a float for scalar input.
    """
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def softplus_sum(s, e=None, work=None) -> tuple[float, np.ndarray]:
    """Sum of log(1 + exp(s)) over the signed latents s, which is the negative
    Bernoulli-logit log-likelihood when s is (1 - 2y) times the latent score;
    also returns e = exp(-|s|) for reuse. Evaluated in the overflow-free form
    max(s, 0) + log1p(exp(-|s|)). When given, ``e`` and ``work`` are arrays
    shaped like s that receive e and intermediate values, so the call
    allocates no array of that size.
    """
    e = np.abs(s, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    work = np.maximum(s, 0.0, out=work)
    # add.reduce is np.sum's own kernel, without its Python dispatch
    total = np.add.reduce(work)
    return float(total + np.add.reduce(np.log1p(e, out=work))), e


def _check_inputs(X, y, l2_strength=0.0, coeffs=None):
    """Check X (2-d), y (0/1, one per row), l2_strength (finite, >= 0) and,
    when given, coeffs (one per column); return them as float arrays."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise InputError("X must be a 2-d design matrix")
    if coeffs is not None:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (X.shape[1],):
            raise InputError(
                f"coefficient length {coeffs.shape} does not match {X.shape[1]} columns"
            )
    if y.shape != (X.shape[0],):
        raise InputError("y length does not match the number of rows of X")
    if not np.all((y == 0) | (y == 1)):
        raise InputError("y must contain only 0 and 1")
    if not 0.0 <= l2_strength < np.inf:
        raise InputError(f"l2_strength must be finite and nonnegative, got {l2_strength!r}")
    return X, y, coeffs


def log_likelihood(coeffs, X, y) -> float:
    """Bernoulli log-likelihood of y under the logistic model.

    Evaluated as -softplus_sum((1-2y) z), which is exact in the well-scaled
    region and never returns -inf for finite inputs.
    """
    X, y, coeffs = _check_inputs(X, y, coeffs=coeffs)
    return _pass(coeffs, _transposed(X), y, 0.0, _penalty_mask(X.shape[1]))[0]


def _penalty_mask(k: int) -> np.ndarray:
    # column 0 is the intercept: never penalized (a design with no columns
    # has none)
    mask = np.ones(k)
    mask[:1] = 0.0
    return mask


def gradient_and_hessian(coeffs, X, y, l2_strength: float = 0.0):
    """Analytic gradient and Hessian of the penalized log-likelihood.

    Gradient: X^T (y - sigma(X b)) - l2 * b~ ; Hessian: -X^T W X - l2 * I~,
    where b~ and I~ zero out the intercept entry.
    """
    X, y, coeffs = _check_inputs(X, y, l2_strength, coeffs)
    return _pass(coeffs, _transposed(X), y, l2_strength, _penalty_mask(X.shape[1]))[1:]


def _transposed(X) -> np.ndarray:
    """The k x n row-major transpose of the n x k design X that ``_pass``
    reads: a view when X is column-major, else a copy."""
    return np.ascontiguousarray(X.T)


def _pass(coeffs, XT, y, l2_strength, mask):
    """Log-likelihood, gradient and Hessian at ``coeffs`` in one pass over the
    rows of the design, ``_BLOCK_ROWS`` at a time; ``XT`` is the design's
    row-major k x n transpose (see _transposed).

    Per row, z = x'b, mu = sigma(z) and w = mu (1 - mu); the log-likelihood
    is -softplus_sum((1 - 2y) z) and is unpenalized, while the gradient and
    Hessian are those of the penalized objective (see gradient_and_hessian).
    Block partial sums are added in row order. Entries that overflow to inf
    or NaN are returned without a numpy warning; the fit reports them.
    """
    k, n = XT.shape
    nll = 0.0
    score = np.zeros(k)
    info = np.zeros((k, k))
    # the weighted block; a fresh k x _BLOCK_ROWS array per block costs more
    # than the product that fills it
    weighted = np.empty((k, min(n, _BLOCK_ROWS)))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            xt, yb = XT[:, block], y[block]
            z = coeffs @ xt
            nll += softplus_sum((1.0 - 2.0 * yb) * z)[0]
            mu = sigmoid(z)
            score += xt @ (yb - mu)
            xw = np.multiply(xt, mu * (1.0 - mu), out=weighted[:, : yb.shape[0]])
            info += xw @ xt.T
        grad = score - l2_strength * mask * coeffs
        hess = -info - l2_strength * np.diag(mask)
    return -nll, grad, hess


def _penalized(ll, coeffs, l2_strength, mask) -> float:
    """The fitted objective: log-likelihood ``ll`` less the L2 penalty."""
    return ll - 0.5 * l2_strength * float(np.sum(mask * coeffs**2))


@dataclass
class FittedLogistic:
    """A fitted logistic regression model.

    ``log_likelihood`` is the unpenalized value at the estimates.
    ``covariance``, and with it ``std_errors``, is None when the fit
    separates the classes, since the estimates then sit at no maximum, or
    when the information matrix could not be inverted; ``diagnostics`` then
    says which.
    """

    feature_names: tuple[str, ...]
    coeffs: np.ndarray
    covariance: np.ndarray | None
    log_likelihood: float
    converged: bool
    iterations: int
    l2_strength: float
    diagnostics: list[str] = field(default_factory=list)

    @property
    def std_errors(self) -> np.ndarray | None:
        if self.covariance is None:
            return None
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.coeffs.shape[0]:
            raise InputError("design matrix does not match the fitted coefficients")
        return sigmoid(linear_predictor(X, self.coeffs))

    def to_json_dict(self) -> dict:
        se = self.std_errors
        return {
            "features": list(self.feature_names),
            "coeffs": [float(c) for c in self.coeffs],
            "std_errors": None if se is None else [float(s) for s in se],
            "covariance": None
            if self.covariance is None
            else [[float(v) for v in row] for row in self.covariance],
            "log_likelihood": float(self.log_likelihood),
            "converged": self.converged,
            "iterations": self.iterations,
            "l2": float(self.l2_strength),
        }


def linear_predictor(X, coeffs) -> np.ndarray:
    """X @ coeffs for an n x k design X, one latent score per row, rounded
    as over a row-major X whatever X's memory layout.

    BLAS sums a row's k products in one order for a row-major matrix and in
    another for a column-major one, so X is first copied into row order: a
    design's scores, and the choices, probabilities and files made from
    them, do not depend on how the design is stored. It scores the
    generator's latent, ``FittedLogistic.predict`` and
    ``pipeline.model_probs``; ``fit_logistic`` never calls it.
    """
    return np.ascontiguousarray(X) @ coeffs


def _separates(XT, y, beta) -> bool:
    """True when every row's margin (2y - 1) x'beta is strictly positive;
    ``XT`` is the design's row-major k x n transpose (see _transposed)."""
    return bool(np.all((2.0 * y - 1.0) * (beta @ XT) > 0))


def fit_logistic(
    X,
    y,
    l2_strength: float = 0.0,
    *,
    feature_names=None,
    tol: float = DEFAULT_TOL,
) -> FittedLogistic:
    """Fit a logistic regression by Newton/IRLS.

    Maximizes the log-likelihood minus (l2_strength/2) times the squared
    norm of the non-intercept coefficients. Each Newton step is
    halved until the penalized objective does not decrease; a step that no
    halving makes non-decreasing ends the fit. The fit has converged once
    half the Newton decrement of the summed objective, g'(-H)^-1 g / 2, is
    at most ``tol``; one last full step is then kept if it does not lower
    the objective. Every step counts, the last included, up to the cap of
    100 (``DEFAULT_MAX_ITER``).

    Each line-search candidate costs one blocked pass over the rows that
    gives its log-likelihood, gradient and Hessian together, and a pass
    holds only one block's temporaries.

    Raises
    ------
    NumericalError
        If the normal equations are singular (collinear design). Perfect
        separation is not an error: it returns a non-converged fit with a
        "possible separation" diagnostic and no covariance.
    """
    X, y, _ = _check_inputs(X, y, l2_strength)
    if not 0.0 <= tol < np.inf:
        raise InputError(f"tol must be finite and nonnegative, got {tol!r}")
    n, k = X.shape
    if not np.all(np.isfinite(X)):
        raise InputError("X must be finite")
    if n < k:
        raise InputError(f"need at least {k} rows to fit {k} coefficients, got {n}")
    if feature_names is not None:
        feature_names = tuple(feature_names)
        if len(feature_names) != k:
            raise InputError("feature_names length does not match X columns")
    else:
        feature_names = tuple(f"x{j}" for j in range(k))

    XT = _transposed(X)
    mask = _penalty_mask(k)
    beta = np.zeros(k)
    # every exit leaves ll, grad and hess evaluated at the final beta
    ll, grad, hess = _pass(beta, XT, y, l2_strength, mask)
    obj = _penalized(ll, beta, l2_strength, mask)
    iterations = 0
    converged = False
    diagnostics: list[str] = []

    while True:
        info = -hess
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.all(np.isfinite(step)):
            # unpenalized separation can round every weight mu(1 - mu) to 0;
            # the separation check after the loop reports it
            if l2_strength == 0.0 and _separates(XT, y, beta):
                break
            cond = np.linalg.cond(info)
            if step is None:
                raise NumericalError(
                    f"singular normal equations (condition number {cond:.3g}); "
                    "check for collinear features"
                )
            raise NumericalError(
                f"non-finite Newton step (condition number {cond:.3g})"
            )
        converged = bool(0.5 * (grad @ step) <= tol)
        if iterations == DEFAULT_MAX_ITER:
            break

        # halve the step until the penalized objective stops decreasing; a
        # step that no halving improves still counts, and ends the fit. Once
        # converged, one last full step, which near the optimum squares the
        # remaining error, is kept if it does not lower the objective
        iterations += 1
        t = 1.0
        for _ in range(1 if converged else 40):
            candidate = beta + t * step
            at_candidate = _pass(candidate, XT, y, l2_strength, mask)
            new_obj = _penalized(at_candidate[0], candidate, l2_strength, mask)
            if new_obj >= obj:
                break
            t *= 0.5
        else:
            break
        beta, obj = candidate, new_obj
        ll, grad, hess = at_candidate
        if converged:
            break

    # all margins strictly positive with no penalty means every observation
    # sits on the correct side: the likelihood improves without bound along
    # the separating direction, so a small gradient there is saturation, not
    # a maximum, and the inverse information there is no Wald covariance
    cov = None
    if l2_strength == 0.0 and _separates(XT, y, beta):
        converged = False
        diagnostics.append(
            "possible separation: all observations classified perfectly, "
            "coefficients diverge without regularization"
        )
    else:
        if not converged and np.max(np.abs(beta)) > 1e3:
            diagnostics.append("coefficients diverging; model may be ill-posed")
        try:
            cov = np.linalg.inv(-hess)
            cov = (cov + cov.T) / 2.0
        except np.linalg.LinAlgError:
            diagnostics.append("covariance unavailable: singular information matrix")

    return FittedLogistic(
        feature_names=feature_names,
        coeffs=beta,
        covariance=cov,
        log_likelihood=ll,
        converged=converged,
        iterations=iterations,
        l2_strength=float(l2_strength),
        diagnostics=diagnostics,
    )

