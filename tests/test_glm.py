import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from riskchoice import (
    GeneratorConfig,
    InputError,
    NumericalError,
    design_matrix,
    fit_logistic,
    generate_dataset,
    glm,
    log_likelihood,
    sigmoid,
)
from riskchoice.features import RAW_NAMES
from riskchoice.glm import DEFAULT_MAX_ITER, DEFAULT_TOL, gradient_and_hessian, softplus_sum


def _random_instance(rng, n=20, k=4):
    X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    beta = rng.normal(size=k)
    y = (rng.random(n) < sigmoid(X @ beta)).astype(float)
    return X, y


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_complement(self):
        for z in (-3.7, -0.5, 0.1, 2.0, 40.0):
            assert sigmoid(z) + sigmoid(-z) == pytest.approx(1.0, abs=1e-15)

    def test_saturation_without_overflow(self):
        with np.errstate(over="raise"):
            assert sigmoid(500.0) == 1.0
            assert sigmoid(-500.0) == pytest.approx(0.0, abs=1e-200)
            assert sigmoid(700.0) == 1.0

    # 4 ULP, not 2: np.exp and scipy's exp differ by 1 ULP on about 2% of
    # inputs, and for z in about (-37.43, -36.74), where exp(-z) lies in
    # [2**53, 2**54), 1 + exp(-z) rounds half to even and can double that
    # difference; -36.77765564945744 is one such input
    @settings(max_examples=500)
    @given(z=st.floats(allow_nan=True, allow_infinity=True))
    @example(z=0.0)
    @example(z=-36.77765564945744)
    @example(z=709.78)
    @example(z=-709.78)
    @example(z=745.0)
    @example(z=-745.0)
    @example(z=1e308)
    @example(z=-1e308)
    @example(z=math.inf)
    @example(z=-math.inf)
    @example(z=math.nan)
    def test_matches_expit_within_4_ulp_without_warning(self, z):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            p = sigmoid(z)
        assert isinstance(p, float)
        reference = float(expit(z))
        if math.isnan(z):
            assert math.isnan(p)
        else:
            assert abs(p - reference) <= 4 * np.spacing(reference)
        if z == 0.0:
            assert p == 0.5
        if math.isinf(z):
            assert p == (1.0 if z > 0 else 0.0)

    @settings(max_examples=300)
    @given(a=st.floats(allow_nan=False), b=st.floats(allow_nan=False))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert sigmoid(lo) <= sigmoid(hi)

    def test_array_input(self):
        z = np.array([-1.0, 0.0, 1.0])
        out = sigmoid(z)
        assert out.shape == (3,)
        assert out[1] == 0.5
        assert isinstance(sigmoid(1.5), float)
        assert isinstance(sigmoid(2), float)
        assert isinstance(sigmoid(np.float64(-3.0)), float)


latents = st.lists(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False), min_size=1, max_size=40
)


class TestSharedKernel:
    @settings(max_examples=300)
    @given(zs=latents)
    def test_sigmoid_range_monotonicity_and_symmetry(self, zs):
        z = np.sort(np.array(zs))
        p = sigmoid(z)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.all(np.diff(p) >= 0.0)
        np.testing.assert_allclose(p + sigmoid(-z), 1.0, rtol=0.0, atol=1e-15)

    @settings(max_examples=300)
    @given(zs=latents)
    def test_softplus_sum_matches_logaddexp(self, zs):
        s = np.array(zs)
        total, e = softplus_sum(s)
        reference = float(np.sum(np.logaddexp(0.0, s)))
        assert total == reference or total == pytest.approx(reference, rel=1e-12)
        np.testing.assert_array_equal(e, np.exp(-np.abs(s)))


class TestLogLikelihood:
    def test_zero_coeffs(self):
        rng = np.random.Generator(np.random.PCG64(1))
        X, y = _random_instance(rng, n=37)
        assert log_likelihood(np.zeros(4), X, y) == pytest.approx(37 * math.log(0.5))

    def test_intercept_only_pinned(self):
        # sigmoid(ln 3) = 0.75, so the single-row likelihood is ln 0.75
        X = np.array([[1.0]])
        y = np.array([1.0])
        assert log_likelihood(np.array([math.log(3.0)]), X, y) == pytest.approx(
            -0.2876820724517809, abs=1e-15
        )

    def test_matches_direct_formula(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(50):
            X, y = _random_instance(rng)
            beta = rng.normal(scale=0.8, size=4)
            mu = sigmoid(X @ beta)
            direct = float(np.sum(y * np.log(mu) + (1 - y) * np.log(1 - mu)))
            assert log_likelihood(beta, X, y) == pytest.approx(direct, rel=1e-12)

    def test_never_minus_inf(self):
        X = np.array([[1.0, 600.0], [1.0, -600.0]])
        y = np.array([0.0, 1.0])
        ll = log_likelihood(np.array([0.0, 1.0]), X, y)
        assert np.isfinite(ll)

    def test_shape_errors(self):
        with pytest.raises(InputError):
            log_likelihood(np.zeros(3), np.ones((5, 2)), np.zeros(5))
        with pytest.raises(InputError):
            log_likelihood(np.zeros(2), np.ones((5, 2)), np.zeros(4))
        with pytest.raises(InputError):
            log_likelihood(np.zeros(2), np.ones((5, 2)), np.full(5, 2.0))


class TestGradientAndHessian:
    def test_finite_difference_agreement(self):
        rng = np.random.Generator(np.random.PCG64(3))
        h = 1e-5
        for _ in range(30):
            X, y = _random_instance(rng)
            beta = rng.normal(scale=0.5, size=4)
            l2 = float(rng.choice([0.0, 0.3]))
            grad, _ = gradient_and_hessian(beta, X, y, l2)
            fd = np.zeros(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                mask = np.ones(4)
                mask[0] = 0.0

                def pll(b):
                    return log_likelihood(b, X, y) - 0.5 * l2 * np.sum(mask * b**2)

                fd[j] = (pll(beta + e) - pll(beta - e)) / (2 * h)
            assert np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad)) < 1e-6

    def test_hessian_symmetric_negative_semidefinite(self):
        rng = np.random.Generator(np.random.PCG64(4))
        X, y = _random_instance(rng, n=40)
        for l2 in (0.0, 1.0):
            _, hess = gradient_and_hessian(rng.normal(size=4), X, y, l2)
            np.testing.assert_allclose(hess, hess.T, atol=1e-12)
            assert np.max(np.linalg.eigvalsh(hess)) <= 1e-10

    @pytest.mark.parametrize("l2", [float("nan"), float("inf"), -1.0])
    def test_bad_l2_rejected(self, l2):
        X, y = _random_instance(np.random.Generator(np.random.PCG64(18)))
        with pytest.raises(InputError, match="l2_strength must be finite and nonnegative"):
            gradient_and_hessian(np.zeros(4), X, y, l2)

    def test_gradient_vanishes_at_optimum(self):
        rng = np.random.Generator(np.random.PCG64(5))
        X, y = _random_instance(rng, n=200)
        fit = fit_logistic(X, y)
        grad, _ = gradient_and_hessian(fit.coeffs, X, y, 0.0)
        assert np.max(np.abs(grad)) < 1e-8


class TestFitLogistic:
    def test_parameter_recovery(self):
        rng = np.random.Generator(np.random.PCG64(6))
        n = 50_000
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2)), rng.integers(0, 2, n)])
        beta = np.array([-0.4, 0.7, -1.1, 0.5])
        y = (rng.random(n) < sigmoid(X @ beta)).astype(float)
        fit = fit_logistic(X, y)
        assert fit.converged
        se = fit.std_errors
        assert np.all(np.abs(fit.coeffs - beta) < 3 * se)

    def test_balanced_intercept_only(self):
        X = np.ones((10, 1))
        y = np.array([0, 1] * 5, dtype=float)
        fit = fit_logistic(X, y)
        assert fit.coeffs[0] == pytest.approx(0.0, abs=1e-10)
        assert fit.log_likelihood == pytest.approx(10 * math.log(0.5))

    def test_no_signal_with_ridge(self):
        rng = np.random.Generator(np.random.PCG64(7))
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
        y = np.ones(60)
        fit = fit_logistic(X, y, l2_strength=1.0)
        assert np.isfinite(fit.coeffs[0])
        assert np.all(np.abs(fit.coeffs[1:]) < 0.5)
        assert fit.converged

    def test_separation_reported_not_raised(self):
        x = np.linspace(-2, 2, 30)
        X = np.column_stack([np.ones(30), x])
        y = (x > 0).astype(float)
        fit = fit_logistic(X, y)
        assert not fit.converged
        assert any("separation" in d for d in fit.diagnostics)

    def test_singular_design_raises(self):
        rng = np.random.Generator(np.random.PCG64(8))
        col = rng.normal(size=50)
        X = np.column_stack([np.ones(50), col, col])
        y = (rng.random(50) < 0.5).astype(float)
        with pytest.raises(NumericalError, match="condition number"):
            fit_logistic(X, y)

    def test_saturated_separation_is_reported_not_raised(self):
        # with no tolerance the fit drives every weight mu(1 - mu) to 0 and
        # the normal equations become singular before the loop ends
        fit = fit_logistic(*SATURATING, tol=0.0)
        assert not fit.converged
        assert any("possible separation" in d for d in fit.diagnostics)

    def test_saturated_fit_without_covariance_reports_no_standard_errors(self):
        fit = fit_logistic(*SATURATING, tol=0.0)
        assert fit.covariance is None and fit.std_errors is None
        doc = fit.to_json_dict()
        assert doc["std_errors"] is None and doc["covariance"] is None
        # separation is the reason: no inversion is tried
        assert [d.split(":")[0] for d in fit.diagnostics] == ["possible separation"]

    def test_uninvertible_information_reports_no_standard_errors(self):
        # an unseparated fit whose final information matrix is exactly
        # singular is not known to occur, so the inversion is made to fail
        X, y = WELL_POSED
        with mock.patch.object(np.linalg, "inv", side_effect=np.linalg.LinAlgError):
            fit = fit_logistic(X, y)
        assert fit.converged
        assert fit.covariance is None and fit.std_errors is None
        assert fit.diagnostics == ["covariance unavailable: singular information matrix"]

    def test_separated_fit_reports_no_standard_errors(self):
        # the information matrix at the separated estimates still inverts,
        # but its inverse is no Wald covariance: the estimates sit at no
        # maximum
        fit = fit_logistic(SEPARABLE_X, SEPARABLE_Y)
        _, hess = gradient_and_hessian(fit.coeffs, SEPARABLE_X, SEPARABLE_Y)
        assert np.all(np.isfinite(np.linalg.inv(-hess)))
        assert not fit.converged
        assert [d.split(":")[0] for d in fit.diagnostics] == ["possible separation"]
        assert fit.covariance is None and fit.std_errors is None
        doc = fit.to_json_dict()
        assert doc["std_errors"] is None and doc["covariance"] is None

    def test_tiny_column_reports_diverging_coefficients(self):
        # no tolerance: the fit runs to the step cap, and the slope of a
        # column scaled by 1e-5 grows past 1e3
        X, y = WELL_POSED
        X = X.copy()
        X[:, 1] *= 1e-5
        fit = fit_logistic(X, y, tol=0.0)
        assert not fit.converged and fit.iterations == DEFAULT_MAX_ITER
        assert fit.diagnostics == ["coefficients diverging; model may be ill-posed"]

    def test_huge_column_gives_a_non_finite_newton_step(self):
        X, y = WELL_POSED
        X = X.copy()
        X[:, 1] *= 1e200
        # the information matrix overflows; the pass keeps numpy from
        # warning of it, and the fit reports it as an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^non-finite Newton step"):
                fit_logistic(X, y)

    def test_design_must_be_a_finite_matrix(self):
        X, y = WELL_POSED
        with pytest.raises(InputError, match="^X must be a 2-d design matrix$"):
            fit_logistic(X[:, 1], y)
        X = X.copy()
        X[3, 2] = np.nan
        with pytest.raises(InputError, match="^X must be finite$"):
            fit_logistic(X, y)

    def test_rescaling_invariance(self):
        rng = np.random.Generator(np.random.PCG64(9))
        X, y = _random_instance(rng, n=400)
        base = fit_logistic(X, y)
        scaled = X.copy()
        scaled[:, 2] *= 10.0
        other = fit_logistic(scaled, y)
        assert other.coeffs[2] == pytest.approx(base.coeffs[2] / 10.0, rel=1e-6)
        np.testing.assert_allclose(other.predict(scaled), base.predict(X), atol=1e-8)

    def test_covariance_is_inverse_information(self):
        rng = np.random.Generator(np.random.PCG64(10))
        X, y = _random_instance(rng, n=300)
        fit = fit_logistic(X, y)
        _, hess = gradient_and_hessian(fit.coeffs, X, y, 0.0)
        np.testing.assert_allclose(fit.covariance, np.linalg.inv(-hess), rtol=1e-8)
        np.testing.assert_allclose(fit.covariance, fit.covariance.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(fit.covariance)) > 0

    def test_log_likelihood_nonpositive_and_preconditions(self):
        rng = np.random.Generator(np.random.PCG64(12))
        X, y = _random_instance(rng)
        assert fit_logistic(X, y).log_likelihood <= 0.0
        with pytest.raises(InputError):
            fit_logistic(X[:3], y[:3])
        for l2 in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InputError, match="l2_strength must be finite and nonnegative"):
                fit_logistic(X, y, l2_strength=l2)
        with pytest.raises(InputError):
            fit_logistic(X, y, feature_names=("a", "b"))
        for tol in (-1e-8, float("nan"), float("inf")):
            with pytest.raises(InputError, match="tol must be finite and nonnegative"):
                fit_logistic(X, y, tol=tol)

    def test_stalled_intercept_only_fit_converges(self):
        # the full step from -0.18232154 lands on log(10/12) but scores 4e-15
        # below the current point, so the line search rejects it and every
        # halving after it; a gradient stop test then ran all 100 steps
        y = np.concatenate([np.ones(10), np.zeros(12)])
        fit = fit_logistic(np.ones((22, 1)), y)
        assert fit.converged and fit.iterations <= 10
        assert fit.coeffs[0] == pytest.approx(math.log(10 / 12), abs=1e-7)

    def test_raw_design_converges_at_200k_rows(self):
        # the summed gradient's rounding noise kept a gradient stop test
        # from ever being met on this design
        data = generate_dataset(GeneratorConfig(n=200_000, seed=1))
        fit = fit_logistic(design_matrix(data, RAW_NAMES), data.choice)
        assert fit.converged and fit.iterations <= 15

    def test_deterministic(self):
        rng = np.random.Generator(np.random.PCG64(13))
        X, y = _random_instance(rng, n=150)
        a = fit_logistic(X, y)
        b = fit_logistic(X, y)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        assert a.iterations == b.iterations

    def test_json_round_trip_fields(self):
        rng = np.random.Generator(np.random.PCG64(14))
        X, y = _random_instance(rng, n=80)
        fit = fit_logistic(X, y, 0.25, feature_names=("intercept", "a", "b", "c"))
        doc = fit.to_json_dict()
        assert set(doc) == {
            "features",
            "coeffs",
            "std_errors",
            "covariance",
            "log_likelihood",
            "converged",
            "iterations",
            "l2",
        }
        assert doc["features"] == ["intercept", "a", "b", "c"]
        assert doc["l2"] == 0.25
        assert len(doc["covariance"]) == 4


# x = (-3, -2, -1, 1, 2, 3) with y = x > 0 is perfectly separated: the
# gradient saturates towards 0 while the slope grows without bound
SEPARABLE_X = np.column_stack([np.ones(6), [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]])
SEPARABLE_Y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
WELL_POSED = _random_instance(np.random.Generator(np.random.PCG64(21)), n=30)
# separated; without a tolerance its normal equations turn singular
SATURATING = (
    np.column_stack([np.ones(4), [0.189, -0.523, -0.413, -2.441]]),
    np.array([0.0, 1.0, 1.0, 1.0]),
)


# rows per block while testing the blocked pass, so designs of up to 60 rows
# span one to nine blocks, the last one partial
SMALL_BLOCK = 7


@st.composite
def small_fits(draw):
    """A random design of up to 60 rows with an intercept column, 0/1
    responses holding both classes, an L2 strength (0 or positive) and a stop
    tolerance (the default, or 0.0, which only an exactly zero gradient
    meets)."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 2, 60))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    y = rng.integers(0, 2, n).astype(float)
    y[:2] = (0.0, 1.0)
    l2 = draw(st.just(0.0) | st.floats(0.01, 10.0))
    tol = draw(st.sampled_from([DEFAULT_TOL, 0.0]))
    return X, y, l2, tol


class TestExitPaths:
    """Every exit of the Newton loop (stop test met, the step cap, a line
    search that cannot improve, or a singular step on a separated design)
    returns a fit whose reported figures are those of its final
    coefficients, whether the rows fit in one likelihood block or span
    several."""

    @settings(max_examples=200)
    @given(case=small_fits())
    # the stop test met; the cap, with an unreachable tolerance, with and
    # without a penalty; a failed line search; a separated design of 30 rows
    # with no tolerance
    @example(case=(*WELL_POSED, 0.0, DEFAULT_TOL))
    @example(case=(*WELL_POSED, 0.0, 0.0))
    @example(case=(*WELL_POSED, 0.5, 0.0))
    @example(case=(SEPARABLE_X, SEPARABLE_Y, 0.0, 0.0))
    @example(case=(*SATURATING, 0.0, 0.0))
    @example(
        case=(
            np.column_stack([np.ones(30), np.linspace(-2.0, 2.0, 30)]),
            (np.linspace(-2.0, 2.0, 30) > 0).astype(float),
            0.0,
            0.0,
        )
    )
    def test_reported_figures_hold_at_the_coefficients(self, case):
        X, y, l2, tol = case
        for block_rows in (glm._BLOCK_ROWS, SMALL_BLOCK):
            with mock.patch.object(glm, "_BLOCK_ROWS", block_rows):
                fit = fit_logistic(X, y, l2, tol=tol)
                grad, hess = gradient_and_hessian(fit.coeffs, X, y, l2)
                ll = log_likelihood(fit.coeffs, X, y)
            if fit.covariance is not None:
                inv = np.linalg.inv(-hess)
                np.testing.assert_array_equal(fit.covariance, (inv + inv.T) / 2.0)
            assert fit.log_likelihood == ll
            assert fit.iterations <= DEFAULT_MAX_ITER
            if not any("separation" in d for d in fit.diagnostics):
                # half the Newton decrement of the penalized objective
                decrement = 0.5 * (grad @ np.linalg.solve(-hess, grad))
                assert fit.converged == (decrement <= tol)

    def test_each_exit_is_reached(self):
        X, y = WELL_POSED
        assert fit_logistic(X, y).converged
        capped = fit_logistic(X, y, tol=0.0)
        assert capped.iterations == DEFAULT_MAX_ITER and not capped.converged
        # default tolerance: the saturated fit meets the stop test after 21
        # steps, its gradient below the tolerance too, and separation
        # overrides the verdict
        separated = fit_logistic(SEPARABLE_X, SEPARABLE_Y)
        grad, _ = gradient_and_hessian(separated.coeffs, SEPARABLE_X, SEPARABLE_Y)
        assert separated.iterations == 21 and np.max(np.abs(grad)) < DEFAULT_TOL
        assert not separated.converged
        # no tolerance: the gradient never reaches 0, the cap is not hit, so
        # the line search failed; that 48th step still counts
        stalled = fit_logistic(SEPARABLE_X, SEPARABLE_Y, tol=0.0)
        grad, _ = gradient_and_hessian(stalled.coeffs, SEPARABLE_X, SEPARABLE_Y)
        assert np.max(np.abs(grad)) > 0.0
        assert stalled.iterations == 48 and not stalled.converged


@st.composite
def pass_points(draw):
    """A design of 1-60 rows with an intercept column, 0/1 responses,
    coefficients from near zero to saturating, and an L2 strength."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 60))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    y = rng.integers(0, 2, n).astype(float)
    coeffs = rng.normal(size=k) * draw(st.sampled_from([0.0, 0.1, 1.0, 30.0]))
    l2 = draw(st.just(0.0) | st.floats(0.01, 10.0))
    return X, y, coeffs, l2


class TestLayout:
    """A fit reads its design through a transpose made once, and scores rows
    through linear_predictor; whether the design is stored row-major or
    column-major changes no bit of either."""

    @settings(max_examples=150)
    @given(case=small_fits())
    def test_fit_is_bitwise_the_same_on_either_layout(self, case):
        X, y, l2, tol = case
        with mock.patch.object(glm, "_BLOCK_ROWS", SMALL_BLOCK):
            c_fit, f_fit = (
                fit_logistic(order(X), y, l2, tol=tol)
                for order in (np.ascontiguousarray, np.asfortranarray)
            )
        assert c_fit.coeffs.tobytes() == f_fit.coeffs.tobytes()
        assert (c_fit.covariance is None) == (f_fit.covariance is None)
        if c_fit.covariance is not None:
            assert c_fit.covariance.tobytes() == f_fit.covariance.tobytes()
        assert c_fit.log_likelihood.hex() == f_fit.log_likelihood.hex()
        assert (c_fit.iterations, c_fit.converged) == (f_fit.iterations, f_fit.converged)
        assert c_fit.diagnostics == f_fit.diagnostics

    @settings(max_examples=150)
    @given(point=pass_points())
    def test_linear_predictor_keeps_the_row_major_bits(self, point):
        X, _, coeffs, _ = point
        row_major = np.ascontiguousarray(X) @ coeffs
        for order in (np.ascontiguousarray, np.asfortranarray):
            assert glm.linear_predictor(order(X), coeffs).tobytes() == row_major.tobytes()


class TestSeparationCheck:
    """The separation check reads the fit's k x n transpose of the design."""

    @settings(max_examples=300)
    @given(
        point=pass_points(),
        separable=st.booleans(),
        order=st.sampled_from([np.ascontiguousarray, np.asfortranarray]),
    )
    def test_verdict_is_the_sign_test_of_the_row_major_margins(self, point, separable, order):
        X, y, coeffs, _ = point
        if separable:
            y = (X @ coeffs > 0).astype(float)
        margins = (2.0 * y - 1.0) * (np.ascontiguousarray(X) @ coeffs)
        # the two products may round a margin near 0 to opposite signs
        assume(np.all(np.abs(margins) > 1e-9))
        verdict = glm._separates(glm._transposed(order(X)), y, coeffs)
        assert verdict == bool(np.all(margins > 0))

    def test_allocates_less_than_a_copy_of_the_design(self):
        rng = np.random.Generator(np.random.PCG64(17))
        n, k = 50_000, 5
        X = np.asfortranarray(np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))]))
        beta = rng.normal(size=k)
        y = (X @ beta > 0).astype(float)
        XT = glm._transposed(X)
        tracemalloc.start()
        try:
            verdict = glm._separates(XT, y, beta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict
        assert peak < X.nbytes


class TestBlockedPass:
    """The likelihood pass reads the rows in blocks; with a small block size
    every figure it reports matches the one-shot formulas."""

    @settings(max_examples=300)
    @given(point=pass_points())
    def test_matches_unblocked_reference(self, point):
        X, y, coeffs, l2 = point
        mask = np.ones(X.shape[1])
        mask[0] = 0.0
        z = X @ coeffs
        mu = sigmoid(z)
        ref_ll = -float(np.sum(np.logaddexp(0.0, (1.0 - 2.0 * y) * z)))
        ref_grad = X.T @ (y - mu) - l2 * mask * coeffs
        ref_hess = -(X.T * (mu * (1.0 - mu))) @ X - l2 * np.diag(mask)
        with mock.patch.object(glm, "_BLOCK_ROWS", SMALL_BLOCK):
            ll = log_likelihood(coeffs, X, y)
            grad, hess = gradient_and_hessian(coeffs, X, y, l2)
        # block partial sums add in another order; the absolute floor is
        # 1e-12 of the summed magnitudes, for sums that cancel
        ll_scale = float(np.sum(np.abs(np.logaddexp(0.0, (1.0 - 2.0 * y) * z))))
        assert ll == pytest.approx(ref_ll, rel=1e-12, abs=1e-12 * ll_scale)
        grad_scale = np.abs(X).T @ np.abs(y - mu) + l2 * np.abs(coeffs)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * grad_scale.max())
        hess_scale = (np.abs(X).T * (mu * (1.0 - mu))) @ np.abs(X) + l2
        np.testing.assert_allclose(hess, ref_hess, rtol=1e-12, atol=1e-12 * hess_scale.max())


class TestPredictProb:
    def test_zero_coeffs_give_half(self):
        rng = np.random.Generator(np.random.PCG64(15))
        X, y = _random_instance(rng, n=60)
        fit = fit_logistic(X, y, feature_names=("intercept", "a", "b", "c"))
        fit.coeffs = np.zeros(4)
        assert fit.predict(np.array([[1.0, 2.0, -1.0, 0.5]]))[0] == 0.5

    def test_matches_sigmoid_composition(self):
        rng = np.random.Generator(np.random.PCG64(16))
        X, y = _random_instance(rng, n=60)
        fit = fit_logistic(X, y, feature_names=("intercept", "a", "b", "c"))
        row = np.array([1.0, 0.3, 1.2, -2.0])
        expected = sigmoid(float(np.dot(fit.coeffs, row)))
        assert fit.predict(row[None, :])[0] == pytest.approx(expected, abs=1e-15)

    def test_frame_monotonicity(self):
        fit_names = ("intercept", "frame")
        X = np.column_stack([np.ones(40), np.repeat([-1.0, 1.0], 20)])
        y = np.concatenate([np.ones(15), np.zeros(5), np.zeros(15), np.ones(5)])
        fit = fit_logistic(X, y, feature_names=fit_names)
        p_loss, p_gain = fit.predict(np.array([[1.0, -1.0], [1.0, 1.0]]))
        assert p_loss > p_gain

    def test_name_mismatch_raises(self):
        rng = np.random.Generator(np.random.PCG64(17))
        X, y = _random_instance(rng, n=60)
        fit = fit_logistic(X, y, feature_names=("intercept", "a", "b", "c"))
        # rows are built from fit.feature_names by design_matrix; a row of
        # another width cannot be scored
        with pytest.raises(InputError):
            fit.predict(np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(InputError):
            fit.predict(np.array([1.0, 0.0, 0.0, 0.0]))
