import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logit

from riskchoice import (
    CptParams,
    EstimationError,
    InputError,
    choice_prob_array,
    cpt,
    cpt_log_likelihood,
    fit_cpt,
    sample_value_curve,
    sample_weight_curve,
    split,
)
from riskchoice.cpt import (
    _T_HELD,
    PARAM_NAMES,
    _from_unconstrained,
    _Prepared,
    _start_box,
    _to_unconstrained,
    _trust_region_step,
    _upper_bounds,
    value_array,
    weight_array,
)
from riskchoice.scenario import GeneratorConfig, ScenarioArrays, as_arrays, generate_dataset

IDENTITY = CptParams(alpha=1.0, beta=1.0, lam=1.0, gamma=1.0, eta=1.0)
CURVED = CptParams(alpha=0.20, beta=0.77, lam=0.71, gamma=2.00, eta=0.20)
TRUE = CptParams(alpha=0.65, beta=0.75, lam=1.8, gamma=0.9, eta=0.3)


def simulate(params, n, seed, mixed_sign=False):
    """Draw scenarios and choices from a known parameterization."""
    rng = np.random.Generator(np.random.PCG64(seed))
    safe = rng.uniform(-50.0 if mixed_sign else 0.0, 100.0, n)
    risky = rng.uniform(-100.0 if mixed_sign else 0.0, 150.0, n)
    p = rng.uniform(0.1, 0.9, n)
    frame = rng.integers(0, 2, n) * 2 - 1
    shell = ScenarioArrays(
        id=np.arange(n), safe=safe, risky=risky, p=p, frame=frame, choice=np.zeros(n, dtype=np.int64)
    )
    probs = choice_prob_array(shell, params)
    choice = (rng.random(n) < probs).astype(np.int64)
    return ScenarioArrays(id=shell.id, safe=safe, risky=risky, p=p, frame=frame, choice=choice)


class TestParams:
    def test_validation(self):
        CptParams(0.5, 0.5, 1.0, 2.0, 0.1)
        with pytest.raises(InputError):
            CptParams(0.0, 0.5, 1.0, 1.0, 1.0)
        with pytest.raises(InputError):
            CptParams(0.5, 1.2, 1.0, 1.0, 1.0)
        with pytest.raises(InputError):
            CptParams(0.5, 0.5, -1.0, 1.0, 1.0)
        with pytest.raises(InputError):
            CptParams(0.5, 0.5, 1.0, 0.0, 1.0)
        with pytest.raises(InputError):
            CptParams(0.5, 0.5, 1.0, 1.0, math.inf)

    @pytest.mark.parametrize("eta", [0.0, -0.1])
    def test_eta_must_be_positive(self, eta):
        with pytest.raises(InputError, match=f"^eta must be positive, got {eta}$"):
            CptParams(0.5, 0.5, 1.0, 1.0, eta)

    def test_order(self):
        assert PARAM_NAMES == ("alpha", "beta", "lambda", "gamma", "eta")
        assert CptParams(0.1, 0.2, 0.3, 0.4, 0.5).as_tuple() == (0.1, 0.2, 0.3, 0.4, 0.5)


def one(f, x, params) -> float:
    """f (value_array or weight_array) on the one-element array [x]."""
    (out,) = f(np.array([x]), params)
    return float(out)


class TestValue:
    def test_identities(self):
        for params in (IDENTITY, CURVED, TRUE):
            assert one(value_array, 0.0, params) == 0.0
            assert one(value_array, 1.0, params) == 1.0
            assert one(value_array, -1.0, params) == -params.lam

    def test_lambda_scales_only_losses(self):
        a = CptParams(0.6, 0.8, 1.0, 1.0, 1.0)
        b = CptParams(0.6, 0.8, 2.5, 1.0, 1.0)
        assert one(value_array, -3.0, b) == pytest.approx(
            2.5 * one(value_array, -3.0, a), rel=1e-15
        )
        assert one(value_array, 3.0, b) == one(value_array, 3.0, a)

    def test_strictly_increasing(self):
        xs = np.linspace(-100.0, 150.0, 401)
        vs = value_array(xs, CURVED)
        assert np.all(np.diff(vs) > 0)

    def test_array_matches_scalar(self):
        xs = np.array([-5.0, -0.5, 0.0, 0.5, 7.0])
        scalar = [x**TRUE.alpha if x >= 0.0 else -TRUE.lam * (-x) ** TRUE.beta for x in xs]
        np.testing.assert_allclose(value_array(xs, TRUE), scalar, rtol=1e-15)


class TestWeight:
    def test_fixed_points(self):
        for gamma in (0.3, 1.0, 2.0, 4.5):
            params = CptParams(0.5, 0.5, 1.0, gamma, 1.0)
            assert one(weight_array, 1.0, params) == pytest.approx(1.0, abs=1e-15)
            assert one(weight_array, math.exp(-1.0), params) == pytest.approx(
                math.exp(-1.0), rel=1e-14
            )

    def test_identity_at_gamma_one(self):
        grid = np.linspace(0.01, 0.99, 99)
        w = weight_array(grid, IDENTITY)
        assert np.max(np.abs(w - grid)) < 1e-12

    def test_pinned_value(self):
        # high-precision evaluation of exp(-(ln 10)^2)
        params = CptParams(0.5, 0.5, 1.0, 2.0, 1.0)
        assert one(weight_array, 0.1, params) == pytest.approx(0.00498212829644072, rel=1e-13)

    def test_strictly_increasing(self):
        grid = np.linspace(0.005, 1.0, 300)
        for gamma in (0.4, 2.0):
            w = weight_array(grid, CptParams(0.5, 0.5, 1.0, gamma, 1.0))
            assert np.all(np.diff(w) > 0)

    def test_domain_errors(self):
        for p in (0.0, -0.2, 1.0001):
            with pytest.raises(InputError):
                one(weight_array, p, IDENTITY)


def one_scenario(safe, risky, p):
    return ScenarioArrays(
        id=np.zeros(1, dtype=np.int64),
        safe=np.array([safe]),
        risky=np.array([risky]),
        p=np.array([p]),
        frame=np.ones(1, dtype=np.int64),
        choice=np.zeros(1, dtype=np.int64),
    )


class TestChoiceProb:
    def test_both_zero_payoffs(self):
        assert choice_prob_array(one_scenario(0.0, 0.0, 0.4), CURVED)[0] == 0.5

    def test_vanishing_sensitivity(self):
        params = CptParams(0.6, 0.6, 1.0, 1.0, 1e-12)
        assert choice_prob_array(one_scenario(30.0, 90.0, 0.6), params)[0] == pytest.approx(
            0.5, abs=1e-9
        )

    def test_identity_params_pinned(self):
        expected = 1.0 / (1.0 + math.exp(-10.0))
        assert choice_prob_array(one_scenario(50.0, 120.0, 0.5), IDENTITY)[0] == pytest.approx(
            expected, rel=1e-14
        )

    def test_array_matches_scalar(self):
        arrays = simulate(TRUE, 50, seed=1, mixed_sign=True)
        probs = choice_prob_array(arrays, TRUE)
        for i in range(50):
            w = math.exp(-((-math.log(arrays.p[i])) ** TRUE.gamma))
            u_risky = w * one(value_array, float(arrays.risky[i]), TRUE)
            u_safe = one(value_array, float(arrays.safe[i]), TRUE)
            expected = 1.0 / (1.0 + math.exp(-TRUE.eta * (u_risky - u_safe)))
            assert probs[i] == pytest.approx(expected, rel=1e-12)


class TestLogLikelihood:
    def test_vanishing_sensitivity_limit(self):
        arrays = simulate(TRUE, 64, seed=2)
        params = CptParams(0.6, 0.6, 1.0, 1.0, 1e-14)
        assert cpt_log_likelihood(params, arrays) == pytest.approx(
            64 * math.log(0.5), rel=1e-9
        )

    def test_matches_naive_per_row_product(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for trial in range(25):
            arrays = simulate(TRUE, 10, seed=100 + trial, mixed_sign=bool(trial % 2))
            params = CptParams(
                alpha=float(rng.uniform(0.2, 1.0)),
                beta=float(rng.uniform(0.2, 1.0)),
                lam=float(rng.uniform(0.5, 3.0)),
                gamma=float(rng.uniform(0.3, 2.0)),
                eta=float(rng.uniform(0.05, 0.5)),
            )
            probs = choice_prob_array(arrays, params)
            naive = float(
                np.sum(np.where(arrays.choice == 1, np.log(probs), np.log(1 - probs)))
            )
            assert cpt_log_likelihood(params, arrays) == pytest.approx(naive, rel=1e-10)

    def test_zero_payoffs_match_naive_per_row_product(self):
        for mixed in (False, True):
            arrays = with_zero_payoffs(simulate(TRUE, 60, seed=14, mixed_sign=mixed))
            probs = choice_prob_array(arrays, CURVED)
            naive = float(
                np.sum(np.where(arrays.choice == 1, np.log(probs), np.log(1 - probs)))
            )
            assert cpt_log_likelihood(CURVED, arrays) == pytest.approx(naive, rel=1e-10)

    def test_truth_beats_local_perturbations(self):
        arrays = simulate(TRUE, 20_000, seed=4, mixed_sign=True)
        base = cpt_log_likelihood(TRUE, arrays)
        t = TRUE.as_tuple()
        for i in range(5):
            for factor in (0.8, 1.25):
                bumped = list(t)
                bumped[i] = min(t[i] * factor, 1.0) if i < 2 else t[i] * factor
                if bumped[i] == t[i]:
                    continue
                worse = cpt_log_likelihood(CptParams(*bumped), arrays)
                assert worse < base, f"param {PARAM_NAMES[i]} factor {factor}"


def with_payoffs(arrays, safe, risky):
    """Copy of arrays with the given payoff columns."""
    return ScenarioArrays(
        id=arrays.id, safe=safe, risky=risky, p=arrays.p, frame=arrays.frame, choice=arrays.choice
    )


def with_zero_payoffs(arrays):
    """Copy of arrays with some payoffs set to exactly 0 (the zero branch)."""
    safe = arrays.safe.copy()
    risky = arrays.risky.copy()
    safe[::7] = 0.0
    risky[::11] = 0.0
    return with_payoffs(arrays, safe, risky)


def sized(n, safe, risky):
    """n scenarios with the given payoffs (scalars or arrays), p drawn from
    (0.1, 0.9) and alternating choices."""
    rng = np.random.Generator(np.random.PCG64(0))
    return ScenarioArrays(
        id=np.arange(n),
        safe=np.broadcast_to(np.asarray(safe, dtype=float), n).copy(),
        risky=np.broadcast_to(np.asarray(risky, dtype=float), n).copy(),
        p=rng.uniform(0.1, 0.9, n),
        frame=np.ones(n, dtype=np.int64),
        choice=np.arange(n, dtype=np.int64) % 2,
    )


def huge_gain_data(n=40):
    """Gain-only scenarios with both payoffs uniform in (0.5e300, 1e300)."""
    rng = np.random.default_rng(0)
    return ScenarioArrays(
        id=np.arange(n),
        safe=rng.uniform(0.5e300, 1e300, n),
        risky=rng.uniform(0.5e300, 1e300, n),
        p=rng.uniform(0.1, 0.9, n),
        frame=np.ones(n, dtype=np.int64),
        choice=rng.integers(0, 2, n),
    )


GRADIENT_DATA = {
    "gain_only": _Prepared(simulate(TRUE, 400, seed=12)),
    "mixed_sign": _Prepared(with_zero_payoffs(simulate(TRUE, 400, seed=13, mixed_sign=True))),
}

REFERENCE_DATA = {
    "gain_only": simulate(TRUE, 300, seed=16),
    "mixed_sign": simulate(TRUE, 300, seed=17, mixed_sign=True),
    "gain_only_zero_payoffs": with_zero_payoffs(simulate(TRUE, 300, seed=18)),
    "mixed_sign_zero_payoffs": with_zero_payoffs(simulate(TRUE, 300, seed=19, mixed_sign=True)),
}
# layouts where alpha (no gain) or gamma (no nonzero risky payoff) is unidentified
_gains, _mixed = simulate(TRUE, 300, seed=20), simulate(TRUE, 300, seed=21, mixed_sign=True)
REFERENCE_DATA["loss_only"] = with_payoffs(_gains, -_gains.safe, -_gains.risky)
REFERENCE_DATA["zero_risky"] = with_payoffs(_mixed, _mixed.safe, np.zeros(300))
REFERENCE_PREPARED = {name: _Prepared(arrays) for name, arrays in REFERENCE_DATA.items()}


def reference_derivatives(arrays, theta):
    """The mean negative log-likelihood, which ``_Prepared.derivatives``
    returns first, with its gradient and Hessian in (alpha, beta, lambda,
    gamma, eta), straight from the closed-form derivatives of every row's
    term softplus((1 - 2 y) z), z = eta (w(p) v(R) - v(S)): rows in their
    own order, each payoff's branch chosen with np.where. Also returns, for
    each of the three, the sum over rows of the absolute values of its terms
    (divided by n), the scale of its rounding error."""
    alpha, beta, lam, gamma, eta = theta
    n = len(arrays)
    loglogp = np.log(-np.log(arrays.p))
    q = np.exp(gamma * loglogp)
    m = q * loglogp
    w = np.exp(-q)
    dw = np.zeros((5, n))
    dw[3] = -w * m
    d2w = np.zeros((5, 5, n))
    d2w[3, 3] = w * m * (m - loglogp)

    def value(x):
        """v(x) with its first and second derivatives in theta."""
        gain, loss = x > 0.0, x < 0.0
        log_abs = np.log(np.where(x == 0.0, 1.0, np.abs(x)))
        v = np.where(gain, np.exp(alpha * log_abs), 0.0)
        v = np.where(loss, -lam * np.exp(beta * log_abs), v)
        dv = np.zeros((5, n))
        dv[0] = np.where(gain, v * log_abs, 0.0)
        dv[1] = np.where(loss, v * log_abs, 0.0)
        dv[2] = np.where(loss, v / lam, 0.0)
        d2v = np.zeros((5, 5, n))
        d2v[0, 0] = np.where(gain, v * log_abs**2, 0.0)
        d2v[1, 1] = np.where(loss, v * log_abs**2, 0.0)
        d2v[1, 2] = d2v[2, 1] = np.where(loss, v * log_abs / lam, 0.0)
        return v, dv, d2v

    v_r, dv_r, d2v_r = value(arrays.risky)
    v_s, dv_s, d2v_s = value(arrays.safe)
    d = w * v_r - v_s
    dd = w * dv_r + dw * v_r - dv_s
    d2d = (
        w * d2v_r + dw[:, None] * dv_r[None] + dv_r[:, None] * dw[None] + d2w * v_r - d2v_s
    )
    dz = np.concatenate([eta * dd[:4], d[None]])
    d2z = np.zeros((5, 5, n))
    d2z[:4, :4] = eta * d2d[:4, :4]
    d2z[:4, 4] = d2z[4, :4] = dd[:4]

    sign = 1.0 - 2.0 * arrays.choice
    s = sign * eta * d
    terms = np.logaddexp(0.0, s)
    # sigmoid(s) and sigmoid(-s), each without cancellation
    sigma, sigma_neg = np.exp(-np.logaddexp(0.0, -s)), np.exp(-np.logaddexp(0.0, s))
    rho = sign * sigma
    h = sigma * sigma_neg
    grad_terms = rho * dz
    hess_terms = h * dz[:, None] * dz[None] + rho * d2z
    return (
        (terms.sum() / n, grad_terms.sum(axis=-1) / n, hess_terms.sum(axis=-1) / n),
        (terms.sum() / n, np.abs(grad_terms).sum(axis=-1) / n, np.abs(hess_terms).sum(axis=-1) / n),
    )

interior_params = st.tuples(
    st.floats(0.2, 0.95),
    st.floats(0.2, 0.95),
    st.floats(0.3, 4.0),
    st.floats(0.2, 3.0),
    st.floats(0.02, 0.8),
)


SIGN_PAIRS = [(rs, ss) for rs in (-1, 0, 1) for ss in (-1, 0, 1)]


@st.composite
def sign_layouts(draw):
    """Scenarios from a nonempty subset of the nine (risky sign, safe sign)
    blocks, 1 to 12 rows each, in shuffled order."""
    pairs = draw(st.lists(st.sampled_from(SIGN_PAIRS), min_size=1, max_size=9, unique=True))
    counts = draw(st.lists(st.integers(1, 12), min_size=len(pairs), max_size=len(pairs)))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    risky_sign = np.repeat([rs for rs, _ in pairs], counts)
    safe_sign = np.repeat([ss for _, ss in pairs], counts)
    n = risky_sign.size
    order = rng.permutation(n)
    return ScenarioArrays(
        id=np.arange(n),
        safe=(safe_sign * rng.uniform(0.5, 100.0, n))[order],
        risky=(risky_sign * rng.uniform(0.5, 150.0, n))[order],
        p=rng.uniform(0.1, 0.9, n),
        frame=np.ones(n, dtype=np.int64),
        choice=rng.integers(0, 2, n),
    )


def central_differences(f, theta, rel_step=1e-5):
    """Central differences of f (scalar- or vector-valued) at theta, one
    column per coordinate."""
    cols = []
    for j in range(theta.shape[0]):
        step = np.zeros_like(theta)
        step[j] = rel_step * max(1.0, abs(theta[j]))
        cols.append((np.asarray(f(theta + step)) - np.asarray(f(theta - step))) / (2.0 * step[j]))
    return np.stack(cols, axis=-1)


class TestGradient:
    @settings(max_examples=60)
    @given(theta=interior_params, data=st.sampled_from(sorted(GRADIENT_DATA)))
    def test_matches_central_differences(self, theta, data):
        prep = GRADIENT_DATA[data]
        theta = np.array(theta)
        _, grad, _ = prep.derivatives(theta)
        fd = central_differences(lambda th: prep.derivatives(th)[0], theta)
        assert np.linalg.norm(grad - fd) < 1e-6 * np.linalg.norm(grad)
        if data == "gain_only":
            assert grad[1] == 0.0 and grad[2] == 0.0

    @settings(max_examples=60)
    @given(theta=interior_params, data=st.sampled_from(sorted(GRADIENT_DATA)))
    def test_hessian_matches_central_differences_of_the_gradient(self, theta, data):
        prep = GRADIENT_DATA[data]
        theta = np.array(theta)
        _, _, hess = prep.derivatives(theta)
        np.testing.assert_array_equal(hess, hess.T)
        fd = central_differences(lambda th: prep.derivatives(th)[1], theta)
        assert np.linalg.norm(hess - fd) < 1e-6 * np.linalg.norm(hess)
        if data == "gain_only":
            # the loss branch is never evaluated: its rows are exactly zero
            assert not np.any(hess[1:3]) and not np.any(hess[:, 1:3])
            assert prep.identified.tolist() == [True, False, False, True, True]
        else:
            assert prep.identified.all()

    # Agreement to within 1e-12 of each sum's absolute scale is far below
    # what central differences resolve (1e-6), so a slip in how the pass
    # gathers its sums, such as a term counted twice, cannot hide; entries
    # of parameters outside the identified set must match the exact zeros.
    @settings(max_examples=60)
    @given(theta=interior_params, data=st.sampled_from(sorted(REFERENCE_DATA)))
    def test_matches_row_by_row_reference(self, theta, data):
        prep = REFERENCE_PREPARED[data]
        (value, grad, hess), (value_scale, grad_scale, hess_scale) = reference_derivatives(
            REFERENCE_DATA[data], theta
        )
        got_value, got_grad, got_hess = prep.derivatives(np.array(theta))
        assert abs(got_value - value) <= 1e-12 * value_scale
        assert np.all(np.abs(got_grad - grad) <= 1e-12 * grad_scale)
        assert np.all(np.abs(got_hess - hess) <= 1e-12 * hess_scale)
        unidentified = ~prep.identified
        assert not np.any(got_grad[unidentified]) and not np.any(got_hess[unidentified])
        assert not np.any(got_hess[:, unidentified])

    @settings(max_examples=300)
    @given(layout=sign_layouts(), theta=interior_params)
    def test_identified_follows_the_payoff_signs(self, layout, theta):
        # alpha needs a gain, beta and lambda a loss, gamma a nonzero risky
        # payoff and eta any nonzero payoff; every other gradient and Hessian
        # entry is exactly 0
        prep = _Prepared(layout)
        payoffs = np.concatenate([layout.risky, layout.safe])
        gain, loss = bool(np.any(payoffs > 0.0)), bool(np.any(payoffs < 0.0))
        expected = [gain, loss, loss, bool(np.any(layout.risky != 0.0)), gain or loss]
        assert prep.identified.tolist() == expected
        _, grad, hess = prep.derivatives(np.array(theta))
        unidentified = ~prep.identified
        assert not np.any(grad[unidentified]) and not np.any(hess[unidentified])
        assert not np.any(hess[:, unidentified])
        assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))

    # the fit's objective comes from the engine's sorted blocks and the
    # public likelihood from value_array and weight_array row by row; only
    # summation order separates them
    @settings(max_examples=300)
    @given(layout=sign_layouts(), theta=interior_params)
    def test_fit_objective_matches_the_public_likelihood(self, layout, theta):
        value, _, _ = _Prepared(layout).derivatives(np.array(theta))
        ll = cpt_log_likelihood(CptParams(*theta), layout)
        assert value * len(layout) == pytest.approx(-ll, rel=1e-12)

    def test_overflowing_powers_give_minus_infinity(self):
        # v(S) = -lambda (-x)^beta overflows to -inf; no RuntimeWarning
        params = CptParams(1.0, 1.0, 1e10, 1.0, 1.0)
        arrays = sized(4, -1e300, 1e300)
        assert cpt_log_likelihood(params, arrays) == -math.inf
        assert _Prepared(arrays).derivatives(np.array(params.as_tuple()))[0] == math.inf

    @pytest.mark.parametrize("mixed_sign", [True, False], ids=["mixed_sign", "gain_only"])
    def test_pass_allocates_no_row_length_array(self, mixed_sign):
        # mixed-sign data has four blocks and five identified coordinates;
        # gain-only data, as in the default experiment, is one block with
        # three (alpha, gamma and eta)
        prep = _Prepared(simulate(TRUE, 20_000, seed=15, mixed_sign=mixed_sign))
        assert prep.identified.sum() == (5 if mixed_sign else 3)
        theta = np.array(TRUE.as_tuple())
        first = prep.derivatives(theta)
        tracemalloc.start()
        try:
            again = prep.derivatives(theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # less than one float per row of the smallest block: no temporary of
        # a block's length, let alone of n rows
        assert peak < 8 * min(rows.stop - rows.start for rows, _, _ in prep.blocks)
        assert first[0] == again[0]
        np.testing.assert_array_equal(first[1], again[1])
        np.testing.assert_array_equal(first[2], again[2])

    @settings(max_examples=100)
    @given(
        signs=st.lists(
            st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.sampled_from([-1.0, 0.0, 1.0])),
            min_size=1,
            max_size=60,
        )
    )
    def test_row_order_is_the_stable_sort_of_the_sign_key(self, signs):
        risky, safe = (np.array(col) * (1.0 + np.arange(len(signs))) for col in zip(*signs))
        arrays = ScenarioArrays(
            id=np.arange(len(signs)), safe=safe, risky=risky,
            p=np.linspace(0.1, 0.9, len(signs)), frame=np.ones(len(signs), dtype=np.int64),
            choice=np.zeros(len(signs), dtype=np.int64),
        )
        key = 3 * np.sign(risky).astype(np.int64) + np.sign(safe).astype(np.int64)
        order = np.argsort(key, kind="stable")
        prep = _Prepared(arrays)
        # p differs on every row, so this pins the whole permutation
        np.testing.assert_array_equal(prep.loglogp, np.log(-np.log(arrays.p[order])))

    def test_blocks_are_contiguous_by_sign(self):
        assert [b[1:] for b in GRADIENT_DATA["gain_only"].blocks] == [(1, 1)]
        prep = GRADIENT_DATA["mixed_sign"]
        assert prep.blocks[0][0].start == 0 and prep.blocks[-1][0].stop == prep.n
        for (rows, _, _), (after, _, _) in zip(prep.blocks, prep.blocks[1:]):
            assert rows.stop == after.start
        pairs = [(rs, ss) for _, rs, ss in prep.blocks]
        assert len(set(pairs)) == len(pairs) == 9


@st.composite
def start_points(draw):
    """A restart start point from the fit's start box, with its gamma_max."""
    gamma_max = draw(st.floats(0.5, 100.0))
    lo, hi = _start_box(gamma_max)
    theta = [draw(st.floats(a, b, exclude_max=True)) for a, b in zip(lo, hi)]
    return np.array(theta), gamma_max


class TestBoxTable:
    # Inside (0.3, 0.65) scipy's logit uses a log1p form accurate relative to
    # its small result, while log(x / (1 - x)) is accurate to a few ULP of 1
    # there. That suffices: bound * sigmoid(t) moves by at most bound / 4
    # per unit of t, so the round trip still returns theta within a few ULP.
    @settings(max_examples=300)
    @given(point=start_points())
    @example(point=(np.array([0.5, 0.5 + 2.0**-53, 0.5, 1.0 - 2.0**-53, 0.01]), 2.0))
    @example(point=(np.array([0.2, 0.3, 2.0, 0.2, 0.5]), 100.0))
    def test_start_transform_matches_scipy_logit(self, point):
        theta, gamma_max = point
        t = _to_unconstrained(theta, gamma_max)
        for ti, v, hi in zip(t, theta, _upper_bounds(gamma_max)):
            if hi is None:
                assert ti == np.log(v)
                continue
            x = v / hi
            reference = float(logit(x))
            scale = abs(reference) if x < 0.3 or x > 0.65 else max(abs(reference), 1.0)
            assert abs(ti - reference) <= 4 * np.spacing(scale)
        back, _, _ = _from_unconstrained(t, gamma_max)
        assert np.all(np.abs(back - theta) <= 8 * np.spacing(theta))

    def test_start_transform_at_the_ends_of_the_box(self):
        theta = np.array([1.0, 0.0, 2.0, 3.0, 0.5])
        t = _to_unconstrained(theta, 3.0)
        assert t[0] == t[3] == math.inf and t[1] == -math.inf
        assert t[[0, 1, 3]].tolist() == logit([1.0, 0.0, 1.0]).tolist()
        back, _, _ = _from_unconstrained(t, 3.0)
        assert back[0] == 1.0 and back[1] == 0.0 and back[3] == 3.0


    @settings(max_examples=200)
    @given(
        u=st.tuples(*[st.floats(1e-6, 1.0 - 1e-6)] * 3),
        positive=st.tuples(*[st.floats(1e-3, 1e3)] * 2),
        gamma_max=st.floats(0.5, 10.0),
    )
    def test_round_trip(self, u, positive, gamma_max):
        theta = np.array([u[0], u[1], positive[0], u[2] * gamma_max, positive[1]])
        back, _, _ = _from_unconstrained(_to_unconstrained(theta, gamma_max), gamma_max)
        np.testing.assert_allclose(back, theta, rtol=1e-12)

    @settings(max_examples=200)
    @given(t=st.tuples(*[st.floats(-8.0, 8.0)] * 5), gamma_max=st.floats(0.5, 10.0))
    def test_jacobian_matches_central_differences(self, t, gamma_max):
        t = np.array(t)
        _, jac, curv = _from_unconstrained(t, gamma_max)
        h = 1e-6
        for j in range(5):
            step = np.zeros(5)
            step[j] = h
            plus, jac_plus, _ = _from_unconstrained(t + step, gamma_max)
            minus, jac_minus, _ = _from_unconstrained(t - step, gamma_max)
            assert jac[j] == pytest.approx((plus[j] - minus[j]) / (2.0 * h), rel=1e-5)
            assert curv[j] == pytest.approx(
                (jac_plus[j] - jac_minus[j]) / (2.0 * h), rel=1e-5, abs=1e-9
            )

    @given(t=st.tuples(*[st.floats(-40.0, 40.0)] * 5), gamma_max=st.floats(0.5, 10.0))
    def test_stays_inside_the_box_where_expit_saturates(self, t, gamma_max):
        theta, jac, curv = _from_unconstrained(np.array(t), gamma_max)
        for v, hi in zip(theta, _upper_bounds(gamma_max)):
            assert 0.0 < v < math.inf
            assert hi is None or v <= hi
        assert all(0.0 < j < math.inf for j in jac)
        assert np.all(np.isfinite(curv))
        assert CptParams(*theta).gamma <= gamma_max

    def test_held_coordinate_sits_exactly_on_its_bound(self):
        t = np.full(5, _T_HELD)
        theta, _, _ = _from_unconstrained(t, 3.0)
        assert theta[0] == theta[1] == 1.0 and theta[3] == 3.0
        assert theta[2] == theta[4] == math.exp(_T_HELD)

    def test_overflow_maps_to_infinity_and_underflow_to_zero(self):
        theta, jac, _ = _from_unconstrained(np.array([0.0, 0.0, 1e4, -1e4, 1e4]), 2.0)
        assert theta[2] == theta[4] == math.inf
        assert theta[3] == jac[3] == 0.0


class TestTrustRegionStep:
    @settings(max_examples=200)
    @given(
        eig=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5),
        proj=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
        radius=st.floats(1e-3, 1e3),
    )
    def test_stays_inside_and_descends(self, eig, proj, radius):
        eig = np.sort(np.array(eig))
        proj = np.array(proj[: eig.size])
        step = np.array(_trust_region_step(eig.tolist(), proj.tolist(), radius))
        assert np.all(np.isfinite(step))
        assert math.sqrt(step @ step) <= radius * (1.0 + 1e-3)
        # the quadratic model does not rise
        assert proj @ step + 0.5 * (eig * step) @ step <= 0.0
        with np.errstate(over="ignore"):
            if eig[0] > 0.0 and np.linalg.norm(proj / eig) <= radius:
                np.testing.assert_array_equal(step, -proj / eig)


@pytest.fixture(scope="module")
def gain_fit():
    arrays = simulate(TRUE, 2500, seed=5, mixed_sign=False)
    return fit_cpt(arrays, n_restarts=5, seed=11), arrays


@pytest.fixture(scope="module")
def mixed_fit():
    arrays = simulate(TRUE, 2500, seed=6, mixed_sign=True)
    return fit_cpt(arrays, n_restarts=5, seed=11), arrays


class TestFit:
    def test_best_of_restarts(self, gain_fit):
        fit, _ = gain_fit
        assert len(fit.restart_log) == 5
        for rec in fit.restart_log:
            assert fit.log_likelihood >= rec.log_likelihood

    def test_bounds_respected(self, gain_fit, mixed_fit):
        for fit, _ in (gain_fit, mixed_fit):
            p = fit.params
            assert 0.0 < p.alpha <= 1.0
            assert 0.0 < p.beta <= 1.0
            assert p.lam > 0.0
            assert 0.0 < p.gamma <= fit.gamma_max
            assert p.eta > 0.0
            for rec in fit.restart_log:
                a, b, lam, g, eta = rec.start
                assert 0.2 <= a < 1.0 and 0.2 <= b < 1.0
                assert 0.5 <= lam < 3.0 and 0.2 <= g < 2.0 and 0.01 <= eta < 1.0

    def test_gain_only_leaves_loss_branch_unidentified(self, gain_fit):
        fit, _ = gain_fit
        ses = dict(zip(PARAM_NAMES, fit.std_errors))
        assert ses["beta"] is None
        assert ses["lambda"] is None
        assert fit.information_singular
        # beta and lambda never leave their start draws
        best = max(fit.restart_log, key=lambda r: r.log_likelihood)
        assert (fit.params.beta, fit.params.lam) == pytest.approx(best.start[1:3], rel=1e-12)

    def test_gain_only_alpha_is_held_exactly_on_its_bound(self):
        # this data prefers alpha > 1, so every restart ends on the bound
        arrays = as_arrays(generate_dataset(GeneratorConfig(n=2000, seed=42)))
        fit = fit_cpt(arrays, n_restarts=4, seed=3)
        assert fit.params.alpha == 1.0
        assert fit.unconstrained_optimum[0] == _T_HELD
        assert all(r.converged for r in fit.restart_log)
        # the unconstrained objective is flat in alpha there, so the optimum
        # is stationary in every coordinate, as acceptance check C4 demands
        prep = _Prepared(arrays)

        def objective(t):
            return prep.derivatives(_from_unconstrained(t, fit.gamma_max)[0])[0]

        z0 = fit.unconstrained_optimum
        grad = central_differences(objective, z0, rel_step=1e-6)
        assert grad[0] == 0.0
        assert np.max(np.abs(grad)) < 1e-7

    def test_optimum_just_inside_a_bound_is_not_held_on_it(self, mixed_fit, monkeypatch):
        # with gamma's bound 5e-5 relative above its optimum, the bound
        # lowers the objective from a point short of the optimum but is not a
        # KKT point: the gradient there points back into the box
        fit, arrays = mixed_fit
        gamma_hat = fit.params.gamma
        tries = []
        evaluate = cpt._evaluate

        def counting(prep, t, gamma_max):
            if t[3] == _T_HELD:
                tries.append(t)
            return evaluate(prep, t, gamma_max)

        monkeypatch.setattr(cpt, "_evaluate", counting)
        tight = fit_cpt(arrays, n_restarts=5, seed=11, gamma_max=gamma_hat * (1.0 + 5e-5))
        assert all(r.converged for r in tight.restart_log)
        # a rejected hold is retried only once the coordinate has halved its
        # distance to the bound: from 1e-3 to 5e-5 relative takes 5 halvings
        assert 0 < len(tries) <= 5 * 5
        assert tight.params.gamma < tight.gamma_max
        assert tight.params.gamma == pytest.approx(gamma_hat, rel=1e-6)
        assert tight.log_likelihood == pytest.approx(fit.log_likelihood, rel=1e-12)

    @pytest.mark.parametrize(
        "data_seed, parent_ll, gamma",
        [(2000003, -2549.384712853129, 4.2553), (69, -2531.148947756171, 5.0)],
    )
    def test_reaches_the_better_of_two_optima(self, data_seed, parent_ll, gamma):
        # gamma's profile likelihood on these gain-only datasets has a local
        # optimum near 1.4-1.8 and the global one at a larger gamma, behind a
        # ridge that every start draw (gamma <= 2) lies below; few restarts
        # cross it (5 and 1 of 20). parent_ll is the optimum L-BFGS-B found
        # from the same start draws.
        data = as_arrays(generate_dataset(GeneratorConfig(n=5000, seed=data_seed)))
        arrays, _ = split(data, 0.8, 0)
        fit = fit_cpt(arrays, n_restarts=20, seed=7)
        assert fit.log_likelihood >= parent_ll * (1.0 + 1e-9)
        assert fit.params.gamma == pytest.approx(gamma, rel=1e-4)

    def test_table1_optimum(self):
        # the default experiment's CPT fit, which the benchmark times: the
        # training rows of dataset seed 42 (n = 5000, split 0.8 with seed 0),
        # 20 restarts with fit seed 7
        data = as_arrays(generate_dataset(GeneratorConfig(n=5000, seed=42)))
        arrays, _ = split(data, 0.8, 0)
        fit = fit_cpt(arrays, n_restarts=20, seed=7)
        assert fit.log_likelihood == pytest.approx(-2567.42855878538, rel=1e-12)
        assert fit.params.alpha == 1.0
        assert fit.params.gamma == pytest.approx(1.56996456413879, rel=1e-9)
        assert fit.params.eta == pytest.approx(0.0149473965492191, rel=1e-9)

    def test_converged_restarts_agree_on_interior_data(self, mixed_fit):
        fit, _ = mixed_fit
        assert all(r.converged for r in fit.restart_log)
        assert all(r.n_evals < 60 for r in fit.restart_log)
        lls = [r.log_likelihood for r in fit.restart_log]
        assert max(lls) - min(lls) < 1e-9 * abs(max(lls))

    def test_mixed_sign_data_identifies_everything(self, mixed_fit):
        fit, _ = mixed_fit
        assert not fit.information_singular
        assert all(se is not None and se > 0 for se in fit.std_errors)

    def test_fit_improves_on_truth(self, mixed_fit):
        fit, arrays = mixed_fit
        assert fit.log_likelihood >= cpt_log_likelihood(TRUE, arrays) - 1e-6

    def test_deterministic(self):
        arrays = simulate(TRUE, 800, seed=7)
        a = fit_cpt(arrays, n_restarts=3, seed=2)
        b = fit_cpt(arrays, n_restarts=3, seed=2)
        assert a.params == b.params
        assert a.restart_log == b.restart_log
        assert a.log_likelihood == b.log_likelihood

    def test_exact_tie_goes_to_the_lowest_restart(self, monkeypatch):
        starts = []

        def same_optimum(prep, t0, gamma_max):
            # every restart ends at the same value, at its own start point;
            # only the first reports failure
            starts.append(np.array(t0))
            return np.array(t0), 0.6, len(starts) > 1, 1

        monkeypatch.setattr(cpt, "_newton", same_optimum)
        arrays = simulate(TRUE, 300, seed=9, mixed_sign=True)
        fit = fit_cpt(arrays, n_restarts=4, seed=3)
        first = fit.restart_log[0]
        assert [r.log_likelihood for r in fit.restart_log] == [-0.6 * 300] * 4
        assert fit.log_likelihood == first.log_likelihood
        assert fit.converged is first.converged is False
        np.testing.assert_array_equal(fit.unconstrained_optimum, starts[0])
        assert fit.params.as_tuple() == pytest.approx(first.start, rel=1e-12)

    def test_input_validation(self):
        arrays = simulate(TRUE, 100, seed=8)
        with pytest.raises(InputError):
            fit_cpt(arrays, n_restarts=0)
        # checked before the seeds are drawn, which numpy cannot hold
        with pytest.raises(InputError, match=f"^n_restarts must be from 1 to 1000000, got {2**63}"):
            fit_cpt(arrays, n_restarts=2**63)
        for gamma_max in (0.0, math.inf, math.nan):
            with pytest.raises(InputError, match="gamma_max must be positive and finite"):
                fit_cpt(arrays, n_restarts=2, gamma_max=gamma_max)
        # numpy would raise ValueError or TypeError on these
        for n_restarts in (1.5, True):
            with pytest.raises(InputError, match="^n_restarts must be from 1 to"):
                fit_cpt(arrays, n_restarts=n_restarts)
        for seed in (-1, 1.5, True, "7"):
            with pytest.raises(InputError, match="^seed must be a nonnegative integer"):
                fit_cpt(arrays, n_restarts=1, seed=seed)
        numpy_ints = fit_cpt(arrays, n_restarts=np.int64(1), seed=np.uint8(7))
        assert numpy_ints.params == fit_cpt(arrays, n_restarts=1, seed=7).params

    def test_empty_dataset_is_input_error(self):
        empty = sized(0, 1.0, 1.0)
        with pytest.raises(InputError, match="at least one scenario"):
            fit_cpt(empty)
        with pytest.raises(InputError, match="at least one scenario"):
            cpt_log_likelihood(TRUE, empty)

    def test_no_restart_converges(self, monkeypatch):
        # one pass per restart: each stops at its start point, unconverged
        monkeypatch.setattr(cpt, "_MAX_PASSES", 1)
        with pytest.raises(EstimationError, match="none of the 3 restarts converged") as err:
            fit_cpt(simulate(TRUE, 200, seed=23, mixed_sign=True), n_restarts=3)
        assert [(r.converged, r.n_evals) for r in err.value.restart_log] == [(False, 1)] * 3

    def test_steps_whose_length_overflows_end_in_a_result(self):
        # payoffs near 1e300 drive the trust-region step's mu update to a
        # zero slope; the fit must still return or raise EstimationError
        try:
            fit = fit_cpt(huge_gain_data(), n_restarts=3)
        except EstimationError:
            return
        assert math.isfinite(fit.log_likelihood)

    def test_steps_whose_length_underflows_end_the_restart(self):
        # a subnormal loss: every gradient entry is below 1e-84, the rejected
        # steps shrink until their squared length underflows, and the trust
        # radius reaches 0
        with pytest.raises(EstimationError, match="none of the 1 restarts converged") as err:
            fit_cpt(one_scenario(0.0, -4.0782907973636714e-265, 0.5), n_restarts=1)
        assert [r.converged for r in err.value.restart_log] == [False]

    def test_non_finite_pass(self):
        # dz/dalpha = eta ln|x| x^alpha overflows
        prep = _Prepared(sized(4, 1e300, 1e300))
        value, grad, hess = prep._pass([1.0, 1.0, 1.0, 1.0, 1e10])
        assert value == math.inf
        assert all(math.isnan(v) for v in grad + hess) and (len(grad), len(hess)) == (5, 25)

    def test_zero_payoffs_identify_nothing(self):
        fit = fit_cpt(sized(30, 0.0, 0.0), n_restarts=2)
        assert fit.std_errors == (None,) * 5
        assert fit.information_singular
        assert fit.log_likelihood == pytest.approx(30 * math.log(0.5), rel=1e-15)
        assert all(r.converged and r.n_evals == 1 for r in fit.restart_log)

    def test_singular_identified_block_gives_no_standard_errors(self):
        info = np.ones((5, 5))
        identified = np.array([True, False, False, True, True])
        assert cpt._standard_errors(info, identified) == ((None,) * 5, True)

    def test_newton_stops_at_the_pass_limit(self, monkeypatch):
        monkeypatch.setattr(cpt, "_MAX_PASSES", 3)
        prep = _Prepared(simulate(TRUE, 500, seed=22, mixed_sign=True))
        start = cpt._to_unconstrained((0.3, 0.3, 1.0, 0.5, 0.05), cpt.DEFAULT_GAMMA_MAX)
        _, value, converged, passes = cpt._newton(prep, start, cpt.DEFAULT_GAMMA_MAX)
        assert (converged, passes) == (False, 3)
        assert math.isfinite(value)

    def test_serialization(self, gain_fit):
        fit, _ = gain_fit
        doc = fit.to_json_dict()
        assert set(PARAM_NAMES) <= set(doc)
        assert doc["lambda"] == fit.params.lam
        assert doc["std_errors"]["beta"] is None
        assert len(doc["restarts"]) == 5
        assert {"index", "seed", "start", "log_likelihood", "converged", "n_evals"} == set(
            doc["restarts"][0]
        )


class TestCurves:
    def test_default_grids(self):
        vc = sample_value_curve(CURVED)
        wc = sample_weight_curve(CURVED)
        assert vc.shape == (251, 2)
        assert wc.shape == (99, 2)
        assert vc[0, 0] == -100.0 and vc[-1, 0] == 150.0
        assert wc[0, 0] == pytest.approx(0.01) and wc[-1, 0] == pytest.approx(0.99)

    def test_identity_reduction(self):
        vc = sample_value_curve(IDENTITY)
        np.testing.assert_allclose(vc[:, 1], vc[:, 0], atol=1e-12)
        wc = sample_weight_curve(IDENTITY)
        np.testing.assert_allclose(wc[:, 1], wc[:, 0], atol=1e-12)

    def test_monotone_and_below_diagonal(self):
        vc = sample_value_curve(CURVED)
        wc = sample_weight_curve(CURVED)
        assert np.all(np.diff(vc[:, 1]) >= 0)
        assert np.all(np.diff(wc[:, 1]) >= 0)
        small = wc[wc[:, 0] < math.exp(-1.0)]
        assert np.all(small[:, 1] < small[:, 0])
