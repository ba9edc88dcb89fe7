import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

from riskchoice import (
    CptParams,
    InputError,
    choice_prob_array,
    cpt,
    cpt_log_likelihood,
    fit_cpt,
    sample_value_curve,
    sample_weight_curve,
)
from riskchoice.cpt import (
    PARAM_NAMES,
    _from_unconstrained,
    _Prepared,
    _to_unconstrained,
    _upper_bounds,
    value_array,
    weight_array,
)
from riskchoice.scenario import ScenarioArrays

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


def with_zero_payoffs(arrays):
    """Copy of arrays with some payoffs set to exactly 0 (the zero branch)."""
    safe = arrays.safe.copy()
    risky = arrays.risky.copy()
    safe[::7] = 0.0
    risky[::11] = 0.0
    return ScenarioArrays(
        id=arrays.id, safe=safe, risky=risky, p=arrays.p, frame=arrays.frame, choice=arrays.choice
    )


GRADIENT_DATA = {
    "gain_only": _Prepared(simulate(TRUE, 400, seed=12)),
    "mixed_sign": _Prepared(with_zero_payoffs(simulate(TRUE, 400, seed=13, mixed_sign=True))),
}

interior_params = st.tuples(
    st.floats(0.2, 0.95),
    st.floats(0.2, 0.95),
    st.floats(0.3, 4.0),
    st.floats(0.2, 3.0),
    st.floats(0.02, 0.8),
)


class TestGradient:
    @settings(max_examples=60)
    @given(theta=interior_params, data=st.sampled_from(sorted(GRADIENT_DATA)))
    def test_matches_central_differences(self, theta, data):
        prep = GRADIENT_DATA[data]
        theta = np.array(theta)
        value, grad = prep.value_and_grad(theta)
        assert value == prep.neg_mean_ll(theta)
        fd = np.empty(5)
        for j in range(5):
            step = np.zeros(5)
            step[j] = 1e-5 * max(1.0, abs(theta[j]))
            fd[j] = (prep.neg_mean_ll(theta + step) - prep.neg_mean_ll(theta - step)) / (
                2.0 * step[j]
            )
        assert np.linalg.norm(grad - fd) < 1e-6 * np.linalg.norm(grad)
        if data == "gain_only":
            assert grad[1] == 0.0 and grad[2] == 0.0

    def test_blocks_are_contiguous_by_sign(self):
        assert [b[1:] for b in GRADIENT_DATA["gain_only"].blocks] == [(1, 1)]
        prep = GRADIENT_DATA["mixed_sign"]
        assert prep.blocks[0][0].start == 0 and prep.blocks[-1][0].stop == prep.n
        for (rows, _, _), (after, _, _) in zip(prep.blocks, prep.blocks[1:]):
            assert rows.stop == after.start
        pairs = [(rs, ss) for _, rs, ss in prep.blocks]
        assert len(set(pairs)) == len(pairs) == 9


class TestBoxTable:
    @settings(max_examples=200)
    @given(
        u=st.tuples(*[st.floats(1e-6, 1.0 - 1e-6)] * 3),
        positive=st.tuples(*[st.floats(1e-3, 1e3)] * 2),
        gamma_max=st.floats(0.5, 10.0),
    )
    def test_round_trip(self, u, positive, gamma_max):
        theta = np.array([u[0], u[1], positive[0], u[2] * gamma_max, positive[1]])
        back, _ = _from_unconstrained(_to_unconstrained(theta, gamma_max), gamma_max)
        np.testing.assert_allclose(back, theta, rtol=1e-12)

    @settings(max_examples=200)
    @given(t=st.tuples(*[st.floats(-8.0, 8.0)] * 5), gamma_max=st.floats(0.5, 10.0))
    def test_jacobian_matches_central_differences(self, t, gamma_max):
        t = np.array(t)
        _, jac = _from_unconstrained(t, gamma_max)
        h = 1e-6
        for j in range(5):
            step = np.zeros(5)
            step[j] = h
            plus, _ = _from_unconstrained(t + step, gamma_max)
            minus, _ = _from_unconstrained(t - step, gamma_max)
            assert jac[j] == pytest.approx((plus[j] - minus[j]) / (2.0 * h), rel=1e-5)

    @given(t=st.tuples(*[st.floats(-40.0, 40.0)] * 5), gamma_max=st.floats(0.5, 10.0))
    def test_stays_inside_the_box_where_expit_saturates(self, t, gamma_max):
        theta, jac = _from_unconstrained(np.array(t), gamma_max)
        for v, hi in zip(theta, _upper_bounds(gamma_max)):
            assert 0.0 < v < math.inf
            assert hi is None or v <= hi
        assert np.all(np.isfinite(jac)) and np.all(jac > 0.0)
        assert CptParams(*theta).gamma <= gamma_max


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

        def same_optimum(fun, x0, **kwargs):
            # every restart ends at the same value, at its own start point;
            # only the first reports failure
            starts.append(np.array(x0))
            return OptimizeResult(x=np.array(x0), fun=0.6, success=len(starts) > 1, nfev=1)

        monkeypatch.setattr(cpt, "minimize", same_optimum)
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
        with pytest.raises(InputError):
            fit_cpt(arrays, gamma_max=0.0)

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
