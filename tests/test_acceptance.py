"""Acceptance suite: end-to-end checks on recovery, ranking, calibration,
numerics, and determinism. Each test prints one labelled PASS/FAIL line with
the measured quantity so a log scan shows where things stand.
"""

import json
import time

import numpy as np
import pytest
from scipy.special import expit

from riskchoice import (
    DEFAULT_TRUE_COEFFS,
    CptParams,
    ExperimentConfig,
    GeneratorConfig,
    as_arrays,
    auc,
    choice_prob_array,
    cpt_log_likelihood,
    cramers_v,
    design_matrix,
    eta_squared,
    fit_cpt,
    fit_logistic,
    generate_dataset,
    run_experiment,
    sample_value_curve,
    sample_weight_curve,
)
from riskchoice.cpt import value_array, weight_array
from riskchoice.features import SYMBOLIC_NAMES
from riskchoice.glm import gradient_and_hessian, log_likelihood
from riskchoice.scenario import ScenarioArrays


def verdict(cid, name, ok, detail):
    line = f"[acceptance] {cid} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_run")
    t0 = time.perf_counter()
    run_experiment(ExperimentConfig(), out)
    elapsed = time.perf_counter() - t0
    report = json.loads((out / "report.json").read_text())
    return out, report, elapsed


def simulate_cpt(params, n, seed):
    """Mixed-sign scenarios with choices drawn from a known parameterization."""
    rng = np.random.Generator(np.random.PCG64(seed))
    safe = rng.uniform(-50.0, 100.0, n)
    risky = rng.uniform(-100.0, 150.0, n)
    p = rng.uniform(0.1, 0.9, n)
    frame = rng.integers(0, 2, n) * 2 - 1
    shell = ScenarioArrays(
        id=np.arange(n), safe=safe, risky=risky, p=p, frame=frame,
        choice=np.zeros(n, dtype=np.int64),
    )
    probs = choice_prob_array(shell, params)
    choice = (rng.random(n) < probs).astype(np.int64)
    return ScenarioArrays(id=shell.id, safe=safe, risky=risky, p=p, frame=frame, choice=choice)


def test_c1_logistic_parameter_recovery():
    t0 = time.perf_counter()
    arrays = as_arrays(generate_dataset(GeneratorConfig(n=50_000, seed=42)))
    X = design_matrix(arrays, SYMBOLIC_NAMES)
    model = fit_logistic(X, arrays.choice.astype(float), feature_names=SYMBOLIC_NAMES)
    elapsed = time.perf_counter() - t0

    ses = model.std_errors
    devs = [
        abs(model.coeffs[j] - DEFAULT_TRUE_COEFFS[j]) / ses[j]
        for j in range(len(DEFAULT_TRUE_COEFFS))
    ]
    ok = model.converged and max(devs) < 3.0 and elapsed < 10.0
    verdict(
        "C1", "logistic parameter recovery",
        ok, f"max |coef-true|/SE = {max(devs):.2f} over 5 coefficients, {elapsed:.2f}s",
    )


def test_c2_model_ranking_and_calibration(default_run):
    _, report, _ = default_run
    m = {name: report["models"][name]["metrics"] for name in ("symbolic", "blackbox", "cpt")}
    ordering = (
        m["symbolic"]["accuracy"] >= m["blackbox"]["accuracy"]
        and m["blackbox"]["accuracy"] > m["cpt"]["accuracy"]
        and m["symbolic"]["auc"] >= m["blackbox"]["auc"]
        and m["blackbox"]["auc"] > m["cpt"]["auc"]
    )
    in_brackets = (
        0.75 <= m["symbolic"]["accuracy"] <= 0.85
        and 0.78 <= m["symbolic"]["auc"] <= 0.88
    )
    detail = (
        "acc {:.4f}/{:.4f}/{:.4f}, auc {:.4f}/{:.4f}/{:.4f} (symbolic/blackbox/cpt)".format(
            m["symbolic"]["accuracy"], m["blackbox"]["accuracy"], m["cpt"]["accuracy"],
            m["symbolic"]["auc"], m["blackbox"]["auc"], m["cpt"]["auc"],
        )
    )
    verdict("C2", "model ranking and calibration", ordering and in_brackets, detail)


def test_c3_framing_reflection(default_run):
    _, report, _ = default_run
    fit = report["models"]["symbolic"]["fit"]
    idx = fit["features"].index("frame")
    coef = fit["coeffs"][idx]
    se = fit["std_errors"][idx]
    curve = report["reflection"]["p_risky_by_frame"]
    ok = coef < 0.0 and abs(coef) > 2.0 * se and curve["-1"] > curve["1"]
    verdict(
        "C3", "framing reflection",
        ok, f"frame coef {coef:.4f} (SE {se:.4f}), P(risky|-1)={curve['-1']:.3f} "
            f"> P(risky|+1)={curve['1']:.3f}",
    )


def test_c4_gradient_correctness():
    rng = np.random.Generator(np.random.PCG64(2024))
    worst = 0.0
    for _ in range(120):
        n = int(rng.integers(20, 60))
        k = int(rng.integers(2, 5))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        y = rng.integers(0, 2, n).astype(float)
        beta = rng.normal(scale=0.5, size=k)
        l2 = float(rng.choice([0.0, 0.0, 0.3]))

        grad, _ = gradient_and_hessian(beta, X, y, l2)

        def penalized(b):
            return log_likelihood(b, X, y) - 0.5 * l2 * float(b[1:] @ b[1:])

        fd = np.empty(k)
        for j in range(k):
            h = 1e-6 * max(1.0, abs(beta[j]))
            e = np.zeros(k)
            e[j] = h
            fd[j] = (penalized(beta + e) - penalized(beta - e)) / (2.0 * h)
        rel = float(np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12))
        worst = max(worst, rel)
    logistic_ok = worst < 1e-6

    # stationarity of each returned optimum, checked in the
    # unconstrained coordinates the optimizer works in
    fits = [
        (simulate_cpt(CptParams(alpha=0.65, beta=0.75, lam=1.8, gamma=0.9, eta=0.3), 2500, 21), 5),
        (simulate_cpt(CptParams(alpha=0.45, beta=0.9, lam=1.2, gamma=1.4, eta=0.15), 2000, 22), 5),
        (as_arrays(generate_dataset(GeneratorConfig(n=1500, seed=23))), 3),
    ]
    worst_cpt = 0.0
    for arrays, restarts in fits:
        fit = fit_cpt(arrays, n_restarts=restarts, seed=13)
        gmax = fit.gamma_max

        def objective(z):
            params = CptParams(
                alpha=min(float(expit(z[0])), 1.0),
                beta=min(float(expit(z[1])), 1.0),
                lam=float(np.exp(z[2])),
                gamma=min(float(gmax * expit(z[3])), gmax),
                eta=float(np.exp(z[4])),
            )
            return -cpt_log_likelihood(params, arrays) / len(arrays)

        z0 = fit.unconstrained_optimum
        grad = np.empty(5)
        for j in range(5):
            h = 1e-6 * max(1.0, abs(z0[j]))
            e = np.zeros(5)
            e[j] = h
            grad[j] = (objective(z0 + e) - objective(z0 - e)) / (2.0 * h)
        worst_cpt = max(worst_cpt, float(np.max(np.abs(grad))))
    cpt_ok = worst_cpt < 1e-5

    verdict(
        "C4", "gradient correctness",
        logistic_ok and cpt_ok,
        f"logistic FD rel err {worst:.2e} over 120 instances; "
        f"optimum FD grad max-norm {worst_cpt:.2e} over {len(fits)} fits",
    )


def brute_force_auc(y, scores):
    pos = scores[y == 1]
    neg = scores[y == 0]
    greater = float((pos[:, None] > neg[None, :]).sum())
    ties = float((pos[:, None] == neg[None, :]).sum())
    return (greater + 0.5 * ties) / (pos.size * neg.size)


def test_c5_auc_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(555))
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(2, 201))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        if i % 3 == 0:
            scores = rng.random(n)            # continuous, ties unlikely
        elif i % 3 == 1:
            scores = np.round(rng.random(n), 1)  # decimal grid, frequent ties
        else:
            scores = rng.integers(0, 4, n).astype(float)  # heavy ties
        worst = max(worst, abs(auc(scores, y) - brute_force_auc(y, scores)))
    verdict(
        "C5", "rank AUC equals all-pairs statistic",
        worst <= 1e-12, f"max |diff| = {worst:.2e} over 1000 instances",
    )


def test_c6_effect_size_boundaries():
    x = np.array([0, 0, 1, 1])
    exact = (
        cramers_v(x, np.array([0, 0, 1, 1])) == 1.0
        and cramers_v(x, np.array([0, 1, 0, 1])) == 0.0
        and eta_squared(x, np.array([3.0, 5.0, 3.0, 5.0])) == 0.0
        and eta_squared(x, np.array([1.0, 1.0, 2.0, 2.0])) == 1.0
    )

    rng = np.random.Generator(np.random.PCG64(606))
    in_range = True
    for _ in range(5000):
        n = int(rng.integers(4, 40))
        a = rng.integers(0, 3, n)
        b = rng.integers(0, 2, n)
        a[0], a[1], b[0], b[1] = 0, 1, 0, 1
        v = cramers_v(a, b)
        in_range = in_range and 0.0 <= v <= 1.0
    for _ in range(5000):
        n = int(rng.integers(4, 40))
        g = rng.integers(0, 4, n)
        g[0], g[1] = 0, 1
        e = eta_squared(g, rng.normal(size=n))
        in_range = in_range and 0.0 <= e <= 1.0

    verdict(
        "C6", "effect size boundaries and range",
        exact and in_range,
        "four boundary identities exact, 10000 random instances in [0,1]",
    )


def test_c7_cpt_function_identities():
    steep = CptParams(alpha=0.20, beta=0.77, lam=0.71, gamma=2.00, eta=0.20)
    ident = CptParams(alpha=1.0, beta=1.0, lam=1.0, gamma=1.0, eta=1.0)

    grid = np.linspace(0.01, 0.99, 99)
    sup_identity = float(np.max(np.abs(weight_array(grid, ident) - grid)))
    e_inv = float(np.exp(-1.0))
    w_one, w_e_inv = weight_array(np.array([1.0, e_inv]), steep)
    v_zero, v_one, v_minus_one = value_array(np.array([0.0, 1.0, -1.0]), steep)
    identities = (
        w_one == 1.0
        and abs(w_e_inv - e_inv) < 1e-12
        and sup_identity < 1e-12
        and v_zero == 0.0
        and v_one == 1.0
        and v_minus_one == -steep.lam
    )

    vc = sample_value_curve(steep)
    wc = sample_weight_curve(steep)
    monotone = bool(np.all(np.diff(vc[:, 1]) > 0.0) and np.all(np.diff(wc[:, 1]) > 0.0))
    below = wc[:, 0] < e_inv
    under_diagonal = bool(np.all(wc[below, 1] < wc[below, 0]))

    verdict(
        "C7", "value and weighting identities",
        identities and monotone and under_diagonal,
        f"identity sup-norm {sup_identity:.2e}; curves monotone; "
        f"w(p) < p on all {int(below.sum())} grid points below 1/e",
    )


def test_c8_restart_protocol_and_eta_recovery():
    true = CptParams(alpha=0.65, beta=0.75, lam=1.8, gamma=0.9, eta=0.3)
    arrays = simulate_cpt(true, 50_000, 31)
    fit = fit_cpt(arrays, n_restarts=20, seed=7)

    best_of = all(fit.log_likelihood >= r.log_likelihood for r in fit.restart_log)
    gmax = fit.gamma_max
    starts_ok = all(
        0.0 < r.start[0] <= 1.0 and 0.0 < r.start[1] <= 1.0 and r.start[2] > 0.0
        and 0.0 < r.start[3] <= gmax and r.start[4] > 0.0
        for r in fit.restart_log
    )
    p = fit.params
    final_ok = (
        0.0 < p.alpha <= 1.0 and 0.0 < p.beta <= 1.0 and p.lam > 0.0
        and 0.0 < p.gamma <= gmax and p.eta > 0.0
    )

    se_eta = fit.std_errors[4]
    identified = not fit.information_singular and se_eta is not None
    dev = abs(p.eta - true.eta) / se_eta if identified else float("inf")

    verdict(
        "C8", "restart protocol and eta recovery",
        best_of and starts_ok and final_ok and identified and dev < 3.0,
        f"best-of-20 holds; bounds respected; |eta-true|/SE = {dev:.2f} at n=50000",
    )


def test_c9_end_to_end_determinism(default_run, tmp_path):
    out1, report, elapsed = default_run
    out2 = tmp_path / "rerun"
    run_experiment(ExperimentConfig(), out2)

    mismatched = [
        name for name in report["manifest"]
        if (out1 / name).read_bytes() != (out2 / name).read_bytes()
    ]
    ok = not mismatched and elapsed < 60.0
    verdict(
        "C9", "end-to-end determinism",
        ok,
        f"{len(report['manifest'])} output files byte-identical across reruns; "
        f"first run {elapsed:.2f}s" + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
