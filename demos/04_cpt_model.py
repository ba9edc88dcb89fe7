"""Fit the prospect-theoretic choice model and inspect what it learned."""

import numpy as np

from riskchoice import (
    CptParams,
    GeneratorConfig,
    choice_prob_array,
    fit_cpt,
    generate_dataset,
    sample_value_curve,
    sample_weight_curve,
)
from riskchoice.scenario import ScenarioArrays

# simulate from known parameters with both gain and loss payoffs on the
# table, so the loss-side parameters (beta, lambda) are identified
true = CptParams(alpha=0.65, beta=0.75, lam=1.8, gamma=0.9, eta=0.3)
rng = np.random.Generator(np.random.PCG64(5))
n = 4000
safe = rng.uniform(-50.0, 100.0, n)
risky = rng.uniform(-100.0, 150.0, n)
p = rng.uniform(0.1, 0.9, n)
frame = rng.integers(0, 2, n) * 2 - 1
shell = ScenarioArrays(
    id=np.arange(n), safe=safe, risky=risky, p=p, frame=frame,
    choice=np.zeros(n, dtype=np.int64),
)
choice = (rng.random(n) < choice_prob_array(shell, true)).astype(np.int64)
data = ScenarioArrays(id=shell.id, safe=safe, risky=risky, p=p, frame=frame, choice=choice)

fit = fit_cpt(data, n_restarts=10, seed=7)
print(f"log-likelihood {fit.log_likelihood:.2f} over {fit.n_obs} observations")
print(f"{'param':<7} {'true':>6} {'fitted':>8} {'SE':>8}")
for name, t, est, se in zip(
    ("alpha", "beta", "lambda", "gamma", "eta"),
    true.as_tuple(), fit.params.as_tuple(), fit.std_errors,
):
    se_txt = "   none" if se is None else f"{se:7.4f}"
    print(f"{name:<7} {t:6.2f} {est:8.4f}  {se_txt}")

lls = [r.log_likelihood for r in fit.restart_log]
print(f"\nrestarts: best {max(lls):.2f}, worst {min(lls):.2f}, spread {max(lls) - min(lls):.2f}")

# value curve curvature and the weighting distortion, tabulated for plotting
vc = sample_value_curve(fit.params)
wc = sample_weight_curve(fit.params)
print("\nvalue at x = -50, 0, 50, 100:")
for x_target in (-50.0, 0.0, 50.0, 100.0):
    idx = int(np.argmin(np.abs(vc[:, 0] - x_target)))
    print(f"  v({vc[idx, 0]:6.1f}) = {vc[idx, 1]:8.3f}")
print("weight at p = 0.05, 0.25, 0.50, 0.75, 0.95:")
for p_target in (0.05, 0.25, 0.50, 0.75, 0.95):
    idx = int(np.argmin(np.abs(wc[:, 0] - p_target)))
    print(f"  w({wc[idx, 0]:.2f}) = {wc[idx, 1]:.4f}")

# gain-only data, like the default generator produces, pushes the optimum
# onto a boundary ridge where most parameters carry no information; the fit
# reports that instead of inventing SEs
gain_only = generate_dataset(GeneratorConfig(n=2000, seed=6))
weak = fit_cpt(gain_only, n_restarts=5, seed=7)
print(f"\ngain-only refit: information_singular={weak.information_singular}")
print("SEs:", ["none" if s is None else round(s, 4) for s in weak.std_errors])
