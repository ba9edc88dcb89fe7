"""Repeated-sampling coverage of the 95% Wald intervals the package reports.

One dataset cannot tell a calibrated standard error from one twice too wide,
so each case draws ``REPS`` datasets from known parameters with fixed seeds,
fits each, and counts how often estimate +/- 1.96 SE covers the truth. The
count pooled over the case's parameters and datasets must lie in the
two-sided 99.9% band of Binomial(parameters x REPS, 0.95): for 5 parameters
and 200 datasets, 926 to 971 hits. SEs scaled by 0.7 cover about 83% of the
time and SEs scaled by 1.5 about 99.7%, so both fall outside the band. The
seeds are fixed, so the test is deterministic; the band says how far a
correct SE's count may stray.
"""

import numpy as np
import pytest
from scipy.stats import binom
from test_acceptance import simulate_cpt

from riskchoice import (
    DEFAULT_TRUE_COEFFS,
    CptParams,
    GeneratorConfig,
    design_matrix,
    fit_cpt,
    fit_logistic,
    generate_dataset,
)
from riskchoice.features import SYMBOLIC_NAMES

REPS = 200
Z95 = 1.959963984540054
CPT_TRUTH = CptParams(alpha=0.65, beta=0.75, lam=1.8, gamma=0.9, eta=0.3)


def coverage(simulate, fit, truth, reps):
    """Per parameter, the number of the ``reps`` datasets ``simulate(seed)``,
    seed 0 to reps - 1, whose fitted interval covers ``truth``; ``fit(data)``
    returns the estimates and their standard errors."""
    truth = np.asarray(truth, dtype=float)
    hits = np.zeros(truth.shape, dtype=int)
    for seed in range(reps):
        estimates, std_errors = fit(simulate(seed))
        hits += np.abs(np.asarray(estimates) - truth) <= Z95 * np.asarray(std_errors, dtype=float)
    return hits


def logistic_case(n):
    def simulate(seed):
        return generate_dataset(GeneratorConfig(n=n, seed=seed))

    def fit(data):
        model = fit_logistic(design_matrix(data, SYMBOLIC_NAMES), data.choice)
        return model.coeffs, model.std_errors

    return simulate, fit, DEFAULT_TRUE_COEFFS


def cpt_case(n):
    def simulate(seed):
        return simulate_cpt(CPT_TRUTH, n, seed)

    def fit(data):
        model = fit_cpt(data, n_restarts=4, seed=7)
        return model.params.as_tuple(), model.std_errors

    return simulate, fit, CPT_TRUTH.as_tuple()


@pytest.mark.parametrize(
    "case, n",
    [(logistic_case, 1000), (logistic_case, 5000), (cpt_case, 1000), (cpt_case, 5000)],
    ids=["logistic-1000", "logistic-5000", "cpt-mixed-1000", "cpt-mixed-5000"],
)
def test_wald_intervals_cover_at_the_nominal_rate(case, n):
    simulate, fit, truth = case(n)
    hits = coverage(simulate, fit, truth, REPS)
    trials = hits.size * REPS
    low, high = binom.ppf([0.0005, 0.9995], trials, 0.95)
    print(f"hits {hits.tolist()} of {REPS} each; pooled {hits.sum()} in [{low:.0f}, {high:.0f}]")
    assert low <= hits.sum() <= high
