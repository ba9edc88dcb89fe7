"""The three benchmark workloads.

Each workload builds its inputs from a dataset seed outside the timed region
(``inputs``), runs one closed-loop iteration (``run``, the timed region), and
then checks and summarizes that iteration's outputs (``summarize``, untimed).
``trace_targets`` names the public functions whose calls the traced run wraps
in spans: the names the workload's caller (the benchmark, ``cli`` or
``pipeline``) looks up, so each span sits at a layer boundary.

Why these three (see bench/README.md for more):

* ``experiment-5k`` is the paper's Table-1 run as users start it, on the
  default dataset. The Nelder-Mead CPT fit is most of its time; the data is
  gain-only, so the CPT optimum sits on the alpha bound with beta and lambda
  unidentified.
* ``datapath-1m`` pushes a million rows through generation, CSV write and
  read, split, screening and both IRLS fits, and never calls the CPT layer.
* ``cpt-mixed-20k`` fits CPT to mixed-sign data where all five parameters are
  identified at an interior optimum; the scenario and glm layers are bypassed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from riskchoice import cli, cpt, evaluation, features, glm, pipeline, scenario
from riskchoice.cpt import CptParams
from riskchoice.features import RAW_NAMES, SYMBOLIC_NAMES
from riskchoice.scenario import DEFAULT_TRUE_COEFFS, GeneratorConfig, ScenarioArrays

# The dataset seed of the paper's Table-1 run: the CLI default, and the run
# acceptance check C2 is stated for. On other gain-only datasets the CPT fit
# fails about 1% of the time (see bench/README.md), so experiment-5k runs
# this dataset whatever the benchmark seed.
TABLE1_SEED = GeneratorConfig().seed
# Acceptance check C2's brackets for the symbolic model on the Table-1 run.
C2_ACCURACY = (0.75, 0.85)
C2_AUC = (0.78, 0.88)
# Coefficient recovery at 800k training rows. Five coefficients at 3 SE
# would fail about 1.3% of correct runs; at 5 SE about 3 in a million.
RECOVERY_SE = 5.0
# Restarts whose log-likelihood is this close (relative) to the best count as
# having found it.
AT_BEST_RTOL = 1e-6
# Generating parameters of the mixed-sign CPT data, as in the acceptance
# suite's simulate_cpt; also the parameters at which the likelihood kernel is
# timed on datapath-1m, which fits no CPT model.
CPT_TRUTH = CptParams(alpha=0.65, beta=0.75, lam=1.8, gamma=0.9, eta=0.3)


@dataclass
class Summary:
    """What one iteration produced, reduced to plain values."""

    problems: list[str]
    counts: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    # returns (params, training arrays) for timing the CPT likelihood
    loglik_probe: Callable | None = None


def columns(data) -> ScenarioArrays:
    """Columnar view of a dataset, whether the program returned rows or columns."""
    return data if hasattr(data, "safe") else scenario.as_arrays(data)


def reference_csv(cols: ScenarioArrays) -> bytes:
    """The dataset CSV as format(x, ".17g") renders each float."""
    lines = ["id,safe,risky,p,frame,choice"]
    lines.extend(
        f"{i},{s:.17g},{r:.17g},{p:.17g},{f},{c}"
        for i, s, r, p, f, c in zip(
            cols.id.tolist(), cols.safe.tolist(), cols.risky.tolist(),
            cols.p.tolist(), cols.frame.tolist(), cols.choice.tolist(),
        )
    )
    return ("\n".join(lines) + "\n").encode("ascii")


def _fit_span_name(args, kwargs) -> str:
    names = kwargs.get("feature_names")
    if names is not None and tuple(names) == RAW_NAMES:
        return "glm.fit_blackbox"
    return "glm.fit_symbolic"


def _restart_stats(log_likelihoods, converged) -> dict[str, float]:
    best = max(log_likelihoods)
    at_best = sum(abs(ll - best) <= AT_BEST_RTOL * abs(best) for ll in log_likelihoods)
    return {
        "cpt.restarts_converged_frac": sum(converged) / len(converged),
        "cpt.restarts_at_best_frac": at_best / len(log_likelihoods),
    }


class Workload:
    def dataset_seed(self, seed: int, k: int) -> int:
        """Seed of the k-th dataset of a run; the first is the benchmark seed itself."""
        return seed + 1_000_000 * k


class Experiment(Workload):
    name = "experiment-5k"

    def __init__(self, tiny: bool):
        self.rows = 5000
        self.extra = ["--restarts", "2"] if tiny else []

    def dataset_seed(self, seed: int, k: int) -> int:
        return TABLE1_SEED

    def inputs(self, data_seed: int) -> list[str]:
        return ["experiment", "--n", str(self.rows), "--seed", str(data_seed), *self.extra]

    def run(self, argv: list[str], workdir: Path):
        out = workdir / "run"
        return cli.main([*argv, "--out", str(out)]), out

    def trace_targets(self):
        return [
            (cli, "main", "cli.main"),
            (cli, "run_experiment", "pipeline.run_experiment"),
            (pipeline, "generate_dataset", "scenario.generate_dataset"),
            (pipeline, "write_dataset_csv", "scenario.write_dataset_csv"),
            (pipeline, "write_metadata", "scenario.write_metadata"),
            (pipeline, "as_arrays", "scenario.as_arrays"),
            (pipeline, "split", "evaluation.split"),
            (pipeline, "evaluate_predictions", "evaluation.evaluate_predictions"),
            (pipeline, "accuracy", "evaluation.accuracy"),
            (pipeline, "select_features", "features.select_features"),
            (pipeline, "design_matrix", "features.design_matrix"),
            (pipeline, "fit_logistic", _fit_span_name),
            (pipeline, "sigmoid", "glm.sigmoid"),
            (glm.FittedLogistic, "predict", "glm.predict"),
            (pipeline.cpt_mod, "fit_cpt", "cpt.fit_cpt"),
            (pipeline.cpt_mod, "choice_prob_array", "cpt.choice_prob_array"),
            (pipeline.cpt_mod, "sample_value_curve", "cpt.sample_value_curve"),
            (pipeline.cpt_mod, "sample_weight_curve", "cpt.sample_weight_curve"),
            (pipeline, "svg_line_chart", "charts.svg_line_chart"),
        ]

    def summarize(self, argv, result) -> Summary:
        code, out = result
        path = out / "report.json"
        report = json.loads(path.read_text(encoding="ascii")) if path.is_file() else {}
        if code != 0 or report.get("partial"):
            return Summary([
                f"riskchoice experiment exited with code {code}; report.json partial: "
                f"{report.get('partial')}, failed stage {report.get('failed_stage')}: "
                f"{report.get('error')}"
            ])
        problems = [
            f"manifest file missing: {n}" for n in report["manifest"] if not (out / n).is_file()
        ]

        sym = report["models"]["symbolic"]
        acc, auc = sym["metrics"]["accuracy"], sym["metrics"]["auc"]
        for what, value, (lo, hi) in (("accuracy", acc, C2_ACCURACY), ("AUC", auc, C2_AUC)):
            if value is None or not lo <= value <= hi:
                problems.append(f"symbolic {what} {value} outside the C2 bracket [{lo}, {hi}]")

        fit = report["models"]["cpt"]["fit"]
        restarts = fit["restarts"]
        counts = {
            "scenario.csv_bytes": (out / "dataset.csv").stat().st_size,
            "glm.irls_iters_symbolic": sym["fit"]["iterations"],
            "glm.irls_iters_blackbox": report["models"]["blackbox"]["fit"]["iterations"],
            "cpt.evals": sum(r["n_evals"] for r in restarts),
            "cpt.identified_params": sum(se is not None for se in fit["std_errors"].values()),
            **_restart_stats(
                [r["log_likelihood"] for r in restarts], [r["converged"] for r in restarts]
            ),
        }
        nll = -fit["log_likelihood"] / fit["n_obs"]
        auc_cpt = report["models"]["cpt"]["metrics"]["auc"]
        params = CptParams(
            alpha=fit["alpha"], beta=fit["beta"], lam=fit["lambda"],
            gamma=fit["gamma"], eta=fit["eta"],
        )
        data_seed = int(argv[argv.index("--seed") + 1])
        return Summary(
            problems,
            counts,
            quality={"fit_nll": nll, "heldout_auc": auc},
            notes=[
                f"cpt_nll {nll:.6f} nats/row, auc_symbolic {auc:.4f}, auc_cpt {auc_cpt:.4f}, "
                f"symbolic accuracy {acc:.4f}"
            ],
            loglik_probe=lambda: self._probe(data_seed, params),
        )

    def _probe(self, data_seed, params):
        # the training side exactly as run_experiment builds it
        data = scenario.generate_dataset(GeneratorConfig(n=self.rows, seed=data_seed))
        train, _ = evaluation.split(data, pipeline.DEFAULT_TRAIN_FRAC, pipeline.DEFAULT_SPLIT_SEED)
        return params, columns(train)


class Datapath(Workload):
    name = "datapath-1m"

    def __init__(self, tiny: bool):
        self.rows = 20_000 if tiny else 1_000_000

    def inputs(self, data_seed: int) -> GeneratorConfig:
        return GeneratorConfig(n=self.rows, seed=data_seed)

    def run(self, cfg: GeneratorConfig, workdir: Path) -> dict:
        path = workdir / "dataset.csv"
        data = scenario.generate_dataset(cfg)
        scenario.write_dataset_csv(data, path)
        back = scenario.read_dataset_csv(path)
        train, test = evaluation.split(
            back, pipeline.DEFAULT_TRAIN_FRAC, pipeline.DEFAULT_SPLIT_SEED
        )
        train, test = scenario.as_arrays(train), scenario.as_arrays(test)
        screening = features.select_features(train)
        out = {"data": data, "back": back, "path": path, "train": train, "screening": screening}
        # The default tolerance bounds the max-norm of a gradient summed over
        # all rows. At 800k rows its rounding noise is about 1e-8 to 5e-7, so on
        # about a third of datasets IRLS runs all 100 Newton steps (40-65 s
        # instead of 1 s) and reports no convergence. The same bound on the
        # mean gradient keeps the workload measurable.
        tol = glm.DEFAULT_TOL * len(train)
        # the symbolic design is the generating one, as in acceptance check
        # C1, so the recovery check below is exact whatever screening keeps
        for role, names in (("symbolic", SYMBOLIC_NAMES), ("blackbox", RAW_NAMES)):
            model = glm.fit_logistic(
                features.design_matrix(train, names), train.choice, feature_names=names, tol=tol
            )
            probs = model.predict(features.design_matrix(test, names))
            out[role] = (
                model,
                evaluation.accuracy(probs, test.choice),
                evaluation.auc(probs, test.choice),
            )
        return out

    def trace_targets(self):
        return [
            (scenario, "generate_dataset", "scenario.generate_dataset"),
            (scenario, "write_dataset_csv", "scenario.write_dataset_csv"),
            (scenario, "read_dataset_csv", "scenario.read_dataset_csv"),
            (scenario, "as_arrays", "scenario.as_arrays"),
            (evaluation, "split", "evaluation.split"),
            (evaluation, "accuracy", "evaluation.accuracy"),
            (evaluation, "auc", "evaluation.auc"),
            (features, "select_features", "features.select_features"),
            (features, "design_matrix", "features.design_matrix"),
            (glm, "fit_logistic", _fit_span_name),
            (glm.FittedLogistic, "predict", "glm.predict"),
        ]

    def summarize(self, cfg, out) -> Summary:
        # columns first, so the row objects are freed before the reference
        # rendering is built and the check stays below the run's peak memory
        written = columns(out.pop("data"))
        back = columns(out.pop("back"))
        problems = [
            f"read-back column {col} differs from the written one"
            for col in ("id", "safe", "risky", "p", "frame", "choice")
            if getattr(written, col).tobytes() != getattr(back, col).tobytes()
        ]
        del back
        csv_bytes = out["path"].stat().st_size
        if out["path"].read_bytes() != reference_csv(written):
            problems.append("CSV bytes differ from the format(x, '.17g') reference rendering")

        model, acc, auc = out["symbolic"]
        blackbox, _, auc_raw = out["blackbox"]
        devs = np.abs(model.coeffs - np.asarray(DEFAULT_TRUE_COEFFS)) / model.std_errors
        if not model.converged or not blackbox.converged:
            problems.append("an IRLS fit did not converge")
        if not np.all(devs < RECOVERY_SE):
            problems.append(
                f"symbolic coefficients {np.round(model.coeffs, 4).tolist()} not within "
                f"{RECOVERY_SE:g} SE of {list(DEFAULT_TRUE_COEFFS)} (max {devs.max():.2f} SE)"
            )
        train = out["train"]
        nll = -model.log_likelihood / len(train)
        retained = ",".join(out["screening"].retained_names())
        return Summary(
            problems,
            counts={
                "scenario.csv_bytes": csv_bytes,
                "glm.irls_iters_symbolic": model.iterations,
                "glm.irls_iters_blackbox": blackbox.iterations,
            },
            quality={"fit_nll": nll, "heldout_auc": auc},
            notes=[
                f"symbolic nll {nll:.6f} nats/row, auc_symbolic {auc:.4f}, auc_blackbox "
                f"{auc_raw:.4f}, accuracy {acc:.4f}, max |coef-true|/SE {devs.max():.2f}; "
                f"screening kept {retained}"
            ],
            loglik_probe=lambda: (CPT_TRUTH, train),
        )


class CptMixed(Workload):
    name = "cpt-mixed-20k"

    def __init__(self, tiny: bool):
        self.rows = 4000 if tiny else 20_000
        self.test_rows = 1000 if tiny else 5000
        self.restarts = 2 if tiny else 4

    def inputs(self, data_seed: int) -> tuple[ScenarioArrays, ScenarioArrays]:
        """Mixed-sign scenarios with choices drawn from CPT_TRUTH, cut into a
        training side and a held-out side."""
        n = self.rows + self.test_rows
        rng = np.random.Generator(np.random.PCG64(data_seed))
        safe = rng.uniform(-50.0, 100.0, n)
        risky = rng.uniform(-100.0, 150.0, n)
        p = rng.uniform(0.1, 0.9, n)
        frame = rng.integers(0, 2, n) * 2 - 1
        ids = np.arange(n)
        shell = ScenarioArrays(
            id=ids, safe=safe, risky=risky, p=p, frame=frame, choice=np.zeros(n, dtype=np.int64)
        )
        choice = (rng.random(n) < cpt.choice_prob_array(shell, CPT_TRUTH)).astype(np.int64)

        def part(rows):
            return ScenarioArrays(
                id=ids[rows], safe=safe[rows], risky=risky[rows], p=p[rows],
                frame=frame[rows], choice=choice[rows],
            )

        return part(slice(0, self.rows)), part(slice(self.rows, n))

    def run(self, data, workdir: Path):
        train, test = data
        fit = cpt.fit_cpt(train, n_restarts=self.restarts, seed=cpt.DEFAULT_FIT_SEED)
        probs = cpt.choice_prob_array(test, fit.params)
        return fit, evaluation.auc(probs, test.choice)

    def trace_targets(self):
        return [
            (cpt, "fit_cpt", "cpt.fit_cpt"),
            (cpt, "choice_prob_array", "cpt.choice_prob_array"),
            (evaluation, "auc", "evaluation.auc"),
        ]

    def summarize(self, data, result) -> Summary:
        train, _ = data
        fit, auc = result
        problems = []
        truth_ll = cpt.cpt_log_likelihood(CPT_TRUTH, train)
        if not fit.log_likelihood >= truth_ll:
            problems.append(
                f"fitted log-likelihood {fit.log_likelihood:.6f} below the truth's {truth_ll:.6f}"
            )
        if any(se is None for se in fit.std_errors):
            problems.append(f"standard errors missing: {fit.std_errors}")
        log = fit.restart_log
        nll = -fit.log_likelihood / fit.n_obs
        return Summary(
            problems,
            counts={
                "cpt.evals": sum(r.n_evals for r in log),
                "cpt.identified_params": sum(se is not None for se in fit.std_errors),
                **_restart_stats([r.log_likelihood for r in log], [r.converged for r in log]),
            },
            quality={"fit_nll": nll, "heldout_auc": auc},
            notes=[
                f"cpt_nll {nll:.6f} nats/row (truth {-truth_ll / fit.n_obs:.6f}), auc_cpt {auc:.4f}"
            ],
            loglik_probe=lambda: (fit.params, train),
        )


WORKLOADS = {w.name: w for w in (Experiment, Datapath, CptMixed)}
