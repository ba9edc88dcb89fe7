"""Command-line interface.

Subcommands: ``generate`` (synthetic dataset), ``fit`` (one model on a
dataset CSV), ``evaluate`` (a fitted-model JSON against a dataset), and
``experiment`` (the full pipeline). All diagnostics go to stderr; data goes
to files under --out (default from the RISKCHOICE_OUT environment variable,
falling back to the working directory).

Exit codes: 0 success, 1 usage or configuration problem, 2 malformed input
data, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .cpt import CptParams, PARAM_NAMES, choice_prob_array, fit_cpt
from .errors import (
    ConfigError,
    DataParseError,
    InputError,
    NumericalError,
    UndefinedMetricError,
    UsageError,
)
from .evaluation import accuracy, auc
from .features import RAW_NAMES, SYMBOLIC_NAMES, design_matrix
from .glm import fit_logistic, sigmoid
from .pipeline import ExperimentConfig, run_experiment
from .scenario import (
    GeneratorConfig,
    generate_dataset,
    read_dataset_csv,
    write_dataset_csv,
    write_metadata,
)

log = logging.getLogger(__name__)

MODEL_CHOICES = ("symbolic", "blackbox", "cpt")


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as an exception instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _out_dir(args) -> Path:
    out = args.out if args.out is not None else os.environ.get("RISKCHOICE_OUT", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_true_coeffs(text: str) -> tuple[float, ...]:
    try:
        coeffs = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--true-coeffs must be comma-separated numbers, got {text!r}")
    if len(coeffs) != 5:
        raise UsageError(f"--true-coeffs needs exactly 5 values, got {len(coeffs)}")
    return coeffs


def cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        n=args.n,
        seed=args.seed,
        true_coeffs=_parse_true_coeffs(args.true_coeffs)
        if args.true_coeffs
        else GeneratorConfig().true_coeffs,
    )
    out = _out_dir(args)
    csv_path = out / "dataset.csv"
    write_dataset_csv(generate_dataset(cfg), csv_path)
    meta_path = write_metadata(cfg, csv_path)
    log.info("wrote %s and %s", csv_path, meta_path)
    return 0


def _print_coeff_table(names, coeffs, std_errors) -> None:
    width = max(len(n) for n in names)
    print(f"{'feature':<{width}}  {'coeff':>12}  {'std_err':>12}")
    for i, name in enumerate(names):
        se = "-" if std_errors is None else f"{std_errors[i]:>12.6f}"
        print(f"{name:<{width}}  {coeffs[i]:>12.6f}  {se}")


def _print_cpt_table(fit) -> None:
    print(f"{'param':<8}  {'estimate':>12}  {'std_err':>12}")
    for name, est, se in zip(PARAM_NAMES, fit.params.as_tuple(), fit.std_errors):
        se_s = "undefined" if se is None else f"{se:.6f}"
        print(f"{name:<8}  {est:>12.6f}  {se_s:>12}")
    print(f"log-likelihood: {fit.log_likelihood:.6f} over {fit.n_obs} choices")


def cmd_fit(args) -> int:
    arrays = read_dataset_csv(args.dataset)
    out = _out_dir(args)

    if args.model in ("symbolic", "blackbox"):
        names = SYMBOLIC_NAMES if args.model == "symbolic" else RAW_NAMES
        X = design_matrix(arrays, names)
        fit = fit_logistic(
            X,
            arrays.choice,
            args.l2,
            feature_names=names,
            standardize=(args.model == "blackbox" and args.standardize_blackbox),
        )
        if not fit.converged:
            for note in fit.diagnostics:
                log.warning("%s", note)
        doc = {"model": args.model, **fit.to_json_dict()}
        _print_coeff_table(fit.feature_names, fit.coeffs, fit.std_errors)
    else:
        fit = fit_cpt(
            arrays,
            n_restarts=args.restarts,
            seed=args.cpt_seed,
            gamma_max=args.gamma_max,
        )
        doc = {"model": "cpt", **fit.to_json_dict()}
        _print_cpt_table(fit)

    path = out / f"{args.model}_model.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="ascii")
    log.info("wrote %s", path)
    return 0


def _probs_from_model_doc(doc: dict, arrays) -> np.ndarray:
    kind = doc.get("model")
    if kind in ("symbolic", "blackbox"):
        try:
            features = doc["features"]
            coeffs = np.asarray(doc["coeffs"], dtype=float)
        except KeyError as exc:
            raise DataParseError(f"model JSON missing key {exc}") from exc
        if len(features) != coeffs.shape[0]:
            raise DataParseError("model JSON features and coeffs lengths differ")
        if not np.all(np.isfinite(coeffs)):
            raise DataParseError("model JSON coeffs must all be finite")
        return sigmoid(design_matrix(arrays, features) @ coeffs)
    if kind == "cpt":
        try:
            params = CptParams(
                alpha=doc["alpha"],
                beta=doc["beta"],
                lam=doc["lambda"],
                gamma=doc["gamma"],
                eta=doc["eta"],
            )
        except KeyError as exc:
            raise DataParseError(f"model JSON missing key {exc}") from exc
        return choice_prob_array(arrays, params)
    raise DataParseError(f"model JSON has unknown model kind {kind!r}")


def cmd_evaluate(args) -> int:
    model_path = Path(args.model_json)
    if not model_path.exists():
        raise DataParseError(f"model file not found: {model_path}")
    try:
        doc = json.loads(model_path.read_text(encoding="ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise DataParseError(f"model JSON unreadable: {exc}") from exc

    arrays = read_dataset_csv(args.dataset)
    probs = _probs_from_model_doc(doc, arrays)

    acc = accuracy(probs, arrays.choice)
    try:
        auc_value = auc(probs, arrays.choice)
    except UndefinedMetricError as exc:
        log.warning("%s", exc)
        auc_value = None

    out = _out_dir(args)
    metrics = {"accuracy": acc, "auc": auc_value, "n_test": len(arrays)}
    path = out / "metrics.json"
    path.write_text(json.dumps(metrics, indent=2) + "\n", encoding="ascii")
    print(json.dumps(metrics, indent=2))
    log.info("wrote %s", path)
    return 0


def _experiment_config(args) -> ExperimentConfig:
    doc: dict = {}
    if args.config is not None:
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise ConfigError(f"config file not found: {cfg_path}")
        try:
            doc = json.loads(cfg_path.read_text(encoding="ascii"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file unreadable: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")

    def set_gen(key, value):
        doc.setdefault("generator", {})[key] = value

    def set_cpt(key, value):
        doc.setdefault("cpt", {})[key] = value

    if args.n is not None:
        set_gen("n", args.n)
    if args.seed is not None:
        set_gen("seed", args.seed)
    if args.true_coeffs is not None:
        set_gen("true_coeffs", list(_parse_true_coeffs(args.true_coeffs)))
    if args.split_seed is not None:
        doc["split_seed"] = args.split_seed
    if args.train_frac is not None:
        doc["train_frac"] = args.train_frac
    if args.tau_v is not None:
        doc["tau_v"] = args.tau_v
    if args.tau_eta is not None:
        doc["tau_eta"] = args.tau_eta
    if args.l2 is not None:
        doc["l2"] = args.l2
    if args.restarts is not None:
        set_cpt("n_restarts", args.restarts)
    if args.cpt_seed is not None:
        set_cpt("seed", args.cpt_seed)
    if args.gamma_max is not None:
        set_cpt("gamma_max", args.gamma_max)
    if args.select_on_full:
        doc["select_on_full"] = True
    if args.standardize_blackbox:
        doc["standardize_blackbox"] = True
    if args.no_svg:
        doc["emit_svg"] = False
    return ExperimentConfig.from_json_dict(doc)


def cmd_experiment(args) -> int:
    cfg = _experiment_config(args)
    out = _out_dir(args)
    report = run_experiment(cfg, out)
    for key in ("symbolic", "blackbox", "cpt"):
        m = report.metrics[key]
        auc_s = "undefined" if m.auc is None else f"{m.auc:.4f}"
        log.info("%s: accuracy=%.4f auc=%s", m.model_name, m.accuracy, auc_s)
    log.info("wrote %d files to %s", len(report.manifest) + 1, out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="riskchoice",
        description="Synthetic risky-choice experiments: generate data, fit "
        "symbolic / raw-feature logistic and prospect-theoretic models, "
        "and score them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset CSV")
    p_gen.add_argument("--n", type=int, default=5000, help="number of scenarios")
    p_gen.add_argument("--seed", type=int, default=42, help="generator seed")
    p_gen.add_argument(
        "--true-coeffs",
        type=str,
        default=None,
        help="comma-separated latent-utility coefficients (5 values)",
    )
    p_gen.add_argument("--out", type=str, default=None, help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    p_fit = sub.add_parser("fit", help="fit one model to a dataset CSV")
    p_fit.add_argument("model", choices=MODEL_CHOICES)
    p_fit.add_argument("dataset", help="path to a dataset CSV")
    p_fit.add_argument("--l2", type=float, default=0.0, help="L2 penalty strength")
    p_fit.add_argument(
        "--standardize-blackbox",
        action="store_true",
        help="standardize raw columns before the blackbox fit",
    )
    p_fit.add_argument("--restarts", type=int, default=20, help="cpt restarts")
    p_fit.add_argument("--cpt-seed", type=int, default=7, help="cpt restart seed")
    p_fit.add_argument(
        "--gamma-max", type=float, default=5.0, help="upper bound for gamma"
    )
    p_fit.add_argument("--out", type=str, default=None, help="output directory")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("evaluate", help="score a fitted model on a dataset")
    p_eval.add_argument("model_json", help="path to a fitted-model JSON")
    p_eval.add_argument("dataset", help="path to a dataset CSV")
    p_eval.add_argument("--out", type=str, default=None, help="output directory")
    p_eval.set_defaults(func=cmd_evaluate)

    p_exp = sub.add_parser("experiment", help="run the full pipeline")
    p_exp.add_argument("--config", type=str, default=None, help="JSON config file")
    p_exp.add_argument("--n", type=int, default=None)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--true-coeffs", type=str, default=None)
    p_exp.add_argument("--split-seed", type=int, default=None)
    p_exp.add_argument("--train-frac", type=float, default=None)
    p_exp.add_argument("--tau-v", type=float, default=None)
    p_exp.add_argument("--tau-eta", type=float, default=None)
    p_exp.add_argument("--l2", type=float, default=None)
    p_exp.add_argument("--restarts", type=int, default=None)
    p_exp.add_argument("--cpt-seed", type=int, default=None)
    p_exp.add_argument("--gamma-max", type=float, default=None)
    p_exp.add_argument("--select-on-full", action="store_true")
    p_exp.add_argument("--standardize-blackbox", action="store_true")
    p_exp.add_argument("--no-svg", action="store_true")
    p_exp.add_argument("--out", type=str, default=None, help="output directory")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
