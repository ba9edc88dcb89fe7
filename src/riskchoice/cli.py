"""Command-line interface.

Subcommands: ``generate`` (synthetic dataset), ``fit`` (one model family on
a dataset CSV, fit and saved as ``experiment`` fits and saves it, and
printed through one table), ``evaluate`` (a fitted-model JSON against a
dataset), and ``experiment`` (the full pipeline). Every family is reached
through its ``pipeline.MODELS`` record. All diagnostics go to stderr; data
goes to files under --out (default from the RISKCHOICE_OUT environment
variable, falling back to the working directory).

Exit codes: 0 success, 1 usage or configuration problem, 2 malformed input
data, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .errors import ConfigError, DataParseError, InputError, NumericalError, UsageError
from .pipeline import (
    MODEL_KEYS,
    MODELS,
    ExperimentConfig,
    config_fields,
    evaluate_predictions,
    model_doc,
    model_probs,
    run_experiment,
)
from .scenario import (
    generate_dataset,
    json_text,
    read_dataset_csv,
    read_json,
    write_dataset_csv,
    write_metadata,
)

log = logging.getLogger(__name__)

# Flags spelled differently from their config field's name; every other
# config field ``a.b_c`` is the flag ``--b-c`` (``--no-b-c`` when it
# defaults to true).
_FLAG_NAMES = {
    ("cpt", "n_restarts"): "--restarts",
    ("cpt", "seed"): "--cpt-seed",
    ("emit_svg",): "--no-svg",
}

# The config fields and sections that ``fit`` takes flags for.
_FIT_FIELDS = ("tau_v", "tau_eta", "l2", "cpt")


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as an exception instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _out_dir(args) -> Path:
    out = args.out if args.out is not None else os.environ.get("RISKCHOICE_OUT", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _numbers(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {text!r}")


def _add_config_flags(parser, wanted) -> None:
    """Add a flag for each config field whose path satisfies ``wanted``."""
    for path, default in config_fields():
        if not wanted(path):
            continue
        name = path[-1].replace("_", "-")
        flag = _FLAG_NAMES.get(path, f"--no-{name}" if default is True else f"--{name}")
        dest = ".".join(path)
        if isinstance(default, bool):
            how = {"action": "store_const", "const": not default}
        else:
            how = {"type": _numbers if isinstance(default, tuple) else type(default)}
        parser.add_argument(flag, dest=dest, help=f"config {dest}, default {default!r}", **how)


def _config(args, doc: dict) -> ExperimentConfig:
    """The validated config: ``doc`` with every given config flag set in it."""
    for path, _ in config_fields():
        value = getattr(args, ".".join(path), None)
        if value is None:
            continue
        section = doc
        for key in path[:-1]:
            section = section.setdefault(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"{key} must be an object")
        section[path[-1]] = value
    return ExperimentConfig.from_json_dict(doc)


def cmd_generate(args) -> int:
    cfg = _config(args, {}).generator
    out = _out_dir(args)
    csv_path = out / "dataset.csv"
    write_dataset_csv(generate_dataset(cfg), csv_path)
    meta_path = write_metadata(cfg, csv_path)
    log.info("wrote %s and %s", csv_path, meta_path)
    return 0


def _print_table(rows, log_likelihood: float, n: int) -> None:
    """Print a fit's (name, estimate, SE or None) rows and its log-likelihood."""
    # no family's parameter name is longer than the header's 9 characters
    print(f"{'parameter':<9}  {'estimate':>12}  {'std_err':>12}")
    for name, est, se in rows:
        se_s = "undefined" if se is None else f"{se:.6f}"
        print(f"{name:<9}  {est:>12.6f}  {se_s:>12}")
    print(f"log-likelihood: {log_likelihood:.6f} over {n} choices")


def cmd_fit(args) -> int:
    cfg = _config(args, {})
    arrays = read_dataset_csv(args.dataset)
    out = _out_dir(args)

    family = MODELS[args.model]
    fit = family.fit(arrays, cfg)
    _print_table(family.rows(fit), fit.log_likelihood, len(arrays))

    path = out / f"{args.model}_model.json"
    path.write_text(json_text(model_doc(args.model, fit)), encoding="ascii")
    log.info("wrote %s", path)
    return 0


def cmd_evaluate(args) -> int:
    doc = read_json(args.model_json, DataParseError, "model file")
    arrays = read_dataset_csv(args.dataset)
    probs = model_probs(doc, arrays)  # checks the document first
    m = evaluate_predictions(doc["model"], probs, arrays.choice)

    out = _out_dir(args)
    metrics = {k: m[k] for k in ("accuracy", "auc", "n_test")}
    path = out / "metrics.json"
    text = json_text(metrics)
    path.write_text(text, encoding="ascii")
    print(text, end="")
    log.info("wrote %s", path)
    return 0


def cmd_experiment(args) -> int:
    doc = {}
    if args.config is not None:
        doc = read_json(args.config, ConfigError, "config file")
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
    cfg = _config(args, doc)
    out = _out_dir(args)
    report = run_experiment(cfg, out)
    for key in MODEL_KEYS:
        m = report["models"][key]["metrics"]
        auc_s = "undefined" if m["auc"] is None else f"{m['auc']:.4f}"
        log.info("%s: accuracy=%.4f auc=%s", m["model"], m["accuracy"], auc_s)
    log.info("wrote %d files to %s", len(report["manifest"]) + 1, out)
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
    _add_config_flags(p_gen, lambda path: path[0] == "generator")
    p_gen.add_argument("--out", type=str, default=None, help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    p_fit = sub.add_parser("fit", help="fit one model to a dataset CSV")
    p_fit.add_argument("model", choices=MODEL_KEYS)
    p_fit.add_argument("dataset", help="path to a dataset CSV")
    _add_config_flags(p_fit, lambda path: path[0] in _FIT_FIELDS)
    p_fit.add_argument("--out", type=str, default=None, help="output directory")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("evaluate", help="score a fitted model on a dataset")
    p_eval.add_argument("model_json", help="path to a fitted-model JSON")
    p_eval.add_argument("dataset", help="path to a dataset CSV")
    p_eval.add_argument("--out", type=str, default=None, help="output directory")
    p_eval.set_defaults(func=cmd_evaluate)

    p_exp = sub.add_parser("experiment", help="run the full pipeline")
    p_exp.add_argument("--config", type=str, default=None, help="JSON config file")
    _add_config_flags(p_exp, lambda path: True)
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
    except (InputError, OSError) as exc:  # DataParseError is an InputError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
