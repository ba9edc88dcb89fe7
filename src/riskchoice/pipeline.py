"""End-to-end experiment: generate, split, select, fit, evaluate, emit.

The pipeline writes every artifact with fixed float formatting and no
timestamps, so a rerun with the same configuration produces byte-identical
files. If a stage fails, a partial report naming the failed stage and the
files emitted so far is still written before the error propagates.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import cpt as cpt_mod
from .charts import svg_line_chart
from .errors import ConfigError, UndefinedMetricError
from .evaluation import (
    INTERPRETABILITY,
    MODEL_LABELS,
    EvalMetrics,
    accuracy,
    evaluate_predictions,
    split,
)
from .features import (
    DEFAULT_TAU_ETA,
    DEFAULT_TAU_V,
    RAW_NAMES,
    EffectSizeReport,
    design_matrix,
    select_features,
)
from .glm import FittedLogistic, fit_logistic, sigmoid
from .scenario import (  # noqa: F401  (as_arrays stays importable from here)
    GeneratorConfig,
    as_arrays,
    generate_dataset,
    write_dataset_csv,
    write_metadata,
)

log = logging.getLogger(__name__)

DEFAULT_SPLIT_SEED = 0
DEFAULT_TRAIN_FRAC = 0.8


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class CptSettings:
    """Estimation settings for the parametric choice model."""

    n_restarts: int = cpt_mod.DEFAULT_RESTARTS
    seed: int = cpt_mod.DEFAULT_FIT_SEED
    gamma_max: float = cpt_mod.DEFAULT_GAMMA_MAX

    def __post_init__(self):
        if not isinstance(self.n_restarts, int) or self.n_restarts < 1:
            raise ConfigError(f"cpt n_restarts must be a positive integer, got {self.n_restarts!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"cpt seed must be a nonnegative integer, got {self.seed!r}")
        if not (isinstance(self.gamma_max, (int, float)) and self.gamma_max > 0):
            raise ConfigError(f"gamma_max must be positive, got {self.gamma_max!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully determines one experiment run; echoed into the report."""

    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    train_frac: float = DEFAULT_TRAIN_FRAC
    split_seed: int = DEFAULT_SPLIT_SEED
    tau_v: float = DEFAULT_TAU_V
    tau_eta: float = DEFAULT_TAU_ETA
    l2: float = 0.0
    select_on_full: bool = False
    standardize_blackbox: bool = False
    cpt: CptSettings = field(default_factory=CptSettings)
    emit_svg: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError(f"train_frac must lie strictly in (0, 1), got {self.train_frac!r}")
        if not isinstance(self.split_seed, int) or self.split_seed < 0:
            raise ConfigError(f"split_seed must be a nonnegative integer, got {self.split_seed!r}")
        for name in ("tau_v", "tau_eta", "l2"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be a nonnegative number, got {v!r}")

    def to_json_dict(self) -> dict:
        return {
            "generator": {
                "n": self.generator.n,
                "seed": self.generator.seed,
                "true_coeffs": list(self.generator.true_coeffs),
            },
            "train_frac": self.train_frac,
            "split_seed": self.split_seed,
            "tau_v": self.tau_v,
            "tau_eta": self.tau_eta,
            "l2": self.l2,
            "select_on_full": self.select_on_full,
            "standardize_blackbox": self.standardize_blackbox,
            "cpt": {
                "n_restarts": self.cpt.n_restarts,
                "seed": self.cpt.seed,
                "gamma_max": self.cpt.gamma_max,
            },
            "emit_svg": self.emit_svg,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build a config from its JSON mirror, rejecting unknown keys."""
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(doc)
        if "generator" in kwargs:
            gen = kwargs["generator"]
            if not isinstance(gen, dict):
                raise ConfigError("generator must be an object")
            gen_known = {"n", "seed", "true_coeffs"}
            gen_unknown = set(gen) - gen_known
            if gen_unknown:
                raise ConfigError(f"unknown generator keys: {sorted(gen_unknown)}")
            if "true_coeffs" in gen:
                gen = dict(gen, true_coeffs=tuple(gen["true_coeffs"]))
            kwargs["generator"] = GeneratorConfig(**gen)
        if "cpt" in kwargs:
            cpt_doc = kwargs["cpt"]
            if not isinstance(cpt_doc, dict):
                raise ConfigError("cpt must be an object")
            cpt_known = {"n_restarts", "seed", "gamma_max"}
            cpt_unknown = set(cpt_doc) - cpt_known
            if cpt_unknown:
                raise ConfigError(f"unknown cpt keys: {sorted(cpt_unknown)}")
            kwargs["cpt"] = CptSettings(**cpt_doc)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class ExperimentReport:
    """In-memory result of a pipeline run; the JSON report mirrors it."""

    config: ExperimentConfig
    effect_report: EffectSizeReport
    symbolic: FittedLogistic
    blackbox: FittedLogistic
    cpt_fit: cpt_mod.CptFit
    metrics: dict[str, EvalMetrics]
    reflection: dict
    manifest: list[str]
    out_dir: Path


def _safe_metrics(key: str, probs, y) -> EvalMetrics:
    try:
        return evaluate_predictions(key, probs, y)
    except UndefinedMetricError as exc:
        log.warning("AUC for %s undefined: %s", key, exc)
        return EvalMetrics(
            model_name=MODEL_LABELS[key],
            accuracy=accuracy(probs, y),
            auc=None,
            n_test=int(np.asarray(y).shape[0]),
            interpretability_label=INTERPRETABILITY[key],
        )


def _write_table1(path: Path, rows: list[EvalMetrics]) -> None:
    lines = [
        "# interpretability is a fixed qualitative label per model family, not a computed metric",
        "model,accuracy,auc,interpretability",
    ]
    for m in rows:
        auc_s = "" if m.auc is None else _fmt(m.auc)
        lines.append(f"{m.model_name},{_fmt(m.accuracy)},{auc_s},{m.interpretability_label}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_curve(path: Path, header: tuple[str, str], curve: np.ndarray) -> None:
    lines = [",".join(header)]
    for a, b in curve:
        lines.append(f"{_fmt(a)},{_fmt(b)}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _reflection_rows(model: FittedLogistic, magnitude_median: float) -> dict:
    """Predicted P(risky) against frame with the other features pinned."""
    held = {
        "intercept": 1.0,
        "low_prob": 0.0,
        "magnitude": magnitude_median,
        "dominance": 0.0,
        "certainty": 1.0,
    }
    rows = []
    for frame in (-1.0, 1.0):
        values = np.array(
            [frame if name == "frame" else held[name] for name in model.feature_names]
        )
        rows.append((frame, float(sigmoid(float(values @ model.coeffs)))))
    return {
        "held": {k: held[k] for k in ("low_prob", "magnitude", "dominance")},
        "rows": rows,
    }


def _write_reflection(path: Path, reflection: dict) -> None:
    held = reflection["held"]
    lines = [
        "# predicted risky-choice probability by frame, other features held fixed:",
        f"# low_prob={_fmt(held['low_prob'])}, magnitude={_fmt(held['magnitude'])}, "
        f"dominance={_fmt(held['dominance'])}",
        "frame,p_risky",
    ]
    for frame, p in reflection["rows"]:
        lines.append(f"{int(frame)},{_fmt(p)}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> ExperimentReport:
    """Run the whole pipeline and write all artifacts under ``out_dir``.

    Stages: generate the dataset, split it, screen features on the training
    side (or the full data when ``select_on_full``), fit the symbolic and
    raw-feature logistic models and the parametric choice model on the
    training side, score all three on the test side, and emit the dataset,
    per-model JSONs, the comparison table, curve CSVs (plus SVG renderings
    unless disabled), and a JSON report that echoes the config.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: list[str] = []
    stage = "generate"

    def emit(name: str, text: str) -> None:
        (out / name).write_text(text, encoding="ascii")
        manifest.append(name)

    try:
        data = generate_dataset(cfg.generator)
        write_dataset_csv(data, out / "dataset.csv")
        manifest.append("dataset.csv")
        write_metadata(cfg.generator, out / "dataset.csv")
        manifest.append("dataset.meta.json")

        stage = "split"
        train, test = split(data, cfg.train_frac, cfg.split_seed)

        stage = "select_features"
        selection_base = data if cfg.select_on_full else train
        effect_report = select_features(selection_base, tau_v=cfg.tau_v, tau_eta=cfg.tau_eta)
        retained = effect_report.retained_names()
        emit(
            "effect_sizes.json",
            json.dumps(effect_report.to_json_list(), indent=2) + "\n",
        )

        stage = "fit_symbolic"
        X_sym = design_matrix(train, retained)
        symbolic = fit_logistic(X_sym, train.choice, cfg.l2, feature_names=retained)
        emit(
            "symbolic_model.json",
            json.dumps({"model": "symbolic", **symbolic.to_json_dict()}, indent=2) + "\n",
        )

        stage = "fit_blackbox"
        X_raw = design_matrix(train, RAW_NAMES)
        blackbox = fit_logistic(
            X_raw,
            train.choice,
            cfg.l2,
            feature_names=RAW_NAMES,
            standardize=cfg.standardize_blackbox,
        )
        emit(
            "blackbox_model.json",
            json.dumps({"model": "blackbox", **blackbox.to_json_dict()}, indent=2) + "\n",
        )

        stage = "fit_cpt"
        cpt_fit = cpt_mod.fit_cpt(
            train,
            n_restarts=cfg.cpt.n_restarts,
            seed=cfg.cpt.seed,
            gamma_max=cfg.cpt.gamma_max,
        )
        emit(
            "cpt_model.json",
            json.dumps({"model": "cpt", **cpt_fit.to_json_dict()}, indent=2) + "\n",
        )

        stage = "evaluate"
        y_test = test.choice
        sym_probs = symbolic.predict(design_matrix(test, retained))
        raw_probs = blackbox.predict(design_matrix(test, RAW_NAMES))
        cpt_probs = cpt_mod.choice_prob_array(test, cpt_fit.params)
        metrics = {
            "symbolic": _safe_metrics("symbolic", sym_probs, y_test),
            "blackbox": _safe_metrics("blackbox", raw_probs, y_test),
            "cpt": _safe_metrics("cpt", cpt_probs, y_test),
        }
        _write_table1(out / "table1.csv", [metrics[k] for k in ("symbolic", "blackbox", "cpt")])
        manifest.append("table1.csv")

        stage = "reflection"
        magnitude_median = float(np.median((train.risky - train.safe) / 100.0))
        reflection = _reflection_rows(symbolic, magnitude_median)
        _write_reflection(out / "reflection.csv", reflection)
        manifest.append("reflection.csv")

        stage = "curves"
        value_curve = cpt_mod.sample_value_curve(cpt_fit.params)
        weight_curve = cpt_mod.sample_weight_curve(cpt_fit.params)
        _write_curve(out / "value_curve.csv", ("x", "v"), value_curve)
        manifest.append("value_curve.csv")
        _write_curve(out / "weight_curve.csv", ("p", "w"), weight_curve)
        manifest.append("weight_curve.csv")
        if cfg.emit_svg:
            emit(
                "value_curve.svg",
                svg_line_chart(value_curve, "Estimated value function", "x", "v(x)"),
            )
            emit(
                "weight_curve.svg",
                svg_line_chart(
                    weight_curve,
                    "Estimated probability weighting",
                    "p",
                    "w(p)",
                    diagonal=True,
                ),
            )
            emit(
                "reflection.svg",
                svg_line_chart(
                    np.asarray(reflection["rows"]),
                    "Risky-choice probability by frame",
                    "frame",
                    "P(risky)",
                ),
            )

        stage = "report"
        report_doc = {
            "config": cfg.to_json_dict(),
            "effect_sizes": effect_report.to_json_list(),
            "retained_features": list(retained),
            "models": {
                "symbolic": {
                    "fit": symbolic.to_json_dict(),
                    "metrics": metrics["symbolic"].to_json_dict(),
                },
                "blackbox": {
                    "fit": blackbox.to_json_dict(),
                    "metrics": metrics["blackbox"].to_json_dict(),
                },
                "cpt": {
                    "fit": cpt_fit.to_json_dict(),
                    "metrics": metrics["cpt"].to_json_dict(),
                },
            },
            "reflection": {
                "held": reflection["held"],
                "p_risky_by_frame": {str(int(f)): p for f, p in reflection["rows"]},
            },
            "manifest": list(manifest),
        }
        (out / "report.json").write_text(
            json.dumps(report_doc, indent=2) + "\n", encoding="ascii"
        )
    except Exception as exc:
        partial = {
            "failed_stage": stage,
            "error": str(exc),
            "manifest": list(manifest),
            "partial": True,
        }
        try:
            (out / "report.json").write_text(
                json.dumps(partial, indent=2) + "\n", encoding="ascii"
            )
        except OSError:
            pass
        raise

    return ExperimentReport(
        config=cfg,
        effect_report=effect_report,
        symbolic=symbolic,
        blackbox=blackbox,
        cpt_fit=cpt_fit,
        metrics=metrics,
        reflection=reflection,
        manifest=manifest,
        out_dir=out,
    )
