"""End-to-end experiment: generate, split, select, fit, evaluate, emit.

The pipeline writes every artifact with fixed float formatting and no
timestamps, so a rerun with the same configuration produces byte-identical
files. If a stage fails, a partial report naming the failed stage and the
files emitted so far is still written before the error propagates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import cpt as cpt_mod
from .charts import svg_line_chart
from .errors import ConfigError, DataParseError, InputError, NumericalError, UndefinedMetricError
from .evaluation import accuracy, auc, split
from .features import (
    DEFAULT_TAU_ETA,
    DEFAULT_TAU_V,
    RAW_NAMES,
    SYMBOLIC_NAMES,
    design_matrix,
    select_features,
)
from .glm import FittedLogistic, fit_logistic, sigmoid
from .scenario import (  # noqa: F401  (as_arrays stays importable from here)
    GeneratorConfig,
    ScenarioArrays,
    as_arrays,
    check_field_types,
    generate_dataset,
    is_list_of,
    is_number,
    json_text,
    write_dataset_csv,
    write_metadata,
)

log = logging.getLogger(__name__)

DEFAULT_SPLIT_SEED = 0
DEFAULT_TRAIN_FRAC = 0.8

# The three model families, in table order: key -> (display name, fixed
# qualitative interpretability label). The label is an editorial constant
# attached to the model class, not a computed metric.
MODELS = {
    "symbolic": ("Symbolic", "High"),
    "blackbox": ("Black-box", "Low"),
    "cpt": ("CPT", "Moderate"),
}
MODEL_KEYS = tuple(MODELS)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class CptSettings:
    """Estimation settings for the parametric choice model."""

    n_restarts: int = cpt_mod.DEFAULT_RESTARTS
    seed: int = cpt_mod.DEFAULT_FIT_SEED
    gamma_max: float = cpt_mod.DEFAULT_GAMMA_MAX

    def __post_init__(self):
        check_field_types(self)
        if not 1 <= self.n_restarts <= cpt_mod.MAX_RESTARTS:
            raise ConfigError(
                f"cpt n_restarts must be from 1 to {cpt_mod.MAX_RESTARTS}, got {self.n_restarts!r}"
            )
        if self.seed < 0:
            raise ConfigError(f"cpt seed must be a nonnegative integer, got {self.seed!r}")
        if not (math.isfinite(self.gamma_max) and self.gamma_max > 0):
            raise ConfigError(f"gamma_max must be positive and finite, got {self.gamma_max!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully determines one experiment run; echoed into the report."""

    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    train_frac: float = DEFAULT_TRAIN_FRAC
    split_seed: int = DEFAULT_SPLIT_SEED
    tau_v: float = DEFAULT_TAU_V
    tau_eta: float = DEFAULT_TAU_ETA
    l2: float = 0.0
    standardize_blackbox: bool = False
    cpt: CptSettings = field(default_factory=CptSettings)
    emit_svg: bool = True

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError(f"train_frac must lie strictly in (0, 1), got {self.train_frac!r}")
        if self.split_seed < 0:
            raise ConfigError(f"split_seed must be a nonnegative integer, got {self.split_seed!r}")
        for name in ("tau_v", "tau_eta", "l2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be a nonnegative number, got {v!r}")

    def to_json_dict(self) -> dict:
        return asdict(
            self, dict_factory=lambda kv: {k: list(v) if isinstance(v, tuple) else v for k, v in kv}
        )

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build a config from its JSON mirror, rejecting unknown keys; the
        constructors reject values whose JSON type differs from the field's
        default."""
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        return _from_json(cls, doc, "config")


def config_fields(cfg=ExperimentConfig(), prefix: tuple[str, ...] = ()):
    """Yield ``(path, default)`` for every leaf field of a config, in
    declaration order; ``path`` names the sections down to the field."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            yield from config_fields(value, prefix + (f.name,))
        else:
            yield prefix + (f.name,), value


def _from_json(cls, doc: dict, section: str):
    defaults = cls()
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    kwargs = {}
    for name, value in doc.items():
        default = getattr(defaults, name)
        if is_dataclass(default) and isinstance(value, dict):
            value = _from_json(type(default), value, name)
        kwargs[name] = value
    return cls(**kwargs)


def fit_model(
    key: str, train: ScenarioArrays, cfg: ExperimentConfig, symbolic_names=SYMBOLIC_NAMES
):
    """Fit model family ``key`` (one of MODEL_KEYS) on ``train``.

    The symbolic model uses the feature columns ``symbolic_names``, the
    black-box model the raw columns; both are logistic fits with ``cfg.l2``.
    CPT is fit with ``cfg.cpt``.
    """
    if key == "cpt":
        return cpt_mod.fit_cpt(
            train, n_restarts=cfg.cpt.n_restarts, seed=cfg.cpt.seed, gamma_max=cfg.cpt.gamma_max
        )
    names = symbolic_names if key == "symbolic" else RAW_NAMES
    fit = fit_logistic(
        design_matrix(train, names),
        train.choice,
        cfg.l2,
        feature_names=names,
        standardize=key == "blackbox" and cfg.standardize_blackbox,
    )
    if not fit.converged:
        for note in fit.diagnostics:
            log.warning("%s", note)
    return fit


def model_doc(key: str, fit) -> dict:
    """The saved form of a fitted model, as ``evaluate`` reads it."""
    return {"model": key, **fit.to_json_dict()}


def _doc_value(doc: dict, key: str, ok, want: str):
    if key not in doc:
        raise DataParseError(f"model JSON missing key {key!r}")
    if not ok(doc[key]):
        raise DataParseError(f"model JSON {key} must be {want}, got {doc[key]!r}")
    return doc[key]


def model_probs(doc, arrays: ScenarioArrays) -> np.ndarray:
    """P(risky) for each scenario under a model document (see model_doc).

    Raises
    ------
    DataParseError
        If the document is not a well-formed model of one of MODEL_KEYS.
    NumericalError
        If a probability is not finite: the model's latent utility
        overflows on ``arrays`` to inf - inf.
    """
    if not isinstance(doc, dict):
        raise DataParseError("model JSON must hold an object")
    key = doc.get("model")
    if key not in MODEL_KEYS:
        raise DataParseError(f"model JSON has unknown model kind {key!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        probs = _doc_probs(key, doc, arrays)
    bad = int(np.count_nonzero(~np.isfinite(probs)))
    if bad:
        raise NumericalError(
            f"{key} model gives non-finite probabilities on {bad} of {len(probs)} scenarios"
        )
    return probs


def _doc_probs(key: str, doc: dict, arrays: ScenarioArrays) -> np.ndarray:
    if key == "cpt":
        values = [_doc_value(doc, name, is_number, "a number") for name in cpt_mod.PARAM_NAMES]
        return cpt_mod.choice_prob_array(arrays, cpt_mod.CptParams(*values))
    features = _doc_value(
        doc, "features", lambda v: is_list_of(v, lambda s: isinstance(s, str)), "a list of names"
    )
    coeffs = _doc_value(doc, "coeffs", lambda v: is_list_of(v, is_number), "a list of numbers")
    if len(features) != len(coeffs):
        raise DataParseError("model JSON features and coeffs lengths differ")
    coeffs = np.asarray(coeffs, dtype=float)
    if not np.all(np.isfinite(coeffs)):
        raise DataParseError("model JSON coeffs must all be finite")
    return sigmoid(design_matrix(arrays, features) @ coeffs)


def evaluate_predictions(key: str, probs, y) -> dict:
    """Held-out accuracy and AUC of model family ``key``, as ``report.json``
    records them; the AUC is None, with a warning, when ``y`` holds a single
    class."""
    if key not in MODELS:
        raise InputError(f"unknown model key {key!r}")
    name, interpretability = MODELS[key]
    y = np.asarray(y)
    acc = accuracy(probs, y)
    try:
        auc_value = auc(probs, y)
    except UndefinedMetricError as exc:
        log.warning("AUC for %s undefined: %s", key, exc)
        auc_value = None
    return {
        "model": name,
        "accuracy": acc,
        "auc": auc_value,
        "n_test": int(y.shape[0]),
        "interpretability": interpretability,
    }


_TABLE1_NOTE = (
    "interpretability is a fixed qualitative label per model family, not a computed metric"
)


def _csv_text(comments, header, rows) -> str:
    """CSV text: a "# " line per comment, the header, then a line per row,
    where a string field is written as it is, None as an empty field and a
    number in %.17g."""

    def cell(value) -> str:
        return "" if value is None else value if isinstance(value, str) else _fmt(value)

    lines = [f"# {c}" for c in comments] + [",".join(header)]
    lines += [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _reflection_rows(model: FittedLogistic, magnitude_median: float) -> dict:
    """Predicted P(risky) against frame with the other features pinned."""
    held = {
        "intercept": 1.0,
        "low_prob": 0.0,
        "magnitude": magnitude_median,
        "dominance": 0.0,
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


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Run the whole pipeline and write all artifacts under ``out_dir``.

    Stages: generate the dataset, split it, screen features, fit the
    symbolic and raw-feature logistic models and the parametric choice model
    on the training side, score all three on the test side, and emit the
    dataset, per-model JSONs, the comparison table, curve CSVs (plus SVG
    renderings unless disabled), and a JSON report that echoes the config.
    Screening sees only the training side, so the test rows take no part in
    choosing the features that are scored on them. Returns the report
    document, as written to ``report.json``.
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
        effect_report = select_features(train, tau_v=cfg.tau_v, tau_eta=cfg.tau_eta)
        retained = effect_report.retained_names()
        emit("effect_sizes.json", json_text(effect_report.to_json_list()))

        fits, docs = {}, {}
        for key in MODEL_KEYS:
            stage = f"fit_{key}"
            fits[key] = fit_model(key, train, cfg, retained)
            docs[key] = model_doc(key, fits[key])
            emit(f"{key}_model.json", json_text(docs[key]))

        stage = "evaluate"
        metrics = {
            key: evaluate_predictions(key, model_probs(docs[key], test), test.choice)
            for key in MODEL_KEYS
        }
        columns = ("model", "accuracy", "auc", "interpretability")
        rows = [[m[k] for k in columns] for m in metrics.values()]
        emit("table1.csv", _csv_text([_TABLE1_NOTE], columns, rows))

        stage = "reflection"
        magnitude_median = float(np.median(design_matrix(train, ("magnitude",))))
        reflection = _reflection_rows(fits["symbolic"], magnitude_median)
        held = ", ".join(f"{k}={_fmt(v)}" for k, v in reflection["held"].items())
        notes = ["predicted risky-choice probability by frame, other features held fixed:", held]
        emit("reflection.csv", _csv_text(notes, ("frame", "p_risky"), reflection["rows"]))

        stage = "curves"
        cpt_params = fits["cpt"].params
        value_curve = cpt_mod.sample_value_curve(cpt_params)
        weight_curve = cpt_mod.sample_weight_curve(cpt_params)
        emit("value_curve.csv", _csv_text((), ("x", "v"), value_curve))
        emit("weight_curve.csv", _csv_text((), ("p", "w"), weight_curve))
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
                key: {"fit": fits[key].to_json_dict(), "metrics": metrics[key]}
                for key in MODEL_KEYS
            },
            "reflection": {
                "held": reflection["held"],
                "p_risky_by_frame": {str(int(f)): p for f, p in reflection["rows"]},
            },
            "manifest": list(manifest),
        }
        (out / "report.json").write_text(json_text(report_doc), encoding="ascii")
    except Exception as exc:
        partial = {
            "failed_stage": stage,
            "error": str(exc),
            "manifest": list(manifest),
            "partial": True,
        }
        try:
            (out / "report.json").write_text(json_text(partial), encoding="ascii")
        except OSError:
            pass
        raise

    return report_doc
