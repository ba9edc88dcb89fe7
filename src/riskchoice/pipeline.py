"""End-to-end experiment: generate, split, fit, evaluate, emit.

The three model families are records in ``MODELS``: each says how it is
fit, how its saved document scores scenarios, which rows its coefficient
table holds, and which files and ``report.json`` entries an experiment
writes for it beyond its model file (``Family.extras``). The CLI and the
pipeline reach a family only through its record. The symbolic family's fit
is effect-size screening on the training rows followed by a logistic fit on
the kept columns; its extras are the screening report and the reflection
figure. The CPT family's extras are its value and weighting curves.

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
from typing import NamedTuple

import numpy as np

from . import cpt as cpt_mod
from .charts import svg_line_chart
from .errors import ConfigError, DataParseError, InputError, NumericalError, UndefinedMetricError
from .evaluation import accuracy, auc, split
from .features import (
    DEFAULT_TAU_ETA,
    DEFAULT_TAU_V,
    RAW_NAMES,
    EffectSizeReport,
    design_matrix,
    select_features,
)
from .glm import FittedLogistic, fit_logistic, linear_predictor, sigmoid
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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class CptSettings:
    """Estimation settings for the parametric choice model: the keyword
    arguments of ``cpt.fit_cpt``."""

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


def model_doc(key: str, fit) -> dict:
    """The saved form of a fitted model, as ``evaluate`` reads it."""
    return {"model": key, **fit.to_json_dict()}


def _doc_value(doc: dict, key: str, ok, want: str):
    if key not in doc:
        raise DataParseError(f"model JSON missing key {key!r}")
    if not ok(doc[key]):
        raise DataParseError(f"model JSON {key} must be {want}, got {doc[key]!r}")
    return doc[key]


def _logistic_fit(train: ScenarioArrays, names, cfg: ExperimentConfig) -> FittedLogistic:
    """The logistic fit of the columns ``names`` of ``train`` with ``cfg.l2``;
    a fit that did not converge logs its diagnostics as warnings."""
    fit = fit_logistic(design_matrix(train, names), train.choice, cfg.l2, feature_names=names)
    if not fit.converged:
        for note in fit.diagnostics:
            log.warning("%s", note)
    return fit


class SymbolicFit(FittedLogistic):
    """The symbolic family's fit: the logistic fit ``model`` of the columns
    that the effect-size screen of the training rows kept, with that
    screen's report ``screening``. It is saved as the logistic fit."""

    def __init__(self, screening: EffectSizeReport, model: FittedLogistic):
        super().__init__(**vars(model))
        self.screening = screening


class Family(NamedTuple):
    """One model family: its display name and its fixed qualitative
    interpretability label, an editorial constant attached to the model
    class, not a computed metric.

    Each family's record adds ``fit(train, cfg)``, its fit on training rows
    with the settings of an ExperimentConfig; ``probs(doc, arrays)``, P(risky)
    per scenario under its saved document (see model_doc), raising
    DataParseError for an ill-formed one; and ``rows(fit)``, one
    ``(name, estimate, SE or None)`` per parameter of a fit. Its
    ``settings`` name the ExperimentConfig fields and sections that ``fit``
    reads.
    """

    name: str
    interpretability: str

    def extras(self, fit, train: ScenarioArrays, cfg: ExperimentConfig):
        """What an experiment writes for this family beyond its model file:
        a list of ``(file name, text)`` and a dict of ``report.json``
        entries. A family writes none unless its record says otherwise."""
        return [], {}


class _Logistic(Family):
    def probs(self, doc: dict, arrays: ScenarioArrays) -> np.ndarray:
        features = _doc_value(
            doc,
            "features",
            lambda v: is_list_of(v, lambda s: isinstance(s, str)),
            "a list of names",
        )
        coeffs = _doc_value(doc, "coeffs", lambda v: is_list_of(v, is_number), "a list of numbers")
        if len(features) != len(coeffs):
            raise DataParseError("model JSON features and coeffs lengths differ")
        coeffs = np.asarray(coeffs, dtype=float)
        if not np.all(np.isfinite(coeffs)):
            raise DataParseError("model JSON coeffs must all be finite")
        return sigmoid(linear_predictor(design_matrix(arrays, features), coeffs))

    def rows(self, fit: FittedLogistic):
        se = fit.std_errors
        return zip(fit.feature_names, fit.coeffs, [None] * len(fit.coeffs) if se is None else se)


class _Symbolic(_Logistic):
    settings = ("tau_v", "tau_eta", "l2")

    def fit(self, train: ScenarioArrays, cfg: ExperimentConfig) -> SymbolicFit:
        screening = select_features(train, tau_v=cfg.tau_v, tau_eta=cfg.tau_eta)
        return SymbolicFit(screening, _logistic_fit(train, screening.retained_names(), cfg))

    def extras(self, fit: SymbolicFit, train: ScenarioArrays, cfg: ExperimentConfig):
        """The screening report, and the reflection figure: predicted
        P(risky) against frame with the other features pinned."""
        screening = fit.screening.to_json_list()
        magnitude = float(np.median(design_matrix(train, ("magnitude",))))
        held = {"low_prob": 0.0, "magnitude": magnitude, "dominance": 0.0}
        rows = []
        for frame in (-1.0, 1.0):
            x = {"intercept": 1.0, "frame": frame, **held}
            values = np.array([x[name] for name in fit.feature_names])
            rows.append((frame, float(sigmoid(float(values @ fit.coeffs)))))
        notes = [
            "predicted risky-choice probability by frame, other features held fixed:",
            ", ".join(f"{k}={_fmt(v)}" for k, v in held.items()),
        ]
        files = [("effect_sizes.json", json_text(screening))]
        files += _figure(
            "reflection", notes, ("frame", "p_risky"), rows, cfg,
            "Risky-choice probability by frame", "frame", "P(risky)",
        )
        return files, {
            "effect_sizes": screening,
            "retained_features": list(fit.screening.retained_names()),
            "reflection": {
                "held": held,
                "p_risky_by_frame": {str(int(f)): p for f, p in rows},
            },
        }


class _Blackbox(_Logistic):
    settings = ("l2",)

    def fit(self, train: ScenarioArrays, cfg: ExperimentConfig) -> FittedLogistic:
        return _logistic_fit(train, RAW_NAMES, cfg)


class _Cpt(Family):
    settings = ("cpt",)

    def fit(self, train: ScenarioArrays, cfg: ExperimentConfig) -> cpt_mod.CptFit:
        return cpt_mod.fit_cpt(train, **asdict(cfg.cpt))

    def probs(self, doc: dict, arrays: ScenarioArrays) -> np.ndarray:
        values = [_doc_value(doc, name, is_number, "a number") for name in cpt_mod.PARAM_NAMES]
        return cpt_mod.choice_prob_array(arrays, cpt_mod.CptParams(*values))

    def rows(self, fit: cpt_mod.CptFit):
        return zip(cpt_mod.PARAM_NAMES, fit.params.as_tuple(), fit.std_errors)

    def extras(self, fit: cpt_mod.CptFit, train: ScenarioArrays, cfg: ExperimentConfig):
        """The estimated value and probability weighting curves."""
        value_curve = cpt_mod.sample_value_curve(fit.params)
        weight_curve = cpt_mod.sample_weight_curve(fit.params)
        files = _figure(
            "value_curve", (), ("x", "v"), value_curve, cfg,
            "Estimated value function", "x", "v(x)",
        )
        files += _figure(
            "weight_curve", (), ("p", "w"), weight_curve, cfg,
            "Estimated probability weighting", "p", "w(p)", diagonal=True,
        )
        return files, {}


# The three model families, in table order.
MODELS = {
    "symbolic": _Symbolic("Symbolic", "High"),
    "blackbox": _Blackbox("Black-box", "Low"),
    "cpt": _Cpt("CPT", "Moderate"),
}
MODEL_KEYS = tuple(MODELS)


def model_probs(doc, arrays: ScenarioArrays) -> np.ndarray:
    """P(risky) for each scenario under a model document (see model_doc).

    Raises
    ------
    DataParseError
        If the document is not a well-formed model of a family in MODELS.
    NumericalError
        If a probability is not finite: the model's latent utility
        overflows on ``arrays`` to inf - inf.
    """
    if not isinstance(doc, dict):
        raise DataParseError("model JSON must hold an object")
    key = doc.get("model")
    if not isinstance(key, str) or key not in MODELS:
        raise DataParseError(f"model JSON has unknown model kind {key!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        probs = MODELS[key].probs(doc, arrays)
    bad = int(np.count_nonzero(~np.isfinite(probs)))
    if bad:
        raise NumericalError(
            f"{key} model gives non-finite probabilities on {bad} of {len(probs)} scenarios"
        )
    return probs


def evaluate_predictions(key: str, probs, y) -> dict:
    """Held-out accuracy and AUC of model family ``key``, as ``report.json``
    records them; the AUC is None, with a warning, when ``y`` holds a single
    class."""
    if key not in MODELS:
        raise InputError(f"unknown model key {key!r}")
    y = np.asarray(y)
    acc = accuracy(probs, y)
    try:
        auc_value = auc(probs, y)
    except UndefinedMetricError as exc:
        log.warning("AUC for %s undefined: %s", key, exc)
        auc_value = None
    return {
        "model": MODELS[key].name,
        "accuracy": acc,
        "auc": auc_value,
        "n_test": int(y.shape[0]),
        "interpretability": MODELS[key].interpretability,
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


def _figure(name, notes, header, rows, cfg, title, x_label, y_label, diagonal=False):
    """A figure's files: ``name.csv``, its comments ``notes``, ``header`` and
    ``rows``, and, when ``cfg.emit_svg`` is set, ``name.svg``, the rows drawn
    as a line chart (see charts.svg_line_chart)."""
    files = [(f"{name}.csv", _csv_text(notes, header, rows))]
    if cfg.emit_svg:
        svg = svg_line_chart(rows, title, x_label, y_label, diagonal=diagonal)
        files.append((f"{name}.svg", svg))
    return files


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Run the whole pipeline and write all artifacts under ``out_dir``.

    Stages: ``generate`` writes the dataset and its metadata; ``split``
    splits it; ``fit_<key>`` fits each family of MODELS on the training side
    (the symbolic fit screens the features first, so the test rows take no
    part in choosing the features that are scored on them); ``save_fits``
    writes, record by record, the model file and then the files of the
    record's ``extras``; ``evaluate`` scores every family on the test side
    and writes the comparison table; ``report`` writes ``report.json``: the
    config, each family's fit and metrics, the records' extra entries and
    the manifest. Returns the report document, as written.
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

        fits = {}
        for key, family in MODELS.items():
            stage = f"fit_{key}"
            fits[key] = family.fit(train, cfg)

        stage = "save_fits"
        docs, entries = {}, {}
        for key, family in MODELS.items():
            docs[key] = model_doc(key, fits[key])
            emit(f"{key}_model.json", json_text(docs[key]))
            files, more = family.extras(fits[key], train, cfg)
            for name, text in files:
                emit(name, text)
            entries.update(more)

        stage = "evaluate"
        metrics = {
            key: evaluate_predictions(key, model_probs(doc, test), test.choice)
            for key, doc in docs.items()
        }
        columns = ("model", "accuracy", "auc", "interpretability")
        rows = [[m[k] for k in columns] for m in metrics.values()]
        emit("table1.csv", _csv_text([_TABLE1_NOTE], columns, rows))

        stage = "report"
        report_doc = {
            "config": cfg.to_json_dict(),
            "models": {
                key: {"fit": fit.to_json_dict(), "metrics": metrics[key]}
                for key, fit in fits.items()
            },
            **entries,
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
