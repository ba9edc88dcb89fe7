import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskchoice import ConfigError, ExperimentConfig, GeneratorConfig, run_experiment
from riskchoice.errors import InputError
from riskchoice.pipeline import CptSettings

FLOAT_MAX = int(sys.float_info.max)

seeds = st.integers(min_value=0)
numbers = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-FLOAT_MAX, FLOAT_MAX)
nonnegative = st.floats(0.0, allow_infinity=False) | st.integers(0, FLOAT_MAX)

# any valid config
configs = st.builds(
    ExperimentConfig,
    generator=st.builds(
        GeneratorConfig,
        n=st.integers(1, 2**63 - 1),
        seed=seeds,
        true_coeffs=st.tuples(*[numbers] * 5),
    ),
    train_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    split_seed=seeds,
    tau_v=nonnegative,
    tau_eta=nonnegative,
    l2=nonnegative,
    cpt=st.builds(
        CptSettings,
        n_restarts=st.integers(1, 10**6),
        seed=seeds,
        gamma_max=st.floats(0.0, exclude_min=True, allow_infinity=False)
        | st.integers(1, FLOAT_MAX),
    ),
    emit_svg=st.booleans(),
)


def small_config(**overrides):
    base = dict(
        generator=GeneratorConfig(n=900, seed=42),
        cpt=CptSettings(n_restarts=3, seed=7),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    report = run_experiment(small_config(), out)
    return report, out


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.generator.n == 5000 and cfg.generator.seed == 42
        assert cfg.train_frac == 0.8 and cfg.split_seed == 0
        assert cfg.tau_v == 0.1 and cfg.tau_eta == 0.01
        assert cfg.l2 == 0.0
        assert cfg.cpt.n_restarts == 20 and cfg.cpt.seed == 7
        assert cfg.cpt.gamma_max == 5.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(train_frac=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(split_seed=-2)
        with pytest.raises(ConfigError):
            ExperimentConfig(tau_v=-0.1)
        for n_restarts in (0, 10**6 + 1, 2**63):
            with pytest.raises(ConfigError, match="^cpt n_restarts must be from 1 to 1000000,"):
                CptSettings(n_restarts=n_restarts)
        with pytest.raises(ConfigError):
            CptSettings(gamma_max=-1.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="gamma_max"):
                CptSettings(gamma_max=bad)
        # ids 0..n-1 must fit the int64 id column
        for n in (2**63, 2**70):
            with pytest.raises(ConfigError, match=r"n must be an integer from 1 to 2\*\*63 - 1"):
                GeneratorConfig(n=n)
        # ill-typed values, as a Python caller might pass them
        with pytest.raises(ConfigError, match="n must be an integer"):
            GeneratorConfig(n=True)
        with pytest.raises(ConfigError, match="gamma_max must be a number"):
            CptSettings(gamma_max=True)
        with pytest.raises(ConfigError, match="emit_svg must be true or false"):
            ExperimentConfig(emit_svg="yes")

    def test_json_round_trip(self):
        cfg = small_config(train_frac=0.75, l2=0.5, emit_svg=False)
        again = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert again == cfg

    @pytest.mark.parametrize("doc", [[1, 2], "config", None, 5])
    def test_non_object_document_rejected(self, doc):
        with pytest.raises(ConfigError, match="^config document must be a JSON object$"):
            ExperimentConfig.from_json_dict(doc)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_json_dict({"tau": 0.2})
        with pytest.raises(ConfigError, match="unknown generator keys"):
            ExperimentConfig.from_json_dict({"generator": {"m": 10}})
        with pytest.raises(ConfigError, match="unknown cpt keys"):
            ExperimentConfig.from_json_dict({"cpt": {"iterations": 5}})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"emit_svg": "yes"}, "emit_svg must be true or false"),
            ({"emit_svg": 0}, "emit_svg must be true or false"),
            ({"cpt": {"n_restarts": True}}, "n_restarts must be an integer"),
            ({"split_seed": 1.5}, "split_seed must be an integer"),
            ({"generator": {"true_coeffs": 5}}, "true_coeffs must be a list of numbers"),
            ({"generator": {"true_coeffs": "abcde"}}, "true_coeffs must be a list of numbers"),
            ({"generator": {"true_coeffs": [1, 2, 3, 4, False]}}, "list of numbers"),
            ({"l2": "0.5"}, "l2 must be a number"),
            ({"generator": [1]}, "generator must be an object"),
            ({"cpt": None}, "cpt must be an object"),
            ({"tau_v": 10**400}, "tau_v must be a number"),
            ({"generator": {"true_coeffs": [10**400, 0, 0, 0, 0]}}, "list of numbers"),
        ],
    )
    def test_ill_typed_values_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_json_dict(doc)

    def test_json_keeps_the_field_order(self):
        doc = ExperimentConfig().to_json_dict()
        assert list(doc) == [
            "generator", "train_frac", "split_seed", "tau_v", "tau_eta", "l2", "cpt", "emit_svg",
        ]
        assert list(doc["generator"]) == ["n", "seed", "true_coeffs"]
        assert list(doc["cpt"]) == ["n_restarts", "seed", "gamma_max"]
        assert doc["generator"]["true_coeffs"] == [-0.5, -0.8, 0.9, 1.2, 1.5]

    def test_partial_documents_use_defaults(self):
        cfg = ExperimentConfig.from_json_dict({"generator": {"n": 123}})
        assert cfg.generator.n == 123
        assert cfg.generator.seed == 42
        assert cfg.cpt.n_restarts == 20

    @settings(max_examples=200)
    @given(cfg=configs)
    def test_json_round_trip_property(self, cfg):
        again = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert again == cfg


class TestRun:
    def test_manifest_files_exist(self, small_run):
        report, out = small_run
        for name in report["manifest"]:
            assert (out / name).exists(), name
        assert (out / "report.json").exists()
        expected = {
            "dataset.csv",
            "dataset.meta.json",
            "effect_sizes.json",
            "symbolic_model.json",
            "blackbox_model.json",
            "cpt_model.json",
            "table1.csv",
            "reflection.csv",
            "value_curve.csv",
            "weight_curve.csv",
            "value_curve.svg",
            "weight_curve.svg",
            "reflection.svg",
        }
        assert set(report["manifest"]) == expected

    def test_returns_the_report_it_writes(self, small_run):
        report, out = small_run
        assert report == json.loads((out / "report.json").read_text())

    def test_table_rows_and_order(self, small_run):
        _, out = small_run
        lines = [
            l for l in (out / "table1.csv").read_text().splitlines() if not l.startswith("#")
        ]
        assert lines[0] == "model,accuracy,auc,interpretability"
        names = [l.split(",")[0] for l in lines[1:]]
        assert names == ["Symbolic", "Black-box", "CPT"]
        labels = [l.split(",")[3] for l in lines[1:]]
        assert labels == ["High", "Low", "Moderate"]

    def test_table_recomputable_from_report(self, small_run):
        report, out = small_run
        doc = json.loads((out / "report.json").read_text())
        lines = [
            l for l in (out / "table1.csv").read_text().splitlines() if not l.startswith("#")
        ]
        for line, key in zip(lines[1:], ("symbolic", "blackbox", "cpt")):
            _, acc, auc_s, _ = line.split(",")
            assert float(acc) == doc["models"][key]["metrics"]["accuracy"]
            assert float(auc_s) == doc["models"][key]["metrics"]["auc"]

    def test_report_config_echo(self, small_run):
        _, out = small_run
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"] == small_config().to_json_dict()
        rebuilt = ExperimentConfig.from_json_dict(doc["config"])
        assert rebuilt == small_config()

    def test_reflection_direction(self, small_run):
        report, out = small_run
        rows = report["reflection"]["p_risky_by_frame"]
        assert rows["-1"] > rows["1"]
        lines = (out / "reflection.csv").read_text().splitlines()
        assert lines[0].startswith("#") and "magnitude=" in lines[1]
        data_lines = [l for l in lines if not l.startswith("#")]
        assert data_lines[0] == "frame,p_risky"
        assert len(data_lines) == 3

    def test_curve_files(self, small_run):
        _, out = small_run
        value_lines = (out / "value_curve.csv").read_text().splitlines()
        weight_lines = (out / "weight_curve.csv").read_text().splitlines()
        assert value_lines[0] == "x,v" and len(value_lines) == 252
        assert weight_lines[0] == "p,w" and len(weight_lines) == 100
        for svg in ("value_curve.svg", "weight_curve.svg"):
            text = (out / svg).read_text()
            assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_effect_sizes_file_matches_report(self, small_run):
        _, out = small_run
        standalone = json.loads((out / "effect_sizes.json").read_text())
        doc = json.loads((out / "report.json").read_text())
        assert standalone == doc["effect_sizes"]

    def test_no_svg_option(self, tmp_path):
        report = run_experiment(small_config(emit_svg=False), tmp_path)
        assert not any(name.endswith(".svg") for name in report["manifest"])
        assert not list(tmp_path.glob("*.svg"))

    def test_screening_sees_only_the_training_rows(self, tmp_path, monkeypatch):
        from riskchoice import generate_dataset, pipeline, split

        seen = []

        def recording(data, **kwargs):
            seen.append(data.id.copy())
            return select_features(data, **kwargs)

        select_features = pipeline.select_features
        monkeypatch.setattr(pipeline, "select_features", recording)
        cfg = small_config(emit_svg=False)
        run_experiment(cfg, tmp_path)
        train, _ = split(generate_dataset(cfg.generator), cfg.train_frac, cfg.split_seed)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], train.id)

    def test_train_accuracy_at_least_test(self, small_run):
        # informational regression: not a theorem, but holds on this seed
        report, out = small_run
        from riskchoice import accuracy, generate_dataset, split
        from riskchoice.pipeline import model_probs

        cfg = ExperimentConfig.from_json_dict(report["config"])
        data = generate_dataset(cfg.generator)
        train, test = split(data, cfg.train_frac, cfg.split_seed)
        symbolic = report["models"]["symbolic"]
        train_probs = model_probs({"model": "symbolic", **symbolic["fit"]}, train)
        train_acc = accuracy(train_probs, train.choice)
        test_acc = symbolic["metrics"]["accuracy"]
        print(f"train accuracy {train_acc:.4f} vs test {test_acc:.4f}")
        assert train_acc >= test_acc - 0.02


class TestRecords:
    """run_experiment reaches a family only through its MODELS record."""

    def test_one_record_alone_writes_a_complete_run(self, tmp_path, monkeypatch):
        from riskchoice import pipeline

        monkeypatch.setattr(pipeline, "MODELS", {"blackbox": pipeline.MODELS["blackbox"]})
        report = run_experiment(small_config(), tmp_path)
        assert report["manifest"] == [
            "dataset.csv",
            "dataset.meta.json",
            "blackbox_model.json",
            "table1.csv",
        ]
        assert set(report) == {"config", "models", "manifest"}
        assert list(report["models"]) == ["blackbox"]
        assert report == json.loads((tmp_path / "report.json").read_text())
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert [l.split(",")[0] for l in lines[2:]] == ["Black-box"]

    def test_a_record_writes_its_own_extras(self, tmp_path, monkeypatch):
        from riskchoice import pipeline

        blackbox = pipeline.MODELS["blackbox"]

        class _Stub(type(blackbox)):
            def extras(self, fit, train, cfg):
                return [("stub.txt", f"{len(train)} rows\n")], {"stub": {"n": len(train)}}

        monkeypatch.setitem(pipeline.MODELS, "stub", _Stub("Stub", "None"))
        cfg = small_config(emit_svg=False)
        report = run_experiment(cfg, tmp_path)
        n_train = cfg.generator.n - report["models"]["stub"]["metrics"]["n_test"]
        assert report["manifest"][-3:] == ["stub_model.json", "stub.txt", "table1.csv"]
        assert (tmp_path / "stub.txt").read_text() == f"{n_train} rows\n"
        assert report["stub"] == {"n": n_train}
        assert list(report)[-2:] == ["stub", "manifest"]
        assert report == json.loads((tmp_path / "report.json").read_text())


class TestFailureHandling:
    def test_partial_report_on_stage_failure(self, tmp_path):
        cfg = ExperimentConfig(
            generator=GeneratorConfig(n=1, seed=1), cpt=CptSettings(n_restarts=1)
        )
        with pytest.raises(InputError):
            run_experiment(cfg, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["partial"] is True
        assert doc["failed_stage"] == "split"
        assert "dataset.csv" in doc["manifest"]
        for name in doc["manifest"]:
            assert (tmp_path / name).exists()

    def test_unwritable_report_keeps_the_stage_error(self, tmp_path):
        # report.json is a directory, so neither the report nor the partial
        # report can be written; the report stage's own error propagates
        (tmp_path / "report.json").mkdir()
        with pytest.raises(OSError) as info:
            run_experiment(small_config(emit_svg=False), tmp_path)
        assert "report.json" in str(info.value)
        assert (tmp_path / "table1.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    cfg = small_config()
    run_experiment(cfg, tmp_path / "one")
    run_experiment(cfg, tmp_path / "two")
    for name in ("dataset.csv", "report.json", "table1.csv", "weight_curve.svg"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
