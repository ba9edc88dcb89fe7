import argparse
import json
import logging
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskchoice
from riskchoice import (
    DEFAULT_TRUE_COEFFS,
    GeneratorConfig,
    cpt,
    design_matrix,
    generate_dataset,
    split,
)
from riskchoice.cli import _config, build_parser, entry, main
from riskchoice.features import RAW_NAMES, SYMBOLIC_NAMES
from riskchoice.glm import sigmoid
from riskchoice.pipeline import MODEL_KEYS, CptSettings, ExperimentConfig
from riskchoice.scenario import ScenarioArrays, write_dataset_csv


def run_cli(*argv):
    return main(list(argv))


def _mixed_sign_data(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return ScenarioArrays(
        id=np.arange(n),
        safe=rng.uniform(-50.0, 100.0, n),
        risky=rng.uniform(-100.0, 150.0, n),
        p=rng.uniform(0.1, 0.9, n),
        frame=rng.integers(0, 2, n) * 2 - 1,
        choice=rng.integers(0, 2, n),
    )


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "dataset.csv"
    write_dataset_csv(generate_dataset(GeneratorConfig(n=400, seed=5)), path)
    return path


class TestGenerate:
    def test_default_size_and_rerun_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("generate", "--n", "5000", "--seed", "42", "--out", str(out_a)) == 0
        assert run_cli("generate", "--n", "5000", "--seed", "42", "--out", str(out_b)) == 0
        csv_a = (out_a / "dataset.csv").read_bytes()
        assert csv_a == (out_b / "dataset.csv").read_bytes()
        assert csv_a.decode().count("\n") == 5001
        meta = json.loads((out_a / "dataset.meta.json").read_text())
        assert meta["n"] == 5000 and meta["seed"] == 42

    def test_zero_n_is_usage_error(self, tmp_path):
        assert run_cli("generate", "--n", "0", "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize("n", [2**63, 2**70])
    def test_n_beyond_the_int64_ids_is_config_error(self, tmp_path, capsys, n):
        out = tmp_path / "out"
        assert run_cli("generate", "--n", str(n), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: n must be an integer from 1 to 2**63 - 1, got {n}\n"
        assert not out.exists()

    def test_custom_coefficients(self, tmp_path):
        code = run_cli(
            "generate", "--n", "20", "--seed", "1",
            "--true-coeffs=-1e6,0,0,0,0", "--out", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "dataset.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",0") for row in rows)

    def test_nan_latent_utility_is_numerical_error(self, tmp_path, capsys):
        # 28 of these 2000 latent utilities overflow to inf - inf; an
        # infinite one alone would be a valid, certain choice
        out = tmp_path / "out"
        coeffs = "--true-coeffs=1e308,1e308,1e308,-1e308,-1e308"
        assert run_cli("generate", "--n", "2000", "--seed", "1", coeffs, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err == (
            "error: true_coeffs give an undefined (NaN) latent utility on 28 of 2000 scenarios\n"
        )
        assert not (out / "dataset.csv").exists()

        exp = tmp_path / "exp"
        assert run_cli("experiment", "--n", "2000", "--seed", "1", coeffs, "--out", str(exp)) == 3
        report = json.loads((exp / "report.json").read_text())
        assert report["partial"] is True and report["failed_stage"] == "generate"
        assert report["manifest"] == []

    def test_malformed_coefficients(self, tmp_path):
        assert run_cli("generate", "--true-coeffs", "1,2", "--out", str(tmp_path)) == 1
        assert run_cli("generate", "--true-coeffs", "a,b,c,d,e", "--out", str(tmp_path)) == 1

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RISKCHOICE_OUT", str(tmp_path / "envout"))
        assert run_cli("generate", "--n", "10", "--seed", "2") == 0
        assert (tmp_path / "envout" / "dataset.csv").exists()


class TestFit:
    def test_symbolic_fit_json_and_table(self, dataset_csv, tmp_path, capsys):
        # the symbolic fit screens first: low_prob's Cramér's V of 0.116 on
        # this dataset falls below tau_v = 0.2
        out = str(tmp_path)
        assert run_cli("fit", "symbolic", str(dataset_csv), "--tau-v", "0.2", "--out", out) == 0
        doc = json.loads((tmp_path / "symbolic_model.json").read_text())
        assert doc["model"] == "symbolic"
        assert doc["features"] == ["intercept", "frame", "magnitude", "dominance"]
        assert len(doc["coeffs"]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "parameter      estimate       std_err"
        assert [line.split()[0] for line in lines[1:5]] == doc["features"]
        assert lines[5] == f"log-likelihood: {doc['log_likelihood']:.6f} over 400 choices"
        # every family prints through the same table: on gain-only data the
        # CPT fit leaves beta and lambda without an SE
        assert run_cli("fit", "cpt", str(dataset_csv), "--restarts", "1", "--out", out) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "parameter      estimate       std_err"
        missing = [line.split()[0] for line in lines[1:6] if line.endswith("    undefined")]
        assert missing == ["beta", "lambda"]

    @pytest.mark.parametrize("flags", [[], ["--tau-v", "0.05"]], ids=["defaults", "tau_v_0.05"])
    def test_symbolic_fit_writes_the_experiments_model(self, tmp_path, flags):
        # tau_v = 0.05 keeps low_prob (Cramér's V 0.0621 on the default
        # training split), which the default tau_v = 0.1 drops
        experiment, fit = tmp_path / "experiment", tmp_path / "fit"
        train_csv = tmp_path / "train.csv"
        assert run_cli("experiment", *flags, "--out", str(experiment)) == 0
        cfg = ExperimentConfig()
        train, _ = split(generate_dataset(cfg.generator), cfg.train_frac, cfg.split_seed)
        write_dataset_csv(train, train_csv)
        assert run_cli("fit", "symbolic", str(train_csv), *flags, "--out", str(fit)) == 0
        fitted = (fit / "symbolic_model.json").read_bytes()
        assert fitted == (experiment / "symbolic_model.json").read_bytes()
        assert ("low_prob" in json.loads(fitted)["features"]) == bool(flags)

    def test_cpt_fit_deterministic(self, dataset_csv, tmp_path):
        for sub in ("a", "b"):
            code = run_cli(
                "fit", "cpt", str(dataset_csv),
                "--restarts", "3", "--cpt-seed", "7", "--out", str(tmp_path / sub),
            )
            assert code == 0
        assert (tmp_path / "a" / "cpt_model.json").read_bytes() == (
            tmp_path / "b" / "cpt_model.json"
        ).read_bytes()
        doc = json.loads((tmp_path / "a" / "cpt_model.json").read_text())
        assert doc["model"] == "cpt"
        assert set(("alpha", "beta", "lambda", "gamma", "eta")) <= set(doc)
        assert len(doc["restarts"]) == 3

    def test_cpt_fit_on_overflowing_payoffs_exits_cleanly(self, tmp_path):
        # payoffs near 1e300 drive the trust-region step's mu update to a zero
        # slope; the CLI must report a fit or a numerical error, not crash
        rng = np.random.default_rng(0)
        n = 40
        data = ScenarioArrays(
            id=np.arange(n),
            safe=rng.uniform(0.5e300, 1e300, n),
            risky=rng.uniform(0.5e300, 1e300, n),
            p=rng.uniform(0.1, 0.9, n),
            frame=np.ones(n, dtype=np.int64),
            choice=rng.integers(0, 2, n),
        )
        path = tmp_path / "huge.csv"
        write_dataset_csv(data, path)
        assert "e+299" in path.read_text()
        code = run_cli("fit", "cpt", str(path), "--restarts", "3", "--out", str(tmp_path))
        assert code in (0, 3)

    def test_separable_data_logs_the_separation_warning(self, tmp_path, caplog):
        # every loss-framed scenario is taken risky and no gain-framed one,
        # so the frame feature separates the choices
        data = generate_dataset(GeneratorConfig(n=200, seed=3))
        path = tmp_path / "separable.csv"
        write_dataset_csv(replace(data, choice=(data.frame == -1).astype(np.int64)), path)
        with caplog.at_level(logging.WARNING, logger="riskchoice.pipeline"):
            assert run_cli("fit", "symbolic", str(path), "--out", str(tmp_path)) == 0
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert caplog.messages[0].startswith("possible separation: ")
        assert json.loads((tmp_path / "symbolic_model.json").read_text())["converged"] is False

    def test_separated_fit_prints_undefined_standard_errors(self, tmp_path, capsys):
        data = generate_dataset(GeneratorConfig(n=200, seed=3))
        path = tmp_path / "separable.csv"
        write_dataset_csv(replace(data, choice=(data.frame == -1).astype(np.int64)), path)
        assert run_cli("fit", "symbolic", str(path), "--out", str(tmp_path)) == 0
        rows = capsys.readouterr().out.splitlines()[1:-1]
        assert rows and all(line.split()[-1] == "undefined" for line in rows)
        doc = json.loads((tmp_path / "symbolic_model.json").read_text())
        assert doc["std_errors"] is None and doc["covariance"] is None

    def test_missing_probability_column_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,safe,risky,frame,choice\n0,1,2,1,0\n")
        assert run_cli("fit", "blackbox", str(bad), "--out", str(tmp_path)) == 2

    def test_missing_file(self, tmp_path):
        assert run_cli("fit", "symbolic", str(tmp_path / "nope.csv")) == 2

    def test_collinear_design_is_numerical_error(self, tmp_path):
        # frame constant +1 duplicates the raw design's intercept column (the
        # symbolic fit's screen drops a constant column)
        rows = ["id,safe,risky,p,frame,choice"]
        rng = np.random.Generator(np.random.PCG64(3))
        for i in range(40):
            rows.append(f"{i},{rng.uniform(0, 100):.6f},{rng.uniform(0, 150):.6f},0.5,1,{i % 2}")
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(rows) + "\n")
        assert run_cli("fit", "blackbox", str(path), "--out", str(tmp_path)) == 3

    def test_unknown_model_is_usage_error(self, dataset_csv):
        assert run_cli("fit", "oracle", str(dataset_csv)) == 1

    @pytest.mark.parametrize(
        "model, flags",
        [
            ("cpt", ["--restarts", "0"]),
            ("cpt", ["--gamma-max", "inf"]),
            ("cpt", ["--cpt-seed", "-1"]),
            ("symbolic", ["--l2", "-1"]),
            ("blackbox", ["--l2", "nan"]),
        ],
    )
    def test_bad_settings_are_config_errors(self, dataset_csv, tmp_path, model, flags):
        # the settings are checked as experiment checks them, before any fit
        out = tmp_path / "out"
        assert run_cli("fit", model, str(dataset_csv), *flags, "--out", str(out)) == 1
        assert not out.exists()


class TestEvaluate:
    def test_true_model_matches_bayes_rate(self, tmp_path):
        cfg = GeneratorConfig(n=20_000, seed=9)
        data = generate_dataset(cfg)
        csv_path = tmp_path / "dataset.csv"
        write_dataset_csv(data, csv_path)
        model_path = tmp_path / "true_model.json"
        model_path.write_text(
            json.dumps(
                {
                    "model": "symbolic",
                    "features": list(SYMBOLIC_NAMES),
                    "coeffs": list(DEFAULT_TRUE_COEFFS),
                }
            )
        )
        assert run_cli("evaluate", str(model_path), str(csv_path), "--out", str(tmp_path)) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())

        probs = sigmoid(design_matrix(data, SYMBOLIC_NAMES) @ np.asarray(cfg.true_coeffs))
        bayes = float(np.mean(np.maximum(probs, 1 - probs)))
        assert metrics["n_test"] == 20_000
        assert abs(metrics["accuracy"] - bayes) < 0.01

    def test_single_class_auc_is_null(self, tmp_path):
        cfg = GeneratorConfig(n=50, seed=3, true_coeffs=(1e6, 0, 0, 0, 0))
        csv_path = tmp_path / "ones.csv"
        write_dataset_csv(generate_dataset(cfg), csv_path)
        model_path = tmp_path / "m.json"
        model_path.write_text(
            json.dumps(
                {"model": "symbolic", "features": list(SYMBOLIC_NAMES), "coeffs": [0, 0, 0, 0, 0]}
            )
        )
        assert run_cli("evaluate", str(model_path), str(csv_path), "--out", str(tmp_path)) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["auc"] is None
        assert metrics["accuracy"] == 1.0  # probs 0.5 predict risky; choices are all risky

    def test_cpt_model_document(self, dataset_csv, tmp_path):
        model_path = tmp_path / "cpt.json"
        model_path.write_text(
            json.dumps(
                {"model": "cpt", "alpha": 0.8, "beta": 0.8, "lambda": 1.5, "gamma": 1.0, "eta": 0.1}
            )
        )
        assert run_cli("evaluate", str(model_path), str(dataset_csv), "--out", str(tmp_path)) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_missing_model_file(self, dataset_csv, tmp_path, capsys):
        assert run_cli("evaluate", str(tmp_path / "nope.json"), str(dataset_csv)) == 2
        assert "model file not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"model": "tree", "features": ["intercept"], "coeffs": [0.5]}, "unknown model kind"),
            (
                {"model": "symbolic", "features": ["intercept", "frame"], "coeffs": [0.5]},
                "lengths differ",
            ),
        ],
        ids=["unknown_kind", "length_mismatch"],
    )
    def test_ill_formed_model_document(self, dataset_csv, tmp_path, capsys, doc, message):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(doc))
        assert run_cli("evaluate", str(model_path), str(dataset_csv), "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("kind", [["cpt"], {"cpt": 1}, 3, None])
    def test_model_kind_of_another_json_type_is_unknown(self, dataset_csv, tmp_path, capsys, kind):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps({"model": kind, "features": ["intercept"], "coeffs": [0]}))
        assert run_cli("evaluate", str(model_path), str(dataset_csv), "--out", str(tmp_path)) == 2
        assert "unknown model kind" in capsys.readouterr().err

    def test_unknown_feature_name_is_input_error(self, dataset_csv, tmp_path):
        model_path = tmp_path / "weird.json"
        model_path.write_text(
            json.dumps({"model": "symbolic", "features": ["intercept", "zig"], "coeffs": [0, 1]})
        )
        assert run_cli("evaluate", str(model_path), str(dataset_csv), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize(
        "raw", [b"{not json", b'{"model": "cpt",}', b"", '{"model": "\u00e9"}'.encode()]
    )
    def test_unreadable_model_file(self, dataset_csv, tmp_path, capsys, raw):
        model_path = tmp_path / "m.json"
        model_path.write_bytes(raw)
        assert run_cli("evaluate", str(model_path), str(dataset_csv), "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: model file unreadable: ")

    def test_malformed_model_json(self, dataset_csv, tmp_path):
        model_path = tmp_path / "broken.json"
        model_path.write_text("{not json")
        assert run_cli("evaluate", str(model_path), str(dataset_csv)) == 2
        model_path.write_text(json.dumps({"model": "cpt", "alpha": 0.5}))
        assert run_cli("evaluate", str(model_path), str(dataset_csv)) == 2
        cpt_doc = {"model": "cpt", "alpha": 0.8, "beta": 0.8, "lambda": 1.5, "gamma": 1.0, "eta": 0.1}
        for doc in (
            {"model": "symbolic", "features": ["intercept"], "coeffs": ["a"]},
            {"model": "symbolic", "features": ["intercept"], "coeffs": 5},
            {"model": "blackbox", "features": "intercept", "coeffs": [0.5]},
            {"model": "symbolic", "features": ["intercept"], "coeffs": [True]},
            [1, 2],
            dict(cpt_doc, gamma="1.0"),
            dict(cpt_doc, eta=None),
        ):
            model_path.write_text(json.dumps(doc))
            assert run_cli("evaluate", str(model_path), str(dataset_csv)) == 2, doc

    @pytest.mark.parametrize("kind, names", [("symbolic", SYMBOLIC_NAMES), ("blackbox", RAW_NAMES)])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coeffs_are_parse_errors(self, dataset_csv, tmp_path, capsys, kind, names, bad):
        coeffs = [0.1] * len(names)
        coeffs[2] = bad
        model_path = tmp_path / "m.json"
        # json.dumps writes NaN and Infinity, which json.loads reads back
        model_path.write_text(json.dumps({"model": kind, "features": list(names), "coeffs": coeffs}))
        out = tmp_path / "out"
        assert run_cli("evaluate", str(model_path), str(dataset_csv), "--out", str(out)) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    @pytest.mark.parametrize(
        "doc",
        [
            # -1e308 * safe + 1e308 * risky is inf - inf
            {"model": "blackbox", "features": list(RAW_NAMES), "coeffs": [0, -1e308, 1e308, 0, 0]},
            # w(p) v(R) - v(S) is inf - inf where both payoffs are losses
            {"model": "cpt", "alpha": 0.5, "beta": 1.0, "lambda": 1e308, "gamma": 1.0, "eta": 1.0},
        ],
        ids=["blackbox", "cpt"],
    )
    def test_overflowing_model_is_numerical_error(self, tmp_path, capsys, doc):
        if doc["model"] == "cpt":
            data_path = tmp_path / "mixed.csv"
            write_dataset_csv(_mixed_sign_data(200, seed=1), data_path)
        else:
            assert run_cli("generate", "--n", "200", "--seed", "1", "--out", str(tmp_path)) == 0
            data_path = tmp_path / "dataset.csv"
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("evaluate", str(model_path), str(data_path), "--out", str(out)) == 3
        assert "non-finite probabilities" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()


class TestExperiment:
    def test_small_run_writes_everything(self, tmp_path):
        code = run_cli(
            "experiment", "--n", "700", "--restarts", "2", "--no-svg", "--out", str(tmp_path)
        )
        assert code == 0
        for name in ("report.json", "table1.csv", "reflection.csv", "dataset.csv"):
            assert (tmp_path / name).exists()

    def test_default_run_logs_no_warning(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO):
            assert run_cli("experiment", "--no-svg", "--out", str(tmp_path)) == 0
        assert caplog.messages
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "generator": {"n": 500, "seed": 8},
                    "cpt": {"n_restarts": 2},
                    "emit_svg": False,
                }
            )
        )
        out_a = tmp_path / "a"
        assert run_cli("experiment", "--config", str(cfg_path), "--out", str(out_a)) == 0
        assert json.loads((out_a / "report.json").read_text())["config"]["generator"]["n"] == 500

        out_b = tmp_path / "b"
        code = run_cli(
            "experiment", "--config", str(cfg_path), "--n", "320", "--out", str(out_b)
        )
        assert code == 0
        doc = json.loads((out_b / "report.json").read_text())
        assert doc["config"]["generator"]["n"] == 320
        assert doc["config"]["generator"]["seed"] == 8
        assert len((out_b / "dataset.csv").read_text().splitlines()) == 321

    def test_gain_only_cpt_fit_stays_finite(self, tmp_path):
        # gain-only data leaves lambda unidentified; on this dataset a search
        # that moved it drifted until exp overflowed and the run exited 2
        code = run_cli(
            "experiment", "--n", "5000", "--seed", "1000074", "--restarts", "5",
            "--out", str(tmp_path),
        )
        assert code == 0
        fit = json.loads((tmp_path / "report.json").read_text())["models"]["cpt"]["fit"]
        assert all(np.isfinite(fit[name]) for name in ("alpha", "beta", "lambda", "gamma", "eta"))
        assert fit["std_errors"]["beta"] is None
        assert fit["std_errors"]["lambda"] is None
        assert fit["information_singular"] is True

    def test_non_finite_cpt_optimum_is_numerical_error(self, tmp_path, monkeypatch):
        def diverged(prep, t0, gamma_max):
            t = np.array(t0, dtype=float)
            t[2] = 1e4  # lambda = exp(1e4) overflows to inf
            return t, 0.5, True, 1

        monkeypatch.setattr(cpt, "_newton", diverged)
        code = run_cli(
            "experiment", "--n", "300", "--restarts", "2", "--no-svg", "--out", str(tmp_path)
        )
        assert code == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["partial"] is True
        assert report["failed_stage"] == "fit_cpt"
        assert "non-finite" in report["error"]

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tau": 0.2}))
        assert run_cli("experiment", "--config", str(cfg_path), "--out", str(tmp_path)) == 1

    def test_missing_config_file(self, tmp_path):
        assert run_cli("experiment", "--config", str(tmp_path / "nope.json")) == 1

    @pytest.mark.parametrize("key", ["select_on_full", "standardize_blackbox"])
    def test_screening_on_the_full_data_is_no_option(self, dataset_csv, tmp_path, capsys, key):
        # removed options: the test rows must not choose the features that
        # are scored on them, and a per-column ridge weight changed no output
        # at the default l2 = 0
        out = tmp_path / "out"
        flag = "--" + key.replace("_", "-")
        for argv in (["experiment"], ["fit", "blackbox", str(dataset_csv)]):
            assert run_cli(*argv, flag, "--out", str(out)) == 1
            assert capsys.readouterr().err == f"error: unrecognized arguments: {flag}\n"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: True}))
        assert run_cli("experiment", "--config", str(cfg_path), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", "config file unreadable"), ("[1, 2]", "must hold a JSON object")],
        ids=["unreadable", "not_an_object"],
    )
    def test_bad_config_file(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert run_cli("experiment", "--config", str(cfg_path), "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, flags",
        [
            ({"emit_svg": "yes"}, []),
            ({"generator": [1]}, ["--n", "100"]),
            ({}, ["--gamma-max", "inf"]),
        ],
    )
    def test_ill_typed_config_is_config_error(self, tmp_path, doc, flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("experiment", "--config", str(cfg_path), *flags, "--out", str(out)) == 1
        assert not out.exists()


class TestUsage:
    def test_no_arguments(self):
        assert main([]) == 1

    def test_unknown_flag(self, tmp_path):
        assert run_cli("generate", "--frobnicate", "--out", str(tmp_path)) == 1

    def test_flag_sets(self):
        def commands(parser):
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return sub.choices

        def flags(parser):
            return {f for a in parser._actions for f in a.option_strings} - {"-h", "--help"}

        top = commands(build_parser())
        assert flags(top["generate"]) == {"--n", "--seed", "--true-coeffs", "--out"}
        assert flags(top["fit"]) == set()
        # each family's fit takes the flags of the settings it reads
        assert {key: flags(p) for key, p in commands(top["fit"]).items()} == {
            "symbolic": {"--tau-v", "--tau-eta", "--l2", "--out"},
            "blackbox": {"--l2", "--out"},
            "cpt": {"--restarts", "--cpt-seed", "--gamma-max", "--out"},
        }
        assert flags(top["experiment"]) == {
            "--n", "--seed", "--true-coeffs", "--train-frac", "--split-seed", "--tau-v",
            "--tau-eta", "--l2", "--restarts",
            "--cpt-seed", "--gamma-max", "--no-svg", "--config", "--out",
        }
        assert flags(top["evaluate"]) == {"--out"}

    def test_fit_refuses_the_settings_its_family_does_not_read(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        assert run_cli("fit", "cpt", data, "--tau-v", "0.9") == 1
        assert run_cli("fit", "blackbox", data, "--restarts", "3") == 1
        assert "unrecognized arguments: --restarts 3" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            run_cli("fit", "symbolic", "--help")
        usage = capsys.readouterr().out
        assert "--tau-v" in usage
        assert "--restarts" not in usage and "--gamma-max" not in usage
        for argv, cfg in (
            (
                ["symbolic", "--tau-v", "0.2", "--tau-eta", "0.03", "--l2", "0.5"],
                ExperimentConfig(tau_v=0.2, tau_eta=0.03, l2=0.5),
            ),
            (["blackbox", "--l2", "2"], ExperimentConfig(l2=2.0)),
            (
                ["cpt", "--restarts", "6", "--cpt-seed", "8", "--gamma-max", "4"],
                ExperimentConfig(cpt=CptSettings(n_restarts=6, seed=8, gamma_max=4.0)),
            ),
        ):
            args = build_parser().parse_args(["fit", argv[0], data, *argv[1:]])
            assert _config(args, {}) == cfg

    def test_flags_set_their_config_fields(self):
        argv = [
            "experiment", "--n", "300", "--seed", "3", "--true-coeffs=1,2,3,4,5",
            "--train-frac", "0.7", "--split-seed", "4", "--tau-v", "0.2", "--tau-eta", "0.03",
            "--l2", "0.5", "--restarts", "6",
            "--cpt-seed", "8", "--gamma-max", "4", "--no-svg",
        ]
        cfg = _config(build_parser().parse_args(argv), {})
        assert cfg == ExperimentConfig(
            generator=GeneratorConfig(n=300, seed=3, true_coeffs=(1, 2, 3, 4, 5)),
            train_frac=0.7, split_seed=4, tau_v=0.2, tau_eta=0.03, l2=0.5,
            cpt=CptSettings(n_restarts=6, seed=8, gamma_max=4.0), emit_svg=False,
        )
        assert _config(build_parser().parse_args(["experiment"]), {}) == ExperimentConfig()
        argv = ["fit", "symbolic", "data.csv", "--tau-v", "0.05", "--tau-eta", "0.02"]
        cfg = _config(build_parser().parse_args(argv), {})
        assert cfg == ExperimentConfig(tau_v=0.05, tau_eta=0.02)


def package_env() -> dict:
    """Environment for a subprocess that imports the copy of the package
    that this test imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(riskchoice.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_entry_exits_with_the_status_of_main(tmp_path, monkeypatch):
    for argv, status in (
        (["generate", "--n", "5", "--out", str(tmp_path)], 0),
        (["generate", "--n", "0", "--out", str(tmp_path)], 1),
    ):
        monkeypatch.setattr(sys, "argv", ["riskchoice", *argv])
        with pytest.raises(SystemExit) as info:
            entry()
        assert info.value.code == status


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "riskchoice.cli", "generate", "--n", "5", "--seed", "1",
         "--out", str(tmp_path)],
        env=package_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "dataset.csv").exists()
    assert result.stdout == ""  # data goes to files, diagnostics to stderr


def test_package_runs_as_a_module(tmp_path):
    ok = subprocess.run(
        [sys.executable, "-m", "riskchoice", "generate", "--n", "5", "--seed", "1",
         "--out", str(tmp_path)],
        env=package_env(), capture_output=True, text=True,
    )
    assert ok.returncode == 0
    assert (tmp_path / "dataset.csv").read_bytes() == (
        generate_and_read(tmp_path / "again", 5, 1)
    )
    # the exit code of a failed command reaches the shell
    missing = subprocess.run(
        [sys.executable, "-m", "riskchoice", "experiment", "--config",
         str(tmp_path / "nope.json")],
        env=package_env(), capture_output=True, text=True,
    )
    assert missing.returncode == 1
    assert "error" in missing.stderr


@pytest.mark.parametrize(
    "command, code, what",
    [
        (["experiment", "--config", "{dir}"], 1, "config file"),
        (["evaluate", "{dir}", "{csv}"], 2, "model file"),
        (["fit", "symbolic", "{dir}"], 2, "dataset file"),
    ],
    ids=["config", "model", "dataset"],
)
def test_a_directory_as_input_file_names_the_file(
    dataset_csv, tmp_path, capsys, command, code, what
):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = [arg.format(dir=folder, csv=dataset_csv) for arg in command]
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == code
    err = capsys.readouterr().err
    assert err == f"error: {what} unreadable: [Errno 21] Is a directory: '{folder}'\n"


def generate_and_read(out, n, seed) -> bytes:
    assert run_cli("generate", "--n", str(n), "--seed", str(seed), "--out", str(out)) == 0
    return (out / "dataset.csv").read_bytes()


def test_import_loads_neither_scipy_stats_nor_scipy_optimize():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, riskchoice, riskchoice.cli; "
         "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"],
        env=package_env(), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_import_loads_no_scipy_module():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, riskchoice, riskchoice.cli; "
         "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        env=package_env(), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# The exit-code contract: whatever the input, ``main`` returns 0 or the code
# of a documented error class, and raises nothing. The strategies draw mostly
# valid input with a few faults, so that every code is reached.

numbers = st.integers() | st.floats()
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# ill-typed or out-of-range, but never a valid integer large enough to make
# an example slow
ill_typed = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.text(max_size=4)
    | st.lists(st.integers(-3, 3), max_size=2)
    | st.sampled_from([-1, 0, 2**63, 2**70])
)

payoffs = st.floats(-200, 200) | st.floats(allow_nan=False, allow_infinity=False)
valid_rows = st.tuples(
    st.integers(0, 10**6), payoffs, payoffs, st.floats(0.01, 0.99), st.sampled_from([-1, 1]),
    st.integers(0, 1),
)
any_rows = st.lists(
    numbers | st.text(alphabet="0123456789+-.eEinfa x\u00e9", max_size=6), max_size=8
)


@st.composite
def dataset_bytes(draw) -> bytes:
    header = "id,safe,risky,p,frame,choice"
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from(["id,safe,risky,p,choice", "", "id;safe"]))
    rows = draw(st.lists(valid_rows, max_size=40))
    for at in draw(st.sets(st.integers(0, max(len(rows) - 1, 0)), max_size=2)):
        rows[at:at + 1] = [draw(any_rows)]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    return (end.join(lines) + end).encode("utf-8")


@st.composite
def model_documents(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    kind = draw(st.sampled_from([*MODEL_KEYS, "tree"]))
    # values near the float limit make a latent utility inf - inf
    extreme = st.sampled_from([1e308, -1e308])
    if kind == "cpt":
        powers = st.floats(0.05, 1)
        doc = {
            "alpha": draw(powers),
            "beta": draw(powers),
            "lambda": draw(st.floats(0.05, 3) | extreme),
            "gamma": draw(st.floats(0.05, 3)),
            "eta": draw(st.floats(0.05, 3) | extreme),
        }
    else:
        names = draw(st.lists(st.sampled_from([*SYMBOLIC_NAMES, *RAW_NAMES, "zig"]), max_size=6))
        coeffs = st.lists(st.floats(-3, 3) | extreme, min_size=len(names), max_size=len(names))
        doc = {"features": names, "coeffs": draw(coeffs)}
    doc["model"] = kind
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=2)):
        if draw(st.booleans()):
            doc[key] = draw(numbers | json_values)
        else:
            del doc[key]
    return doc


@st.composite
def config_documents(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    coeffs = st.floats(-3, 3) | st.floats(allow_nan=False, allow_infinity=False)
    doc = {
        "generator": {
            "n": draw(st.integers(1, 80)),
            "seed": draw(st.integers(0)),
            "true_coeffs": draw(st.lists(coeffs, min_size=5, max_size=5)),
        },
        "train_frac": draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
        "split_seed": draw(st.integers(0)),
        "tau_v": draw(st.floats(0, 1)),
        "tau_eta": draw(st.floats(0, 1)),
        "l2": draw(st.floats(0, 10) | st.floats(0, allow_infinity=False)),
        "cpt": {
            "n_restarts": draw(st.integers(1, 2)),
            "seed": draw(st.integers(0)),
            "gamma_max": draw(st.floats(0.1, 10) | st.floats(0, exclude_min=True)),
        },
        "emit_svg": draw(st.booleans()),
    }
    sections = [doc, doc["generator"], doc["cpt"]]
    fields = [(section, key) for section in sections for key in section]
    for at in draw(st.sets(st.integers(0, len(fields) - 1), max_size=2)):
        section, key = fields[at]
        # a missing size would take its default, the paper's 5000 rows and
        # 20 restarts
        if key in ("generator", "n", "cpt", "n_restarts") or draw(st.booleans()):
            section[key] = draw(ill_typed)
        else:
            del section[key]
    return doc


def _scratch(tmp_path_factory, name) -> Path:
    """A folder that every example of one property test reuses."""
    folder = tmp_path_factory.getbasetemp() / name
    folder.mkdir(exist_ok=True)
    return folder


class TestExitCodes:
    @settings(max_examples=200)
    @given(model=st.sampled_from(MODEL_KEYS), raw=dataset_bytes(), restarts=st.integers(1, 2))
    def test_fit_on_any_csv(self, tmp_path_factory, model, raw, restarts):
        folder = _scratch(tmp_path_factory, "fit")
        path = folder / "data.csv"
        path.write_bytes(raw)
        # only the CPT fit reads the restart count
        flags = ["--restarts", str(restarts)] if model == "cpt" else []
        code = run_cli("fit", model, str(path), *flags, "--out", str(folder))
        assert code in (0, 2, 3)

    @settings(max_examples=200)
    @given(doc=model_documents(), ascii_only=st.booleans(), mixed=st.booleans())
    def test_evaluate_any_model_document(self, tmp_path_factory, doc, ascii_only, mixed):
        folder = _scratch(tmp_path_factory, "evaluate")
        data = folder / f"data_{mixed}.csv"
        if not data.exists():
            arrays = _mixed_sign_data(50, 3) if mixed else generate_dataset(GeneratorConfig(n=50))
            write_dataset_csv(arrays, data)
        path = folder / "model.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=ascii_only).encode("utf-8"))
        assert run_cli("evaluate", str(path), str(data), "--out", str(folder)) in (0, 2, 3)

    @settings(max_examples=200)
    @given(doc=config_documents())
    def test_experiment_on_any_config_document(self, tmp_path_factory, doc):
        folder = _scratch(tmp_path_factory, "experiment")
        path = folder / "cfg.json"
        path.write_text(json.dumps(doc))
        code = run_cli("experiment", "--config", str(path), "--out", str(folder / "out"))
        assert code in (0, 1, 2, 3)
