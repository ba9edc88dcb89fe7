import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import riskchoice
from riskchoice import DEFAULT_TRUE_COEFFS, GeneratorConfig, cpt, design_matrix, generate_dataset
from riskchoice.cli import _config, build_parser, main
from riskchoice.features import RAW_NAMES, SYMBOLIC_NAMES
from riskchoice.glm import sigmoid
from riskchoice.pipeline import CptSettings, ExperimentConfig
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
        assert run_cli("fit", "symbolic", str(dataset_csv), "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "symbolic_model.json").read_text())
        assert doc["model"] == "symbolic"
        assert doc["features"] == list(SYMBOLIC_NAMES)
        assert len(doc["coeffs"]) == 5
        table = capsys.readouterr().out
        assert "intercept" in table and "coeff" in table

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

    def test_missing_probability_column_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,safe,risky,frame,choice\n0,1,2,1,0\n")
        assert run_cli("fit", "blackbox", str(bad), "--out", str(tmp_path)) == 2

    def test_missing_file(self, tmp_path):
        assert run_cli("fit", "symbolic", str(tmp_path / "nope.csv")) == 2

    def test_collinear_design_is_numerical_error(self, tmp_path):
        # frame constant +1 duplicates the intercept column
        rows = ["id,safe,risky,p,frame,choice"]
        rng = np.random.Generator(np.random.PCG64(3))
        for i in range(40):
            rows.append(f"{i},{rng.uniform(0, 100):.6f},{rng.uniform(0, 150):.6f},0.5,1,{i % 2}")
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(rows) + "\n")
        assert run_cli("fit", "symbolic", str(path), "--out", str(tmp_path)) == 3

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

    def test_unknown_feature_name_is_input_error(self, dataset_csv, tmp_path):
        model_path = tmp_path / "weird.json"
        model_path.write_text(
            json.dumps({"model": "symbolic", "features": ["intercept", "zig"], "coeffs": [0, 1]})
        )
        assert run_cli("evaluate", str(model_path), str(dataset_csv), "--out", str(tmp_path)) == 2

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
        def diverged(fun, x0, **kwargs):
            x = np.array(x0, dtype=float)
            x[2] = 1e4  # lambda = exp(1e4) overflows to inf
            return OptimizeResult(x=x, fun=0.5, success=True, nfev=1)

        monkeypatch.setattr(cpt, "minimize", diverged)
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

    @pytest.mark.parametrize(
        "doc, flags",
        [
            ({"select_on_full": "yes"}, []),
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
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

        def flags(command):
            return {f for a in sub.choices[command]._actions for f in a.option_strings} - {
                "-h", "--help"
            }

        assert flags("generate") == {"--n", "--seed", "--true-coeffs", "--out"}
        assert flags("fit") == {
            "--l2", "--standardize-blackbox", "--restarts", "--cpt-seed", "--gamma-max", "--out"
        }
        assert flags("experiment") == {
            "--n", "--seed", "--true-coeffs", "--train-frac", "--split-seed", "--tau-v",
            "--tau-eta", "--l2", "--select-on-full", "--standardize-blackbox", "--restarts",
            "--cpt-seed", "--gamma-max", "--no-svg", "--config", "--out",
        }
        assert flags("evaluate") == {"--out"}

    def test_flags_set_their_config_fields(self):
        argv = [
            "experiment", "--n", "300", "--seed", "3", "--true-coeffs=1,2,3,4,5",
            "--train-frac", "0.7", "--split-seed", "4", "--tau-v", "0.2", "--tau-eta", "0.03",
            "--l2", "0.5", "--select-on-full", "--standardize-blackbox", "--restarts", "6",
            "--cpt-seed", "8", "--gamma-max", "4", "--no-svg",
        ]
        cfg = _config(build_parser().parse_args(argv), {})
        assert cfg == ExperimentConfig(
            generator=GeneratorConfig(n=300, seed=3, true_coeffs=(1, 2, 3, 4, 5)),
            train_frac=0.7, split_seed=4, tau_v=0.2, tau_eta=0.03, l2=0.5,
            select_on_full=True, standardize_blackbox=True,
            cpt=CptSettings(n_restarts=6, seed=8, gamma_max=4.0), emit_svg=False,
        )
        assert _config(build_parser().parse_args(["experiment"]), {}) == ExperimentConfig()


def test_module_entry_point(tmp_path):
    # the package runs as a subprocess through the module entry, importing
    # the copy of the package that this test imported
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(riskchoice.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-m", "riskchoice.cli", "generate", "--n", "5", "--seed", "1",
         "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "dataset.csv").exists()
    assert result.stdout == ""  # data goes to files, diagnostics to stderr
