"""Time the 1M-row model layers of two checkouts in process, alternating.

Each probe is a fresh interpreter that imports ``riskchoice`` from one
checkout's ``src``, with BLAS on one thread. It generates the dataset of
``--seed`` (``--rows`` rows), writes it to a temporary CSV and times, as the
``datapath-1m`` workload runs them: the CSV read, the train/test split,
screening, the four design matrices (symbolic and raw, train and test), both
IRLS fits, the two test-set predictions, and one likelihood pass
(``glm.gradient_and_hessian``) on the training rows' symbolic design at the
fitted coefficients. Every stage after the read runs ``--reps`` times in the
probe and reports its median. A probe also hashes its results (screening,
coefficients, covariances, log-likelihoods, predictions), so the two sides
can be checked to give the same bits.

Pairs alternate which checkout runs first. The summary gives, per stage, each
side's median over pairs, the change's pairwise ratio, and the pairs the
change won, and is written with the machine's facts to ``--out``.

The likelihood pass is also timed in one interpreter that imports both
checkouts' packages side by side and alternates their calls on the same
training rows (``--pass-calls`` each), so that the two sides share every
condition of the process; the results of the two sides must be equal bits.

    python tools/bench_columnar.py PARENT_CHECKOUT [--pairs 6] [--rows 1000000]
        [--reps 3] [--seed 11] [--pass-calls 30] [--out BENCH_columnar.json]

The change is the checkout this script lives in.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
STAGES = (
    "read_csv", "split", "screening", "designs", "fits", "predict", "irls_pass",
)


def _timed(reps, fn):
    """The median wall time of ``reps`` calls of fn, and its last result."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), out


def probe(rows: int, seed: int, reps: int) -> dict:
    """Stage times and result hashes of the riskchoice that is importable."""
    import numpy as np

    from riskchoice import evaluation, features, glm, pipeline, scenario
    from riskchoice.features import RAW_NAMES, SYMBOLIC_NAMES

    data = scenario.generate_dataset(scenario.GeneratorConfig(n=rows, seed=seed))
    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        scenario.write_dataset_csv(data, path)
        del data
        times["read_csv"], back = _timed(reps, lambda: scenario.read_dataset_csv(path))
    times["split"], (train, test) = _timed(
        reps,
        lambda: evaluation.split(back, pipeline.DEFAULT_TRAIN_FRAC, pipeline.DEFAULT_SPLIT_SEED),
    )
    del back
    times["screening"], report = _timed(reps, lambda: features.select_features(train))
    roles = {"symbolic": SYMBOLIC_NAMES, "blackbox": RAW_NAMES}
    times["designs"], designs = _timed(
        reps,
        lambda: {
            (role, side): features.design_matrix(part, names)
            for role, names in roles.items()
            for side, part in (("train", train), ("test", test))
        },
    )
    tol = glm.DEFAULT_TOL * len(train)
    times["fits"], fits = _timed(
        reps,
        lambda: {
            role: glm.fit_logistic(
                designs[role, "train"], train.choice, feature_names=names, tol=tol
            )
            for role, names in roles.items()
        },
    )
    times["predict"], probs = _timed(
        reps, lambda: {role: fits[role].predict(designs[role, "test"]) for role in roles}
    )
    coeffs, design = fits["symbolic"].coeffs, designs["symbolic", "train"]
    times["irls_pass"], (grad, hess) = _timed(
        reps, lambda: glm.gradient_and_hessian(coeffs, design, train.choice)
    )

    digest = hashlib.sha256(json.dumps(report.to_json_list()).encode())
    for role in roles:
        fit = fits[role]
        for array in (fit.coeffs, fit.covariance, np.float64(fit.log_likelihood), probs[role]):
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(str(fit.iterations).encode())
    for array in (grad, hess):
        digest.update(array.tobytes())
    return {
        "times_s": times,
        "results_sha256": digest.hexdigest(),
        "iterations": {role: fits[role].iterations for role in roles},
        "numpy": np.__version__,
    }


def _package(alias: str, checkout: Path):
    """The riskchoice package of ``checkout``, imported under ``alias``."""
    init = checkout / "src" / "riskchoice" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def interleaved_pass(sides: dict[str, Path], rows: int, seed: int, calls: int) -> dict:
    """Times of ``glm.gradient_and_hessian`` on the training rows' symbolic
    design at the generating coefficients, alternating the two sides'
    packages in this process."""
    import numpy as np

    packages = {side: _package(f"riskchoice_{side}", path) for side, path in sides.items()}
    change = packages["change"]
    data = change.generate_dataset(change.GeneratorConfig(n=rows, seed=seed))
    train, _ = change.split(data, 0.8, 0)
    y = train.choice.astype(float)
    coeffs = np.asarray(change.DEFAULT_TRUE_COEFFS)
    designs = {}
    for side, package in packages.items():
        rows_of_side = package.ScenarioArrays(**vars(train))
        designs[side] = package.design_matrix(rows_of_side, package.features.SYMBOLIC_NAMES)
    results = {
        side: package.glm.gradient_and_hessian(coeffs, designs[side], y)
        for side, package in packages.items()
    }
    times = {side: [] for side in packages}
    for call in range(calls):
        for side in ("parent", "change") if call % 2 == 0 else ("change", "parent"):
            start = time.perf_counter()
            packages[side].glm.gradient_and_hessian(coeffs, designs[side], y)
            times[side].append(time.perf_counter() - start)
    return {
        "parent_median_s": statistics.median(times["parent"]),
        "change_median_s": statistics.median(times["change"]),
        "median_pair_change": statistics.median(
            c / p - 1.0 for p, c in zip(times["parent"], times["change"])
        ),
        "change_faster_calls": sum(c < p for p, c in zip(times["parent"], times["change"])),
        "calls_per_side": calls,
        "results_identical": all(
            np.array_equal(a, b) for a, b in zip(results["parent"], results["change"])
        ),
    }


def _git(checkout: Path, *args) -> str | None:
    done = subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=False
    )
    return done.stdout.strip() if done.returncode == 0 else None


def _run_probe(checkout: Path, args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **{v: "1" for v in THREAD_VARS})
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--probe",
        "--rows", str(args.rows), "--seed", str(args.seed), "--reps", str(args.reps),
    ]
    done = subprocess.run(cmd, env=env, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path, help="the parent's checkout")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--pass-calls", type=int, default=30)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_columnar.json")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps(probe(args.rows, args.seed, args.reps)))
        return 0
    if args.parent is None:
        parser.error("the parent's checkout is required")
    # BLAS on one thread here too, before numpy is first imported
    os.environ.update({var: "1" for var in THREAD_VARS})

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run_probe(sides[side], args))
        line = "  ".join(
            f"{stage} {runs['parent'][-1]['times_s'][stage]:.4f}/"
            f"{runs['change'][-1]['times_s'][stage]:.4f}"
            for stage in STAGES
        )
        print(f"pair {pair} ({order[0]} first): {line}", flush=True)

    stages = {}
    for stage in STAGES:
        parent = [run["times_s"][stage] for run in runs["parent"]]
        change = [run["times_s"][stage] for run in runs["change"]]
        ratios = [c / p for p, c in zip(parent, change)]
        stages[stage] = {
            "parent_median_s": statistics.median(parent),
            "change_median_s": statistics.median(change),
            "parent_quartiles_s": _quartiles(parent),
            "change_quartiles_s": _quartiles(change),
            "median_speedup": statistics.median(p / c for p, c in zip(parent, change)),
            "median_pair_change": statistics.median(ratios) - 1.0,
            "change_faster_pairs": sum(c < p for p, c in zip(parent, change)),
            "parent_runs_s": parent,
            "change_runs_s": change,
        }
    same_process = interleaved_pass(sides, args.rows, args.seed, args.pass_calls)
    hashes = {side: sorted({run["results_sha256"] for run in runs[side]}) for side in sides}
    doc = {
        "what": "In-process stage times of the 1M-row model layers, parent against change",
        "command": "python tools/bench_columnar.py PARENT_CHECKOUT --pairs "
        f"{args.pairs} --rows {args.rows} --reps {args.reps} --seed {args.seed} "
        f"--pass-calls {args.pass_calls}",
        "checkouts": {
            side: {
                "head": _git(path, "rev-parse", "HEAD"),
                "src_differs_from_head": _git(path, "status", "--porcelain", "--", "src")
                not in ("", None),
            }
            for side, path in sides.items()
        },
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": runs["change"][0]["numpy"],
            "platform": platform.platform(),
            "blas_threads": 1,
        },
        "protocol": "each probe is a fresh interpreter; pairs alternate which side runs first "
        "(even pair index: parent first); each stage's time is the median of --reps calls in "
        "one probe",
        "results_identical": hashes["parent"] == hashes["change"]
        and len(hashes["change"]) == 1
        and same_process["results_identical"],
        "results_sha256": hashes,
        "iterations": runs["change"][0]["iterations"],
        "stages": stages,
        "irls_pass_same_process": same_process,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for stage, row in stages.items():
        print(
            f"{stage:10s} {row['parent_median_s']:.4f} -> {row['change_median_s']:.4f} s "
            f"(x{row['median_speedup']:.2f}, faster in {row['change_faster_pairs']}/{args.pairs})"
        )
    print(
        f"irls_pass in one process: {same_process['parent_median_s']:.4f} -> "
        f"{same_process['change_median_s']:.4f} s "
        f"({same_process['median_pair_change']:+.1%} per pair, faster in "
        f"{same_process['change_faster_calls']}/{args.pass_calls})"
    )
    print(f"results identical: {doc['results_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
