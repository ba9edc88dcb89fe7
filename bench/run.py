"""Run one riskchoice benchmark workload and print its metrics.

    python3 bench/run.py --workload experiment-5k --seed 1 --seconds 45 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. With ``--trace 0`` set-up is first timed in three fresh
interpreters. Then one more fresh interpreter runs the workload's closed loop
(one caller; the next iteration starts when the previous one ends) for
``--seconds``, checking every iteration's outputs. With ``--trace 0`` the
last line of output holds the end-to-end metrics named in BENCHMARK.json,
with ``--trace 1`` the per-layer metrics of a traced run. Lines before it
give the same figures for people, plus the machine facts. The exit code is
non-zero, with no result line, when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("experiment-5k", "datapath-1m", "cpt-mixed-20k")
# Numeric libraries run single-threaded: steadier on a shared machine, and
# never more threads than the machine has.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
# a run must end within 180 s
DEADLINE_S = 175.0

LAYERS = ("scenario", "features", "glm", "cpt", "evaluation", "charts", "pipeline", "cli")
# per-layer times that sum the traced spans of these names
SPAN_METRICS = {
    "scenario.generate_s": ("scenario.generate_dataset",),
    "scenario.write_csv_s": ("scenario.write_dataset_csv",),
    "scenario.read_csv_s": ("scenario.read_dataset_csv",),
    "scenario.as_arrays_s": ("scenario.as_arrays",),
    "evaluation.split_s": ("evaluation.split",),
    "evaluation.score_s": (
        "evaluation.evaluate_predictions", "evaluation.accuracy", "evaluation.auc",
    ),
    "features.select_s": ("features.select_features",),
    "features.design_matrix_s": ("features.design_matrix",),
    "glm.fit_symbolic_s": ("glm.fit_symbolic",),
    "glm.fit_blackbox_s": ("glm.fit_blackbox",),
    "cpt.fit_s": ("cpt.fit_cpt",),
    "cpt.predict_s": ("cpt.choice_prob_array",),
    "charts.svg_s": ("charts.svg_line_chart",),
}
# counts that repeat exactly for one dataset; 0 where the layer is bypassed
COUNT_METRICS = (
    "scenario.csv_bytes",
    "glm.irls_iters_symbolic",
    "glm.irls_iters_blackbox",
    "cpt.evals",
    "cpt.restarts_converged_frac",
    "cpt.restarts_at_best_frac",
    "cpt.identified_params",
)


class BenchError(Exception):
    pass


def worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} ran past {timeout:.0f} s and was stopped") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"max {max(values):.4f} s of {n} iterations (a tail percentile needs 11 or more)"
    pct = 100 * (n - 10) // n
    return f"p{pct} {sorted(values)[n - 11]:.4f} s of {n} iterations"


def median_of(records: list[dict], get) -> float:
    return statistics.median(get(r) for r in records)


def end_to_end(iterations: list[dict], rows: int, peak_rss_mb: float) -> dict[str, float]:
    wall = statistics.median(r["wall_s"] for r in iterations)
    scored = [r for r in iterations if r.get("quality")]
    quality = {
        key: statistics.median(r["quality"][key] for r in scored) if scored else float("nan")
        for key in ("fit_nll", "heldout_auc")
    }
    return {"wall_s": wall, "rows_per_s": rows / wall, "peak_rss_mb": peak_rss_mb, **quality}


def per_layer(iterations: list[dict], loglik_us_per_row: float) -> dict[str, float]:
    # iterations alternate untraced, traced on the same dataset
    pairs = [
        (iterations[i - 1], r) for i, r in enumerate(iterations) if r["traced"] and "trace" in r
    ]
    traced = [r for _, r in pairs]
    m: dict[str, float] = {}
    for name, spans in SPAN_METRICS.items():
        m[name] = median_of(traced, lambda r: sum(r["trace"]["by_name"].get(s, 0.0) for s in spans))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = median_of(
            traced, lambda r: r["trace"]["self_by_layer"].get(layer, 0.0)
        )
    counted = [r for r in traced if r.get("counts")]
    for name in COUNT_METRICS:
        m[name] = statistics.median_low(r["counts"].get(name, 0) for r in counted) if counted else 0
    mb = m["scenario.csv_bytes"] / 1e6
    for way in ("write", "read"):
        seconds = m[f"scenario.{way}_csv_s"]
        m[f"scenario.{way}_mb_per_s"] = mb / seconds if seconds else 0.0
    m["cpt.loglik_us_per_row"] = loglik_us_per_row
    m["trace.wall_s"] = median_of(traced, lambda r: r["wall_s"])
    m["trace.untraced_wall_s"] = statistics.median(
        r["wall_s"] for r in iterations if not r["traced"]
    )
    m["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    m["trace.unattributed_s"] = median_of(traced, lambda r: r["trace"]["root_self_s"])
    m["trace.spans"] = median_of(traced, lambda r: r["trace"]["spans"])
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    started = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--tiny"] if args.tiny else []

    try:
        setup: list[float] = []
        if not args.trace:
            setup = [worker(["setup", *common], timeout=60)["setup_s"] for _ in range(SETUP_PROBES)]
        run = worker(
            ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=DEADLINE_S - (time.perf_counter() - started),
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    iterations = run["iterations"]
    failed = [r for r in iterations if r["problems"]]
    m = run["machine"]
    print(
        f"riskchoice benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds} s, trace {args.trace}{', tiny inputs' if args.tiny else ''}"
    )
    print(
        f"machine: nproc {m['nproc']}, Python {m['python']}, numpy {m['numpy']}, "
        f"scipy {m['scipy']}, BLAS threads pinned to {m['blas_threads']}"
    )
    for r in iterations:
        kind = "traced" if r["traced"] else "untraced"
        print(f"  iteration on dataset seed {r['dataset']} ({kind}): {r['wall_s']:.4f} s")
        for line in r.get("notes", []) + r["problems"]:
            print(f"    {line}")
        if r.get("counts"):
            print("    counts: " + ", ".join(f"{k} {v:.10g}" for k, v in r["counts"].items()))

    if args.trace and not any("trace" in r for r in iterations):
        print("bench: no traced iteration fitted in the time a run is allowed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(iterations, run["loglik_us_per_row"])
        names = spec["per_layer"]
        gap = max(r["trace"]["root_self_s"] for r in iterations if "trace" in r)
        overhead = metrics["trace.overhead_s"]
        print(
            f"in each traced iteration the layer self times sum to its wall less at most "
            f"{gap:.6f} s spent outside every layer span, "
            f"{'within' if gap <= abs(overhead) else 'NOT within'} "
            f"the tracing overhead of {overhead:+.4f} s (median traced minus untraced wall "
            f"on the same dataset)"
        )
        print(f"spans written to {run['spans_file']}")
    else:
        metrics = end_to_end(iterations, run["rows"], run["peak_rss_mb"])
        metrics["setup_s"] = statistics.median(setup)
        names = spec["end_to_end"]
        print(f"wall_s tail: {tail([r['wall_s'] for r in iterations])}")
        print(f"setup_s is the median of {len(setup)} fresh interpreters")
    n = len(iterations)
    print(f"failed_frac {len(failed) / n:.4g} ({len(failed)} of {n} iterations)")
    for entry in names:
        print(f"{entry['name']:<28} {metrics[entry['name']]:>16.6g} {entry['unit']}")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(iterations),
        "failed": len(failed),
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
