"""Child process of bench/run.py; each invocation is a fresh interpreter.

``setup`` times importing riskchoice and building the first inputs of a
workload and prints ``{"setup_s": ...}``. ``measure`` runs the workload's
closed loop for the given seconds and prints one JSON result line. Both exit
non-zero when riskchoice cannot be imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# A run starts no iteration that could end later than this after it began,
# so that it stays inside the 180 s a run is allowed. Whether an iteration
# could end later is judged by the longest iteration so far.
BUDGET_S = 140.0
# the likelihood kernel is timed for at least this long and this many calls
LOGLIK_MIN_S = 0.3
LOGLIK_MIN_CALLS = 5


def load_workloads():
    sys.path.insert(0, str(SRC))
    try:
        import riskchoice
    except ImportError as exc:
        sys.exit(f"bench: cannot import riskchoice from {SRC}: {exc}")
    if not Path(riskchoice.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: riskchoice was imported from {riskchoice.__file__}, not from {SRC}")
    import workloads

    return workloads


def cmd_setup(args) -> None:
    t0 = time.perf_counter()
    workload = load_workloads().WORKLOADS[args.workload](args.tiny)
    workload.inputs(workload.dataset_seed(args.seed, 0))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def time_loglik(probe) -> float:
    """Microseconds per row of one cpt_log_likelihood call, median of calls."""
    from riskchoice import cpt

    params, arrays = probe()
    calls = []
    start = time.perf_counter()
    while len(calls) < LOGLIK_MIN_CALLS or time.perf_counter() - start < LOGLIK_MIN_S:
        t0 = time.perf_counter()
        cpt.cpt_log_likelihood(params, arrays)
        calls.append(time.perf_counter() - t0)
    return statistics.median(calls) / len(arrays) * 1e6


def cmd_measure(args) -> None:
    wl = load_workloads()
    import numpy
    import scipy

    from tracing import Tracer, summarize

    workload = wl.WORKLOADS[args.workload](args.tiny)
    OUT.mkdir(exist_ok=True)
    tracer = Tracer()

    # one small untimed iteration first, so first-call costs stay out of the
    # figures; if it raises, the timed iterations record the failure
    warm = wl.WORKLOADS[args.workload](True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        try:
            warm.run(warm.inputs(warm.dataset_seed(args.seed, 0)), Path(tmp))
        except Exception:
            print("bench: the warm-up iteration raised", file=sys.stderr)
    del warm

    iterations = []
    inputs = probe = None
    longest = 0.0
    loop_start = time.perf_counter()
    while True:
        i = len(iterations)
        # An untraced run gives every iteration the workload's next dataset. A
        # traced run gives each dataset an untraced and then a traced
        # iteration, which must agree on every count.
        k = i // 2 if args.trace else i
        traced = bool(args.trace) and i % 2 == 1
        dataset = workload.dataset_seed(args.seed, k)
        if not traced:
            inputs = workload.inputs(dataset)
        gc.collect()
        record = {"dataset": dataset, "traced": traced, "problems": []}
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            result = None
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.run_id = f"{args.workload}:{args.seed}:{i}"
                    with tracer.patched(workload.trace_targets()):
                        t0 = time.perf_counter()
                        with tracer.span("bench.iteration"):
                            result = workload.run(inputs, Path(tmp))
                        record["wall_s"] = time.perf_counter() - t0
                    record["trace"] = summarize(tracer.spans, tracer.run_id)
                else:
                    t0 = time.perf_counter()
                    result = workload.run(inputs, Path(tmp))
                    record["wall_s"] = time.perf_counter() - t0
                summary = workload.summarize(inputs, result)
            except Exception:
                record.setdefault("wall_s", time.perf_counter() - t0)
                record["problems"].append(traceback.format_exc(limit=4))
                summary = None
            del result
        if summary is not None:
            record["problems"] += summary.problems
            record.update(counts=summary.counts, quality=summary.quality, notes=summary.notes)
            if traced and iterations[-1].get("counts"):
                prev = iterations[-1]["counts"]
                for name, value in summary.counts.items():
                    if prev.get(name) != value:
                        record["problems"].append(
                            f"FLAG: count {name} differs between two runs of dataset seed "
                            f"{record['dataset']}: {prev.get(name)} then {value}"
                        )
            if args.trace:
                probe = summary.loglik_probe
        iterations.append(record)
        del summary
        longest = max(longest, record["wall_s"])
        elapsed = time.perf_counter() - loop_start
        if elapsed + longest > BUDGET_S:
            break
        # stop before an iteration that could end after --seconds, so that a
        # run's length does not depend on where an iteration boundary falls
        awaiting_traced = bool(args.trace) and not traced
        if len(iterations) >= 2 and not awaiting_traced and elapsed + longest > args.seconds:
            break

    report = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "rows": workload.rows,
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        report["loglik_us_per_row"] = float("nan") if probe is None else time_loglik(probe)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(report))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    (cmd_setup if args.mode == "setup" else cmd_measure)(args)


if __name__ == "__main__":
    main()
