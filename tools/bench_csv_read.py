"""Time ``read_dataset_csv`` of two checkouts in one process, alternating.

The script generates ``--rows`` rows (dataset seed ``--seed``), writes them
with the change's writer, and derives three more files from those bytes: one
blank last line added, a space after the header's last field, and every
line ended in "\\r". Both checkouts' packages are imported side by side, and
each pair of rounds reads every file once with each, alternating which side
reads first; every read must return the written columns bit for bit.

A second probe runs each side in a fresh interpreter, as the ``datapath-1m``
workload runs these stages: generate, write, read the writer's file. It
records the process's ``ru_maxrss`` after each stage, so that the read's own
peak shows apart from the heap that glibc keeps from the stages before it.

    python tools/bench_csv_read.py PARENT_CHECKOUT [--pairs 10] [--rows 1000000]
        [--seed 7] [--rss-probes 3] [--out BENCH_csv_one_parser.json]

The change is the checkout this script lives in. BLAS is held to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FILES = ("writer", "blank_last_line", "header_trailing_space", "cr_line_ends")


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rss_probe(rows: int, seed: int) -> dict:
    """ru_maxrss after import and after each stage, in this interpreter."""
    import riskchoice

    marks = {"import": _max_rss_mb()}
    data = riskchoice.generate_dataset(riskchoice.GeneratorConfig(n=rows, seed=seed))
    marks["generate"] = _max_rss_mb()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        riskchoice.write_dataset_csv(data, path)
        marks["write"] = _max_rss_mb()
        back = riskchoice.read_dataset_csv(path)
        marks["read"] = _max_rss_mb()
    same = all(getattr(back, n).tobytes() == getattr(data, n).tobytes() for n in vars(data))
    return {"max_rss_mb": marks, "read_equal": same}


def _package(alias: str, checkout: Path):
    sys.path.insert(0, str(ROOT / "tools"))
    from bench_columnar import _package as load

    return load(alias, checkout)


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def _git(checkout: Path, *args) -> str | None:
    done = subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=False
    )
    return done.stdout.strip() if done.returncode == 0 else None


def in_process(sides: dict[str, Path], rows: int, seed: int, pairs: int) -> dict:
    packages = {side: _package(f"riskchoice_{side}", path) for side, path in sides.items()}
    change = packages["change"]
    data = change.generate_dataset(change.GeneratorConfig(n=rows, seed=seed))
    times = {side: {name: [] for name in FILES} for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.csv" for name in FILES}
        change.write_dataset_csv(data, paths["writer"])
        raw = paths["writer"].read_bytes()
        paths["blank_last_line"].write_bytes(raw + b"\n")
        paths["header_trailing_space"].write_bytes(raw.replace(b"choice\n", b"choice \n", 1))
        paths["cr_line_ends"].write_bytes(raw.replace(b"\n", b"\r"))
        sizes = {name: path.stat().st_size for name, path in paths.items()}
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name, path in paths.items():
                for side in order:
                    start = time.perf_counter()
                    back = packages[side].read_dataset_csv(path)
                    times[side][name].append(time.perf_counter() - start)
                    for column in vars(data):
                        if getattr(back, column).tobytes() != getattr(data, column).tobytes():
                            raise SystemExit(f"{side} read {name} wrong in column {column}")
                    del back
            print(
                f"pair {pair} ({order[0]} first): "
                + "  ".join(
                    f"{name} {times['parent'][name][-1]:.3f}/{times['change'][name][-1]:.3f}"
                    for name in FILES
                ),
                flush=True,
            )
    summary = {}
    for name in FILES:
        parent, change_s = times["parent"][name], times["change"][name]
        summary[name] = {
            "bytes": sizes[name],
            "parent_median_s": statistics.median(parent),
            "change_median_s": statistics.median(change_s),
            "parent_quartiles_s": _quartiles(parent),
            "change_quartiles_s": _quartiles(change_s),
            "change_faster_pairs": sum(c < p for p, c in zip(parent, change_s)),
            "parent_runs_s": parent,
            "change_runs_s": change_s,
        }
    # each file's read time over the writer's file's, pair by pair
    for side in sides:
        for name in FILES[1:]:
            ratios = [t / w for t, w in zip(times[side][name], times[side]["writer"])]
            summary[name][f"{side}_over_writer"] = {
                "median": statistics.median(ratios),
                "max": max(ratios),
                "runs": ratios,
            }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path, help="the parent's checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rss-probes", type=int, default=3)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_csv_one_parser.json")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps(rss_probe(args.rows, args.seed)))
        return 0
    if args.parent is None:
        parser.error("the parent's checkout is required")
    os.environ.update({var: "1" for var in THREAD_VARS})

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    probes = {side: [] for side in sides}
    for probe in range(args.rss_probes):
        for side in ("parent", "change") if probe % 2 == 0 else ("change", "parent"):
            env = dict(os.environ, PYTHONPATH=str(sides[side] / "src"))
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--probe",
                "--rows", str(args.rows), "--seed", str(args.seed),
            ]
            done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
            probes[side].append(json.loads(done.stdout))
            print(f"rss probe {probe} {side}: {probes[side][-1]}", flush=True)
    reads = in_process(sides, args.rows, args.seed, args.pairs)
    import numpy as np
    doc = {
        "what": "read_dataset_csv of the writer's file and of three files derived from "
        "its bytes, parent against change, in one process",
        "command": f"python tools/bench_csv_read.py PARENT_CHECKOUT --pairs {args.pairs} "
        f"--rows {args.rows} --seed {args.seed} --rss-probes {args.rss_probes}",
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
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "reads": reads,
        "rss_probes": probes,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
