"""Quick self-test of the benchmark, about a minute on two cores.

    python3 bench/selftest.py

Runs every workload at tiny size, untraced and traced, and asserts that each
result line carries exactly the metrics BENCHMARK.json names, with their
units, that no iteration failed, and that the human-readable lines print
every metric by name with its unit. Then runs the benchmark in a directory
that holds only BENCHMARK.json and bench/, where it must exit non-zero
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # every workload run.py knows, also those BENCHMARK.json does not list
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, (
                f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: metrics {got} != {want}"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, result
            assert "failed_frac 0 " in proc.stdout, "failed_frac line missing or not 0"
            printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
            missing = [n for n, u in want.items() if (n, u) not in printed]
            assert not missing, f"{workload} trace {trace}: not printed with unit: {missing}"
            print(
                f"ok  {workload} trace {trace}: {len(want)} metrics, "
                f"{result['attempted']} iterations"
            )

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark ran without the program"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program"
        print(f"ok  without the program: exit {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
