"""The benchmark's traced runs patch program names by attribute; each must
resolve, so that a rename fails here and not only in the bench self-test.
Each workload's tiny iteration must also pass the benchmark's own checks, so
that a program change that breaks them fails here too."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    # read the file without writing a bytecode cache next to it
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    yield module
    del sys.modules[spec.name]


def test_every_trace_target_resolves_to_a_callable(workloads):
    assert set(workloads.WORKLOADS) == {"experiment-5k", "datapath-1m", "cpt-mixed-20k"}
    for name, workload in workloads.WORKLOADS.items():
        targets = workload(True).trace_targets()
        assert targets, name
        for owner, attr, span in targets:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr} ({span})"


@pytest.mark.parametrize("name", ["experiment-5k", "datapath-1m", "cpt-mixed-20k"])
def test_tiny_iteration_passes_the_benchmark_checks(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](True)
    inputs = workload.inputs(workload.dataset_seed(3, 0))
    summary = workload.summarize(inputs, workload.run(inputs, tmp_path))
    assert summary.problems == []
