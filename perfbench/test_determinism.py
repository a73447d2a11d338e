"""The traced run's counts and residuals repeat exactly for a seed.

Counts may be cited as evidence for a change only if they repeat, so two
short traced runs with one seed must agree on every call count, every
computed counter and every per-sample residual.  Each run is a fresh
process, as in the benchmark, so no cache carries over from one to the next.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
COUNTERS = (
    "grassmann.generator_sets.built",
    "elliptic.pole_errors",
    "rmatrix.matmul.block_products",
    "rmatrix.matmul.flops_computed",
    "checks.panel_failed",
)


@functools.cache
def traced(workload: str, seed: int, run: int = 0) -> tuple:
    """(per-sample records, metric values, correct) of a one-cycle traced run.

    Cached per (workload, seed, run); distinct run numbers start distinct
    processes.
    """
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--trace", "1", "--cycles", "1"]
    lines = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True).stdout.splitlines()
    prefix = "trace-samples "
    samples = json.loads(next(line for line in lines if line.startswith(prefix))[len(prefix):])
    doc = json.loads(lines[-1])
    values = {name: m["value"] for name, m in doc["metrics"].items()}
    return samples, values, doc["correct"]


def counts(values: dict) -> dict:
    return {k: v for k, v in values.items() if k.endswith(".calls") or k in COUNTERS}


@pytest.mark.parametrize("workload", ["kernels-sweep", "graded-n2", "ybe-n6"])
def test_same_seed_repeats_counts_and_residuals(workload):
    samples1, values1, correct1 = traced(workload, 7, 0)
    samples2, values2, correct2 = traced(workload, 7, 1)
    assert correct1 and correct2
    assert counts(values1) == counts(values2)
    assert samples1 == samples2


def test_other_seed_changes_inputs():
    samples1, _, _ = traced("kernels-sweep", 7)
    samples2, _, _ = traced("kernels-sweep", 8)
    assert [s[1] for s in samples1] != [s[1] for s in samples2]
    assert [s[2] for s in samples1] != [s[2] for s in samples2]


def test_each_workload_stresses_its_layer():
    kernels = traced("kernels-sweep", 7)[1]
    graded = traced("graded-n2", 7)[1]
    ybe = traced("ybe-n6", 7)[1]
    assert kernels["elliptic.theta_stack.calls"] > 0
    for name in ("grassmann.sign", "grassmann.mul", "superfunc.evaluate", "rmatrix.build"):
        assert kernels[f"{name}.calls"] == 0
    assert graded["grassmann.sign.calls"] > 0 and graded["superfunc.evaluate.calls"] > 0
    assert kernels["rmatrix.matmul.calls"] == graded["rmatrix.matmul.calls"] == 0
    assert ybe["rmatrix.matmul.calls"] > 0 and ybe["rmatrix.matmul.block_products"] > 0
