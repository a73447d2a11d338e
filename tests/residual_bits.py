"""Record of the exact residuals that a fixed list of verify runs reports.

For every run in RUNS, each suite's max_residual is kept as float hex,
together with its worst_inputs and redraws, so a refactor that claims to
keep every residual bit can be checked against the record.  Rounding depends
on the interpreter, numpy and the machine, so the record names all three and
test_residual_bits skips when they differ.  Regenerate the record with

    PYTHONPATH=src python tests/residual_bits.py
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

from superkron.suites import VerifyConfig, run_suites

RECORD = Path(__file__).with_name("residual_bits.json")

# (name, VerifyConfig fields); seed 42 throughout, sample counts sized so
# that the whole list reruns in a few seconds
RUNS = (
    ("all-n2", {"n": 2, "samples": 4}),
    ("all-n2-truncated", {"n": 2, "samples": 4, "truncated": True}),
    ("all-n3", {"n": 3, "samples": 4}),
    ("all-n3-truncated", {"n": 3, "samples": 4, "truncated": True}),
    ("kronecker-fay-trig", {"suites": ("kronecker", "fay"), "kind": "trig", "samples": 20}),
    ("kronecker-fay-rational", {"suites": ("kronecker", "fay"), "kind": "rational", "samples": 20}),
    ("aybe-cybe-n4", {"suites": ("aybe", "cybe"), "n": 4, "samples": 2}),
    ("aybe-cybe-n5", {"suites": ("aybe", "cybe"), "n": 5, "samples": 2}),
    ("aybe-cybe-n6", {"suites": ("aybe", "cybe"), "n": 6, "samples": 2}),
    # channel parameters reduce across lattice cells at this modulus
    ("aybe-cybe-n3-tau-3.3+0.4i", {"suites": ("aybe", "cybe"), "n": 3, "tau": 3.3 + 0.4j, "samples": 2}),
    # the same modulus at N = 4, where the channel sums take the batch route
    ("aybe-cybe-n4-tau-3.3+0.4i", {"suites": ("aybe", "cybe"), "n": 4, "tau": 3.3 + 0.4j, "samples": 2}),
    # the same modulus at N = 6, the benchmark's order, and at N = 2
    ("aybe-cybe-n6-tau-3.3+0.4i", {"suites": ("aybe", "cybe"), "n": 6, "tau": 3.3 + 0.4j, "samples": 2}),
    ("aybe-cybe-n2-tau-3.3+0.4i", {"suites": ("aybe", "cybe"), "n": 2, "tau": 3.3 + 0.4j, "samples": 2}),
    ("kronecker-tau-5+0.05i", {"suites": ("kronecker",), "tau": 5 + 0.05j, "samples": 40}),
)


def environment() -> dict:
    """What the rounding of a residual depends on besides the code."""
    return {
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def compute() -> dict:
    """{run name: [{suite, max_residual (float hex), worst_inputs, redraws}]}."""
    out = {}
    for name, fields in RUNS:
        reports = run_suites(VerifyConfig(seed=42, **fields))
        out[name] = [
            {
                "suite": r.suite,
                "max_residual": float(r.max_residual).hex(),
                "worst_inputs": r.worst_inputs,
                "redraws": r.redraws,
            }
            for r in reports
        ]
    # through JSON, so a fresh computation compares equal to the loaded record
    return json.loads(json.dumps(out))


if __name__ == "__main__":
    doc = {"environment": environment(), "runs": compute()}
    RECORD.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}")
