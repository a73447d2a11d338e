"""Record of the exact residuals that a fixed list of verify runs reports.

For every run in RUNS, each suite's max_residual is kept as float hex,
together with its worst_inputs, its redraws and the SHA-256 of the float
hex of every relative residual its compute function returned, in sample
order (samples), so a refactor that claims to keep every residual bit can
be checked against the record, sample by sample.  Each run is
computed twice in one process: first with every process-wide cache of the
package empty (superfunc's function terms and plans, rmatrix's channel
templates, elliptic's cached theta constants, and every functools cache of
elliptic, batch, grassmann, superfunc and rmatrix), then again with the
caches the first computation filled; both must give the same record.  The
plans that functions fresh from a memo entry carry (super_phi's and
heat_residual's in superfunc._PHI_TERMS, super_basis_phi's beside the
compiled templates in rmatrix._TEMPLATES) live in those entries, so
emptying the two dicts empties them too.  The per-context
memos (theta stacks, kernel tables) start empty in every
sample, whose suite builds its own EllipticContext.  Rounding depends
on the interpreter, numpy and the machine, so the record names all three and
test_residual_bits skips when they differ.  Regenerate the record with

    PYTHONPATH=src python tests/residual_bits.py

or, to see what a change moves without writing, print every run's recorded
and fresh max_residual side by side with

    PYTHONPATH=src python tests/residual_bits.py --diff

which marks a suite "moved" where any field of its record differs (a
changed samples digest included), and
exits 1 if one did or the warm computation differs from the cold one (0 if
the record holds), so it can gate a change that claims to keep every bit.
Regeneration refuses to write a record that the warm computation does not
repeat.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from superkron import batch, elliptic, grassmann, rmatrix, suites, superfunc
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
    # the graded suites of the benchmark's graded-n2 jobs, at more samples: memo hits within and across samples
    ("graded-n2", {"suites": ("fay", "heat", "periodicity", "basis", "degenerations"), "samples": 16}),
    ("graded-n2-truncated", {"suites": ("fay", "heat", "periodicity", "basis", "degenerations"), "samples": 16,
                             "truncated": True}),
)


def environment() -> dict:
    """What the rounding of a residual depends on besides the code."""
    return {
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def empty_caches() -> None:
    """Empty the memo dicts of superfunc, rmatrix and elliptic and call cache_clear() on every functools
    cache in the namespaces of the package's computing modules."""
    for memo in (superfunc._PHI_TERMS, rmatrix._TEMPLATES, elliptic._SQUARES):
        memo.clear()
    for module in (elliptic, batch, grassmann, superfunc, rmatrix):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@contextmanager
def returned_residuals():
    """Inside the block every suites._SUITES compute function is wrapped, so that each relative
    residual it returns is appended as float hex to the yielded {suite: [hex, ...]}."""
    returned: dict[str, list[str]] = {}
    saved = dict(suites._SUITES)

    def recording(name, compute):
        def wrapped(inputs, cfg):
            rel = compute(inputs, cfg)
            returned.setdefault(name, []).append(float(rel).hex())
            return rel

        return wrapped

    suites._SUITES.update({name: (sample, recording(name, compute)) for name, (sample, compute) in saved.items()})
    try:
        yield returned
    finally:
        suites._SUITES.update(saved)


def compute() -> tuple[dict, dict]:
    """Two records {run name: [{suite, max_residual (float hex), worst_inputs, redraws, samples}]}, cold
    and warm: each run computed with every cache emptied first (empty_caches), then once more right after.
    samples is the SHA-256 of the suite's returned residuals (returned_residuals), one per line."""
    cold, warm = {}, {}
    for name, fields in RUNS:
        empty_caches()
        for out in (cold, warm):
            with returned_residuals() as returned:
                reports = run_suites(VerifyConfig(seed=42, **fields))
            out[name] = [
                {
                    "suite": r.suite,
                    "max_residual": float(r.max_residual).hex(),
                    "worst_inputs": r.worst_inputs,
                    "redraws": r.redraws,
                    "samples": hashlib.sha256("\n".join(returned[r.suite]).encode()).hexdigest(),
                }
                for r in reports
            ]
    # through JSON, so a fresh computation compares equal to the loaded record
    return json.loads(json.dumps(cold)), json.loads(json.dumps(warm))


def diff(record: dict, fresh: dict) -> list[str]:
    """One line per run and suite: recorded and fresh max_residual as hex and %.3e, and fresh / recorded,
    marked "moved" where the fresh record of the suite differs from the recorded one in any field."""
    lines = []
    for name in dict.fromkeys([*record, *fresh]):
        old = {r["suite"]: r for r in record.get(name, [])}
        new = {r["suite"]: r for r in fresh.get(name, [])}
        for suite in dict.fromkeys([*old, *new]):
            a, b = (float.fromhex(r[suite]["max_residual"]) if suite in r else None for r in (old, new))
            cells = [x.hex() if x is not None else "-" for x in (a, b)]
            cells += [f"{x:.3e}" if x is not None else "-" for x in (a, b)]
            ratio = f"{b / a:.4f}" if a and b is not None else "-"
            mark = "" if old.get(suite) == new.get(suite) else "  moved"
            lines.append(f"{name:<28} {suite:<14} {cells[0]:>24} {cells[1]:>24} {cells[2]:>10} {cells[3]:>10} {ratio:>8}{mark}")
    return lines


if __name__ == "__main__":
    fresh, warm = compute()
    if warm != fresh:
        print("warm memos moved these runs: " + ", ".join(n for n in fresh if warm[n] != fresh[n]))
    if sys.argv[1:] == ["--diff"]:
        record = json.loads(RECORD.read_text(encoding="utf-8"))
        header = ["run", "suite", "recorded", "fresh", "recorded", "fresh", "ratio"]
        print("{:<28} {:<14} {:>24} {:>24} {:>10} {:>10} {:>8}".format(*header))
        lines = diff(record["runs"], fresh)
        print("\n".join(lines))
        sys.exit(1 if warm != fresh or any(line.endswith("moved") for line in lines) else 0)
    elif warm != fresh:
        sys.exit(1)
    else:
        RECORD.write_text(json.dumps({"environment": environment(), "runs": fresh}, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {RECORD}")
