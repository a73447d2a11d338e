"""Record of what a fixed list of verify command lines exits with, prints to stderr and reports.

For every command line in CONFIGS, cli.main runs in-process with
--output structured appended.  The record keeps its exit code, its stderr
text, every warning it raised (category and message, each one shown, not
only the first from one place), and the SHA-256 of its structured report
with each suite's seconds removed, or null where no report was written.
So a refactor that claims to move no exit code, message, redraw count or
residual can be checked against the record, run by run.

The list covers every exit code and every exit-2 message family that can
be reached without exhausting memory: an invalid option, a pole radius
that leaves no pole-free sample, a series beyond 200 pairs, a series term
above or below the floating-point range, an overflowing lattice
multiplier or channel dressing, and a real modulus part so large that
tau + 1 rounds to tau.  An out-of-memory run is left out: reaching it
needs a run that really exhausts memory (tests/test_cli.py fakes one).
The Yang-Baxter runs at Im tau from 30 to 300, with small and large pole
radii, are those whose samples can meet a pole, an order-0 series error,
a lattice multiplier, an order-1 series error and a dressing overflow in
one channel-sum pass, so they pin the order in which a pass raises.
Messages quote drawn points to full precision, and rounding depends on
the interpreter, numpy and the machine, so the record names all three and
test_contract_corpus skips when they differ.  Regenerate the record with

    PYTHONPATH=src python tests/contract_corpus.py --write

or list every run whose record moved, without writing, with

    PYTHONPATH=src python tests/contract_corpus.py --diff

which exits 1 if one did (0 if the record holds).
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from residual_bits import environment

from superkron import cli

RECORD = Path(__file__).with_name("contract_corpus.json")

_YBE_MODULI = ("0.05", "1.1", "30", "45", "60", "80", "150", "260", "300", "947")

# verify command lines, each its own record name; every one names its sample count
CONFIGS = (
    # every suite, the fay kinds, plain and truncated, both seeds
    *(f"{suite} --samples 2 --seed {seed}{flag}"
      for suite in ("theta", "kronecker", "fay", "heat", "periodicity", "basis", "degenerations", "all")
      for seed in (7, 42) for flag in ("", " --truncated")),
    *(f"fay --kind {kind} --samples 3 --seed 42" for kind in ("elliptic", "trig", "rational")),
    "all --samples 1 --n 6",
    "basis --samples 3 --n 6 --truncated",
    # a failing residual, through the tolerance
    "theta --samples 3 --tol 3e-16",
    "aybe --samples 1 --n 3 --tol 1e-17",
    # the modulus over the upper half plane, real parts included
    *(f"{suite} --samples 2 --tau-re {re}" for suite in ("theta", "fay", "cybe") for re in ("0.0", "-0.0", "1e3")),
    *(f"{suite} --samples 2 --tau-im {im}"
      for suite in ("theta", "kronecker", "fay", "heat", "periodicity", "degenerations")
      for im in ("0.05", "3", "30", "150", "400", "1000")),
    "kronecker --samples 3 --tau-re 1e17",
    "kronecker --samples 40 --tau-re 5 --tau-im 0.05",
    # pole radii from the default to no room at all
    *(f"{suite} --samples 3 --pole-radius {r}"
      for suite in ("theta", "heat", "aybe", "cybe") for r in ("1e-3", "0.05", "0.2", "0.4", "0.6")),
    # the Yang-Baxter suites at N = 2-6 over the moduli where a pass raises, both seeds
    *(f"{suite} --samples 3 --n {n} --tau-im {im} --seed {seed}"
      for suite in ("aybe", "cybe") for n in (2, 3, 4, 5, 6) for im in _YBE_MODULI for seed in (7, 42)),
    # poles against series errors and multipliers: large pole radii far out in the modulus
    *(f"{suite} --samples 3 --n {n} --tau-im {im} --pole-radius {r} --seed {seed}"
      for suite in ("aybe", "cybe") for n in (2, 6) for im in ("30", "45", "60", "150")
      for r in ("0.2", "0.4") for seed in (7, 42)),
    *(f"{suite} --samples 2 --n {n} --tau-im {im} --truncated"
      for suite in ("aybe", "cybe") for n in (2, 6) for im in ("1.1", "60", "300")),
    # the modulus-derivative tables far from the real axis (ROADMAP item 1) and far up (item 14)
    "basis --samples 20 --n 6 --tau-im 60 --seed 42",
    "aybe --samples 3 --n 6 --tau-im 60",
    "aybe --samples 10 --n 3 --tau-im 60 --seed 42",
    "aybe --samples 200 --n 6 --tau-im 60 --seed 42",
    "heat --samples 3 --tau-im 400",
    # series errors before pole redraws at a dense lattice
    *(f"{suite} --samples 2 --tau-im {im}" for suite in ("kronecker", "aybe --n 2", "cybe --n 4")
      for im in ("1e-4", "1e-300")),
    # configurations refused before any sample
    "theta --tau-im -1.0 --samples 1",
    "theta --tau-im nan --samples 1",
    "heat --tau-re nan --samples 1",
    "theta --pole-radius nan --samples 1",
    "theta --pole-radius inf --samples 1",
    "theta --seed -1 --samples 1",
    "theta --tol 1e-30 --samples 1",
)

# the Tier-1 slice: every Yang-Baxter run at N = 2 and 6, whose channel-sum passes order the errors, and one
# run of each other exit code
def _order(line: str) -> str:
    """The --n of a command line, 2 (the default) where it names none."""
    words = line.split()
    return words[words.index("--n") + 1] if "--n" in words else "2"


SLICE = (
    *(line for line in CONFIGS if line.split()[0] in ("aybe", "cybe") and _order(line) in ("2", "6")),
    "theta --samples 2 --seed 42",
    "theta --samples 3 --tol 3e-16",
    "theta --tau-im -1.0 --samples 1",
)


def run(line: str) -> dict:
    """The record of one command line: exit code, stderr, warnings and the report's digest."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([*line.split(), "--output", "structured"])
    report = None
    if out.getvalue():
        doc = json.loads(out.getvalue())
        for r in doc["reports"]:
            del r["seconds"]
        report = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return {
        "code": code,
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "report": report,
    }


def compute(lines=CONFIGS) -> dict:
    """{command line: record} for every line, in order."""
    return {line: run(line) for line in lines}


def diff(record: dict, fresh: dict) -> list[str]:
    """One line per command line whose fresh record differs from the recorded one, recorded then fresh."""
    lines = []
    for name in dict.fromkeys([*record, *fresh]):
        old, new = record.get(name), fresh.get(name)
        if old != new:
            lines.append(f"moved: {name}\n  recorded {json.dumps(old)}\n  fresh    {json.dumps(new)}")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] not in (["--diff"], ["--write"]):
        sys.exit("usage: contract_corpus.py --diff | --write")
    assert len(set(CONFIGS)) == len(CONFIGS) and set(SLICE) <= set(CONFIGS)
    fresh = compute()
    if sys.argv[1:] == ["--write"]:
        RECORD.write_text(json.dumps({"environment": environment(), "runs": fresh}, indent=1) + "\n",
                          encoding="utf-8")
        print(f"wrote {RECORD}: {len(fresh)} runs")
    else:
        moved = diff(json.loads(RECORD.read_text(encoding="utf-8"))["runs"], fresh)
        print("\n".join(moved) if moved else f"all {len(fresh)} runs hold")
        sys.exit(1 if moved else 0)
