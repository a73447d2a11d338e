"""Production modules hold no code that only tests call: a call trace of the CLI over a fixed list of runs.

Under sys.setprofile, cli.main runs in-process over LINES, command lines
of tests/contract_corpus.py's CONFIGS: every suite at N = 2, 3, 4 and 6,
plain and --truncated, all three fay kinds, text and structured output,
and exits 0, 1 and 2, the last through one refused configuration and
every exit-2 message family of the corpus that sampling can reach.  Every
function defined in src/superkron/*.py that the trace never enters must
be on ALLOWLIST, with the reason it stays, and every allowlisted function
must still be defined and never entered.  The trace runs in a fresh
interpreter, so that no memo filled by an earlier test keeps a cached
function from being entered.  Print the functions it never enters with

    PYTHONPATH=src python tests/test_production_reach.py
"""

import ast
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import contract_corpus

import superkron

LINES = (
    "all --samples 2 --seed 42 --output structured",
    "all --samples 2 --seed 42 --truncated",
    "fay --kind trig --samples 3 --seed 42",
    "fay --kind rational --samples 3 --seed 42",
    "all --samples 1 --n 6",
    "aybe --samples 3 --n 3 --tau-im 0.05 --seed 7",
    "cybe --samples 3 --n 4 --tau-im 30 --seed 7",
    # exit 1: a residual above the tolerance
    "theta --samples 3 --tol 3e-16 --output structured",
    # exit 2: an invalid option, no pole-free sample, a series beyond 200 pairs, tau + 1 rounding to tau,
    # series terms below and above the floating-point range, an overflowing lattice multiplier and dressing
    "theta --tau-im -1.0 --samples 1",
    "heat --samples 3 --pole-radius 0.6",
    "kronecker --samples 2 --tau-im 1e-4",
    "kronecker --samples 3 --tau-re 1e17",
    "fay --samples 2 --tau-im 1000",
    "theta --samples 2 --tau-im 150",
    "fay --samples 2 --tau-im 400",
    "cybe --samples 3 --n 4 --tau-im 260 --seed 7",
)

_LIBRARY = "library API of the Grassmann algebra"

# every function LINES never enter, by module and qualified name, and why it stays
ALLOWLIST = {
    "grassmann.GeneratorSet.__repr__": _LIBRARY,
    "grassmann.GeneratorSet._split_monomial": _LIBRARY,
    "grassmann.GeneratorSet.mask_of": _LIBRARY,
    "grassmann.GeneratorSet.monomial_label": _LIBRARY,
    "grassmann.GeneratorSet.zero": _LIBRARY,
    "grassmann.GrassmannElement.__eq__": _LIBRARY,
    "grassmann.GrassmannElement.__hash__": _LIBRARY,
    "grassmann.GrassmannElement.__repr__": _LIBRARY,
    "grassmann.GrassmannElement.__rmul__": _LIBRARY,
    "grassmann.GrassmannElement.__rsub__": _LIBRARY,
    "grassmann.GrassmannElement.__str__": _LIBRARY,
    "grassmann.GrassmannElement.__truediv__": _LIBRARY,
    "grassmann.GrassmannElement.coefficient": _LIBRARY,
    "grassmann.GrassmannElement.left_derivative": _LIBRARY,
    "rmatrix.MultiIndex.__add__": "without it, + on two indices silently concatenates the tuples",
    "rmatrix.build_R": "the paper's quantum operator, and perfbench wraps it",
    "rmatrix.build_r_classical": "the paper's classical operator, and perfbench wraps it",
    "rmatrix.embed": "perfbench wraps it",
    "suites._cells": "runs at import, before the trace starts",
    "suites.replay_sample": "public, and perfbench replays through it",
    "superfunc.SuperFunction.__repr__": "what a SuperFunction prints as",
    "superfunc.super_phi_truncated": "perfbench wraps it",
}


def defined(src: Path) -> dict:
    """{(file name, first line): "module.qualified name"} of every function defined in src/*.py, nested
    ones included; the first line is a decorated function's first decorator, as its code object has it."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(src.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def never_entered(lines=LINES) -> list[str]:
    """The sorted names of the functions in superkron's modules that cli.main over lines never enters."""
    from superkron import cli

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    for line in lines:
        with warnings.catch_warnings(record=True), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                cli.main(line.split())
            finally:
                sys.setprofile(None)
    src = Path(superkron.__file__).parent
    names = defined(src)
    for code in entered:
        names.pop((code.co_filename, code.co_firstlineno), None)
    return sorted(names.values())


def test_lines_come_from_the_contract_corpus():
    corpus = set(contract_corpus.CONFIGS)
    assert [line for line in LINES if line.replace(" --output structured", "") not in corpus] == []


def test_production_holds_only_code_the_cli_reaches_or_the_allowlist_names():
    paths = [str(Path(superkron.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    unused = json.loads(done.stdout)
    # never entered and not allowlisted: delete it, move it to tests/, or name its reason
    assert [name for name in unused if name not in ALLOWLIST] == []
    # allowlisted but entered, or gone: take it off the list
    assert [name for name in ALLOWLIST if name not in unused] == []


if __name__ == "__main__":
    print(json.dumps(never_entered(), indent=1))
