"""Pin the code under test and the threads it may use; describe the run.

pin_threads() must run before numpy is first imported: BLAS and OpenMP read
their thread counts once, at load.  One thread keeps the scheduler of a
small machine out of the numbers.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Put this checkout's src/ first on sys.path, or exit if it is missing."""
    if not (SRC / "superkron" / "__init__.py").is_file():
        sys.exit(f"perfbench: no superkron package under {SRC}")
    sys.path.insert(0, str(SRC))


def check_code_under_test(module) -> None:
    """Exit unless the imported superkron is the one in this checkout."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        sys.exit(f"perfbench: superkron imported from {path}, not from {SRC}")


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def describe() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }
