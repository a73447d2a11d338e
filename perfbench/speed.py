"""Host speed, read from a fixed unit of work that runs no superkron code.

On a shared host the CPU speed one process gets drifts: identical samples
were measured to take up to twice as long from one minute to the next, and
CPU time drifts with wall time, so neither clock hides it.  The timed run
therefore measures a fixed unit of work between samples, every EVERY_S
seconds, and scales each sample's time by NOMINAL_S over the median unit
time measured around it.  Scaled times read as times on this host running at
its nominal speed; the raw times are printed beside them.

The unit mixes the two kinds of work superkron does: an interpreted
graded-product loop over the 729 disjoint monomial pairs of six generators,
and one dense complex 216 x 216 matrix product.
"""

from __future__ import annotations

import bisect
import cmath
import importlib
import statistics
from time import perf_counter

# a fixed reference: about the fastest unit time seen on the development host
# (x86-64 cloud VM, CPython 3.11, numpy 2.4 with one BLAS thread)
NOMINAL_S = 3.0e-3
EVERY_S = 0.2
NEIGHBOURS = 6


def _graded_loop() -> dict:
    terms: dict = {}
    for s in range(64):
        for t in range(64):
            if s & t:
                continue
            u = s | t
            terms[u] = terms.get(u, 0j) + cmath.exp(1j * (s - t) * 1e-3)
    return terms


class Speedometer:
    """Unit-of-work timings taken through a run, and the scale they imply."""

    def __init__(self) -> None:
        numpy = importlib.import_module("numpy")
        self._matrix = numpy.full((216, 216), 0.5 + 0.5j)
        self.times: list = []
        self.units: list = []
        self.unit_seconds()  # first call pays allocation and cache misses

    def unit_seconds(self) -> float:
        t0 = perf_counter()
        _graded_loop()
        _graded_loop()
        self._matrix @ self._matrix
        return perf_counter() - t0

    def mark(self, now: float) -> None:
        self.times.append(now)
        self.units.append(self.unit_seconds())

    def scale_at(self, t: float) -> float:
        """NOMINAL_S over the median unit time of the marks nearest t."""
        i = bisect.bisect_left(self.times, t)
        half = NEIGHBOURS // 2
        near = self.units[max(0, i - half): i + half] or self.units
        return NOMINAL_S / statistics.median(near)

    def scale_now(self, repeats: int = 3) -> float:
        return NOMINAL_S / statistics.median(self.unit_seconds() for _ in range(repeats))
