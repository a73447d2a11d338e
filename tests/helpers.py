"""Comparison helpers shared by the test modules."""

from superkron.grassmann import GrassmannElement


def isclose(a: GrassmannElement, b: GrassmannElement, tol: float = 1e-12) -> bool:
    """Every coefficient of a - b within tol times the larger magnitude, at least 1.

    Elements over different generator sets raise GeneratorMismatchError.
    """
    diff = a - b
    return diff.max_abs() <= tol * max(a.max_abs(), b.max_abs(), 1.0)
