"""Elliptic building blocks on a torus with modulus in the upper half plane.

The core object is an odd entire function given by a rapidly convergent
series over half-integer frequencies; it vanishes exactly on the period
lattice.  From it we build a two-variable kernel, doubly quasi-periodic
with a simple pole of residue one along each variable's lattice, together
with tables of mixed derivatives in both variables and an independent
route to the modular-parameter derivative.  Hyperbolic and rational
degenerations of the kernel are provided in closed form, tabulated the same
way; kernel_derivs maps a kernel family name to its table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

__all__ = [
    "EllipticContext",
    "PoleProximityError",
    "SeriesTruncationError",
    "theta",
    "theta_stack",
    "lattice_coords",
    "lattice_reduce",
    "lattice_distance",
    "phi_derivs",
    "phi_tau_derivs",
    "phi_trig",
    "phi_rat",
    "kernel_derivs",
    "KINDS",
]

KINDS = ("elliptic", "trig", "rational")

_TWO_PI_I = 2j * math.pi
_PI_I = 1j * math.pi
# theta stacks one context memoizes before it starts again from empty
_MEMO_LIMIT = 4096
# relative series tolerance, against the largest term met (the honest
# floating-point noise floor), and the hard cap on frequency pairs summed
_SERIES_TOL = 1e-14
_K_MAX = 200
# elliptic parameter lists at least this long are tabulated in one batch
# (batch.elliptic_tables), shorter ones point by point.  A batch has a fixed
# numpy cost: at one point, tau = 0.3+1.1i, theta_stack takes 28 us against
# 134 us batched, phi_derivs(2, 2) 57 against 262 us and phi_tau_derivs 38
# against 390 us.
_BATCH_POINTS = 12


class PoleProximityError(ValueError):
    """Requested evaluation point is too close to a pole or zero divisor."""


class SeriesTruncationError(RuntimeError):
    """Series failed to reach the requested tolerance within the term budget."""


@dataclass(frozen=True)
class EllipticContext:
    """Modulus plus the pole radius shared by every evaluation.

    The modulus must be finite, lie in the upper half plane and have a
    real part small enough that tau + 1 differs from tau in double
    precision.  pole_radius is the minimal allowed lattice distance for
    kernel arguments.  The series tolerance and pair cap are the module constants
    _SERIES_TOL (1e-14) and _K_MAX (200).

    Each context also keeps a memo of the theta stacks summed under it,
    keyed by (z, max_dz, dtau), so a stack requested again is not summed
    again.  The memo is cleared whenever it holds _MEMO_LIMIT (4096)
    stacks, so a long-lived context cannot grow it without limit.  It is
    not a constructor parameter and takes no part in equality or
    hashing: two equal contexts compare and hash equal but keep separate
    memos.
    """

    tau: complex
    pole_radius: float = 1e-3
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tau = complex(self.tau)
        object.__setattr__(self, "tau", tau)
        if not (cmath.isfinite(tau) and tau.imag > 0):
            raise ValueError("modulus must be finite and lie in the upper half plane")
        if tau.real + 1.0 == tau.real:
            # the lattice shift z -> z + 1 would vanish in double precision
            raise ValueError(f"modulus real part {tau.real:g} is so large that tau + 1 rounds to tau")
        if not self.pole_radius > 0:
            raise ValueError("pole_radius must be positive")


def theta_stack(
    z: complex,
    ctx: EllipticContext,
    max_dz: int = 0,
    dtau: int = 0,
) -> np.ndarray:
    """Argument-derivative stack [f, f', ..., f^(max_dz)] at z.

    With dtau > 0 every entry additionally carries that many derivatives in
    the modulus.  All orders share one exponential per frequency.  Terms are
    summed in symmetric pairs of increasing frequency; the sum stops after
    the pair magnitudes stay below _SERIES_TOL relative to the running peak
    (which never drops below one) for two consecutive pairs, and only once
    the frequency has passed the turnaround |Im z| / Im tau where terms
    start to decay.  A term beyond the floating-point range raises
    SeriesTruncationError, as does a sum that has not converged after
    _K_MAX pairs.

    The result is read-only and memoized on ctx (see EllipticContext): a
    repeated request returns the same array.  A failed sum is not memoized.
    """
    if max_dz < 0 or dtau < 0:
        raise ValueError("derivative orders must be non-negative")
    z = complex(z)
    key = (z, max_dz, dtau)
    stack = ctx._stacks.get(key)
    if stack is not None:
        return stack
    tau = ctx.tau
    # plain Python numbers: the same IEEE operations in the same order as
    # numpy scalars, without the per-element boxing
    totals = [0j] * (max_dz + 1)
    peaks = [1.0] * (max_dz + 1)
    shift = 2.0 * (z + 0.5)
    turn = abs(z.imag) / tau.imag
    quiet = 0
    p = 0
    while quiet < 2:
        if p >= _K_MAX:
            raise SeriesTruncationError(
                f"series not converged after {_K_MAX} frequency pairs (z={z}, tau={tau})"
            )
        n = p + 0.5
        pair_rel = 0.0
        for sgn in (1.0, -1.0):
            f = sgn * n
            try:
                base = cmath.exp(_PI_I * (tau * f * f + shift * f))
            except OverflowError:
                raise SeriesTruncationError(
                    f"series term exceeds the floating-point range (z={z}, tau={tau})"
                ) from None
            if dtau:
                base *= (_PI_I * f * f) ** dtau
            step = _TWO_PI_I * f
            fac = 1.0 + 0j
            for d in range(max_dz + 1):
                term = base * fac
                totals[d] += term
                mag = abs(term)
                if mag > peaks[d]:
                    peaks[d] = mag
                rel = mag / peaks[d]
                if rel > pair_rel:
                    pair_rel = rel
                fac *= step
        quiet = quiet + 1 if p >= turn and pair_rel <= _SERIES_TOL else 0
        p += 1
    stack = np.array(totals, dtype=np.complex128)
    stack.flags.writeable = False
    return _memoize(ctx, key, stack)


def _memoize(ctx: EllipticContext, key: tuple, stack: np.ndarray) -> np.ndarray:
    """Store stack in ctx's memo under key, first clearing a memo of _MEMO_LIMIT stacks."""
    memo = ctx._stacks
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = stack
    return stack


def theta(z: complex, ctx: EllipticContext, dz: int = 0, dtau: int = 0) -> complex:
    """Odd lattice function (or a z/modulus derivative of it) at z."""
    if not 0 <= dz <= 5:
        raise ValueError("argument-derivative order limited to 5")
    if dtau not in (0, 1):
        raise ValueError("modulus-derivative order limited to 1")
    return complex(theta_stack(z, ctx, dz, dtau)[dz])


@lru_cache(maxsize=64)
def _origin_data(ctx: EllipticContext) -> tuple[complex, complex]:
    """(first z-derivative at 0, its modulus derivative), cached per context."""
    return theta(0.0, ctx, dz=1), theta(0.0, ctx, dz=1, dtau=1)


# -- lattice geometry -------------------------------------------------------


def lattice_coords(w: complex, tau: complex) -> tuple[float, float]:
    """Real coordinates (x, y) with w = x + y*tau."""
    w = complex(w)
    y = w.imag / tau.imag
    x = w.real - y * tau.real
    return x, y


def lattice_reduce(w: complex, tau: complex) -> tuple[complex, int, int]:
    """Translate w into the centered fundamental cell.

    Returns (w_reduced, m, n) with w = w_reduced + m + n*tau and the
    reduced coordinates in [-1/2, 1/2] up to rounding ties.
    """
    x, y = lattice_coords(w, tau)
    m = round(x)
    n = round(y)
    return complex(w) - m - n * tau, m, n


def lattice_distance(w: complex, tau: complex) -> float:
    """Euclidean distance from w to the nearest point of Z + Z*tau.

    Scans the rows n*tau + Z outward from the row nearest w, taking the
    closest point of each row, and stops in each direction once the gap
    between w and the next row exceeds the best distance found.  Exact for
    every modulus in the upper half plane, reduced or not.
    """
    w = complex(w)
    y = w.imag
    row = tau.imag
    n0 = round(y / row)
    d = w - n0 * tau
    best = abs(d - round(d.real))
    for step in (1, -1):
        n = n0 + step
        while abs(y - n * row) < best:
            d = w - n * tau
            dist = abs(d - round(d.real))
            if dist < best:
                best = dist
            n += step
    return best


def _require_regular(w: complex, ctx: EllipticContext, label: str) -> None:
    d = lattice_distance(w, ctx.tau)
    if d < ctx.pole_radius:
        raise PoleProximityError(
            f"{label}={complex(w)} is {d:.3e} away from the lattice "
            f"(minimum allowed {ctx.pole_radius:.3e})"
        )


# -- kernel and derivative tables -------------------------------------------


def _reciprocal_derivs(f: np.ndarray) -> np.ndarray:
    """Derivatives of 1/f from derivatives of f (Leibniz recursion)."""
    n = len(f)
    r = np.zeros(n, dtype=np.complex128)
    r[0] = 1.0 / f[0]
    for m in range(1, n):
        acc = 0j
        for k in range(1, m + 1):
            acc += comb(m, k) * f[k] * r[m - k]
        r[m] = -r[0] * acc
    return r


def _inner_table(hbar: complex, z: complex, ctx: EllipticContext, max_j: int, max_k: int) -> np.ndarray:
    """Mixed derivative table of the kernel with no lattice reduction."""
    top = max_j + max_k
    a = theta_stack(hbar + z, ctx, top)
    u = _reciprocal_derivs(theta_stack(hbar, ctx, max_j))
    v = _reciprocal_derivs(theta_stack(z, ctx, max_k))
    prime0, _ = _origin_data(ctx)
    out = np.zeros((max_j + 1, max_k + 1), dtype=np.complex128)
    for j in range(max_j + 1):
        for k in range(max_k + 1):
            acc = 0j
            for p in range(j + 1):
                cjp = comb(j, p)
                for q in range(k + 1):
                    acc += cjp * comb(k, q) * a[p + q] * u[j - p] * v[k - q]
            out[j, k] = prime0 * acc
    return out


def phi_derivs(
    hbar: complex,
    z: complex,
    ctx: EllipticContext,
    max_j: int = 0,
    max_k: int = 0,
    reduce: bool = True,
) -> np.ndarray:
    """Table [j, k] of j-th parameter and k-th argument derivatives.

    Cell [0, 0] is the kernel itself: simple poles on both argument
    lattices with residue one in z, symmetric in (hbar, z), odd under joint
    sign flip.  With reduce=True both arguments are translated into the
    fundamental cell first and the exact quasi-periodicity multipliers
    (including the cross terms they generate under differentiation) are
    restored, so the table is valid for arbitrary arguments.  reduce=False sums the series
    at the given points directly, which is what independence checks of the
    quasi-periodicity itself must use.
    """
    hbar = complex(hbar)
    z = complex(z)
    _require_regular(hbar, ctx, "hbar")
    _require_regular(z, ctx, "z")
    _require_regular(hbar + z, ctx, "hbar+z")
    if not reduce:
        return _inner_table(hbar, z, ctx, max_j, max_k)

    z_red, _, n_z = lattice_reduce(z, ctx.tau)
    h_red, _, n_h = lattice_reduce(hbar, ctx.tau)
    inner = _inner_table(h_red, z_red, ctx, max_j, max_k)
    if n_z == 0 and n_h == 0:
        return inner
    # shift in z contributes a multiplier exponential in the parameter and
    # vice versa; differentiation therefore mixes orders downward
    envelope = cmath.exp(-_TWO_PI_I * (n_z * hbar + n_h * z_red))
    c_z = -_TWO_PI_I * n_z
    c_h = -_TWO_PI_I * n_h
    out = np.zeros((max_j + 1, max_k + 1), dtype=np.complex128)
    for j in range(max_j + 1):
        for k in range(max_k + 1):
            acc = 0j
            for i in range(j + 1):
                w_ji = comb(j, i) * c_z ** (j - i)
                for l in range(k + 1):
                    acc += w_ji * comb(k, l) * c_h ** (k - l) * inner[i, l]
            out[j, k] = envelope * acc
    return out


def _derivs_of_square(f: np.ndarray) -> np.ndarray:
    """Derivatives of f^2 from derivatives of f."""
    n = len(f)
    out = np.zeros(n, dtype=np.complex128)
    for s in range(n):
        out[s] = sum(comb(s, i) * f[i] * f[s - i] for i in range(s + 1))
    return out


def _reciprocal_dot(f_dot: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Modulus-derivative stack of 1/f from those of f and of 1/f itself."""
    n = len(r)
    r2 = _derivs_of_square(r)
    out = np.zeros(n, dtype=np.complex128)
    for p in range(n):
        out[p] = -sum(comb(p, s) * f_dot[s] * r2[p - s] for s in range(p + 1))
    return out


def phi_tau_derivs(
    hbar: complex,
    z: complex,
    ctx: EllipticContext,
    max_j: int = 1,
    max_k: int = 0,
) -> np.ndarray:
    """Modulus derivative of the kernel's mixed-derivative table, directly.

    Entry [j, k] is the modulus derivative of the (j, k) mixed derivative,
    obtained by differentiating the defining ratio of lattice functions
    term by term in the modulus.  No lattice reduction and no use of the
    flow identity, so comparisons against tables produced by phi_derivs
    are genuine two-route checks.
    """
    hbar = complex(hbar)
    z = complex(z)
    _require_regular(hbar, ctx, "hbar")
    _require_regular(z, ctx, "z")
    _require_regular(hbar + z, ctx, "hbar+z")
    top = max_j + max_k
    a = theta_stack(hbar + z, ctx, top)
    a_dot = theta_stack(hbar + z, ctx, top, dtau=1)
    u = _reciprocal_derivs(theta_stack(hbar, ctx, max_j))
    u_dot = _reciprocal_dot(theta_stack(hbar, ctx, max_j, dtau=1), u)
    v = _reciprocal_derivs(theta_stack(z, ctx, max_k))
    v_dot = _reciprocal_dot(theta_stack(z, ctx, max_k, dtau=1), v)
    prime0, prime0_dot = _origin_data(ctx)
    out = np.zeros((max_j + 1, max_k + 1), dtype=np.complex128)
    for j in range(max_j + 1):
        for k in range(max_k + 1):
            inner = 0j
            dot = 0j
            for p in range(j + 1):
                cjp = comb(j, p)
                for q in range(k + 1):
                    c = cjp * comb(k, q)
                    inner += c * a[p + q] * u[j - p] * v[k - q]
                    dot += c * (
                        a_dot[p + q] * u[j - p] * v[k - q]
                        + a[p + q] * u_dot[j - p] * v[k - q]
                        + a[p + q] * u[j - p] * v_dot[k - q]
                    )
            out[j, k] = prime0_dot * inner + prime0 * dot
    return out


# -- degenerations ----------------------------------------------------------


def _coth_derivs(x: complex, n_max: int, pole_radius: float) -> np.ndarray:
    """[d^n/dx^n coth(x)] for n = 0..n_max via the square polynomial chain."""
    x = complex(x)
    nearest = round(x.imag / math.pi)
    if abs(x - 1j * math.pi * nearest) < pole_radius:
        raise PoleProximityError(f"argument {x} too close to a hyperbolic pole")
    c = 1.0 / cmath.tanh(x)
    # p_0 = c, p_{n+1} = p_n' * (1 - c^2); store polynomial coefficients in c
    coeffs = [0.0, 1.0]
    out = np.zeros(n_max + 1, dtype=np.complex128)
    out[0] = c
    for n in range(1, n_max + 1):
        deriv = [coeffs[i] * i for i in range(1, len(coeffs))]
        nxt = list(deriv) + [0.0, 0.0]
        for i, d in enumerate(deriv):
            nxt[i + 2] -= d
        coeffs = nxt
        out[n] = sum(coeffs[i] * c**i for i in range(len(coeffs)))
    return out


def _pole_derivs(x: complex, n_max: int, pole_radius: float) -> np.ndarray:
    """[d^n/dx^n 1/x] for n = 0..n_max."""
    if abs(x) < pole_radius:
        raise PoleProximityError(f"argument {x} too close to the pole at zero")
    return np.array(
        [(-1.0) ** n * math.factorial(n) / x ** (n + 1) for n in range(n_max + 1)],
        dtype=np.complex128,
    )


def _separated(profile, hbar: complex, z: complex, ctx: EllipticContext, max_j: int, max_k: int) -> np.ndarray:
    """Table [j, k] of the kernel profile(hbar) + profile(z).

    profile(x, n, pole_radius) returns the stack [f, f', ..., f^(n)] at x.
    The kernel is a sum of one-variable functions, so every genuinely mixed
    derivative is exactly zero.
    """
    if max_j < 0 or max_k < 0:
        raise ValueError("derivative orders must be non-negative")
    u = profile(complex(hbar), max_j, ctx.pole_radius)
    v = profile(complex(z), max_k, ctx.pole_radius)
    out = np.zeros((max_j + 1, max_k + 1), dtype=np.complex128)
    out[:, 0] = u
    out[0, :] = v
    out[0, 0] = u[0] + v[0]
    return out


def phi_trig(hbar: complex, z: complex, ctx: EllipticContext, max_j: int = 0, max_k: int = 0) -> np.ndarray:
    """Hyperbolic degeneration coth(hbar) + coth(z), tabulated like phi_derivs.

    Poles sit on i pi Z in each variable; only ctx.pole_radius is read.
    """
    return _separated(_coth_derivs, hbar, z, ctx, max_j, max_k)


def phi_rat(hbar: complex, z: complex, ctx: EllipticContext, max_j: int = 0, max_k: int = 0) -> np.ndarray:
    """Rational degeneration 1/hbar + 1/z: one simple pole in each variable."""
    return _separated(_pole_derivs, hbar, z, ctx, max_j, max_k)


def kernel_derivs(
    kind: str,
    hbar: complex,
    z: complex,
    ctx: EllipticContext,
    max_j: int = 0,
    max_k: int = 0,
    dtau: int = 0,
    reduce: bool = True,
) -> np.ndarray:
    """Table [j, k] of mixed derivatives of the kernel family kind (see KINDS).

    Any other kind raises ValueError.  dtau = 1 tabulates their modulus
    derivatives instead: for the elliptic kernel through the direct modulus
    series (phi_tau_derivs, unreduced); for the degenerate kinds as zeros,
    with no pole check, because the modulus derivative equals a mixed
    derivative by the flow identity.  reduce applies to the elliptic table
    with dtau = 0 only.

    hbar may also be a list, tuple or array of parameters, with one z or a
    list of as many: the tables at each (parameter, z) come back stacked,
    shape (len(hbar), max_j + 1, max_k + 1) even for an empty list, each bit
    for bit its single-point table.  An elliptic list of at least _BATCH_POINTS
    (12) points is tabulated in one batch (batch.elliptic_tables), which sums
    all its theta series together and runs the table arithmetic over the
    point axis, a shorter list or one of another kind point by point: a batch
    has a fixed numpy cost that only many points repay.  A list that fails
    raises an error one of its points raises alone.  Both routes check poles
    point by point in the same order and name the same failing point; only a
    series error may name another, as the batch sums all series first.
    """
    if dtau not in (0, 1):
        raise ValueError("modulus-derivative order limited to 1")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if isinstance(hbar, (list, tuple, np.ndarray)):
        zs = z if isinstance(z, (list, tuple, np.ndarray)) else [z] * len(hbar)
        if kind == "elliptic" and len(hbar) >= _BATCH_POINTS:
            # loaded on first use, so single-point callers never compile it
            from .batch import elliptic_tables

            return elliptic_tables(hbar, zs, ctx, max_j, max_k, dtau, reduce)
        tables = [kernel_derivs(kind, h, w, ctx, max_j, max_k, dtau, reduce) for h, w in zip(hbar, zs, strict=True)]
        return np.array(tables, dtype=np.complex128).reshape(len(tables), max_j + 1, max_k + 1)
    if kind == "elliptic":
        if dtau:
            return phi_tau_derivs(hbar, z, ctx, max_j, max_k)
        return phi_derivs(hbar, z, ctx, max_j, max_k, reduce=reduce)
    if dtau:
        return np.zeros((max_j + 1, max_k + 1), dtype=np.complex128)
    # looked up at call time, so wrappers installed on the module are seen
    return (phi_trig if kind == "trig" else phi_rat)(hbar, z, ctx, max_j, max_k)
