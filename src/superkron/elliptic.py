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
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb
from operator import mul

import numpy as np

__all__ = [
    "EllipticContext",
    "PoleProximityError",
    "SeriesTruncationError",
    "pair_count",
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
# entries every memo of the package holds before it starts again from empty (_remember), and _squares' size
_MEMO_LIMIT = 1024
# relative series tolerance and the hard cap on frequency pairs summed
_SERIES_TOL = 1e-14
_K_MAX = 200
# derivative order the truncation rule covers: the argument order plus two
# per modulus derivative, whose factor pi i f^2 counts as two (_check_orders)
_TOP_ORDER = 7
# largest real part whose exponential is a finite double, and smallest whose exponential is a normal one
_LOG_MAX, _LOG_MIN = math.log(sys.float_info.max), math.log(sys.float_info.min)
# per pair count n >= 1, the largest term exponent that the argument factors of order _TOP_ORDER,
# at most (2 pi (n - 1/2))^_TOP_ORDER at the summed frequencies, leave finite
_HEADROOM = (_LOG_MAX,) + tuple(_LOG_MAX - _TOP_ORDER * math.log(2 * math.pi * (n - 0.5)) for n in range(1, _K_MAX + 1))


class PoleProximityError(ValueError):
    """Requested evaluation point is too close to a pole or zero divisor."""


class SeriesTruncationError(RuntimeError):
    """A theta series cannot be summed in double precision: it needs more
    than _K_MAX frequency pairs, its largest term times its largest
    order-_TOP_ORDER factor could exceed the floating-point range, or its
    largest term falls below it.  All three are decided from the point and
    the modulus alone (pair_count), before any term is summed."""


@dataclass(frozen=True)
class EllipticContext:
    """Modulus plus the pole radius shared by every evaluation.

    The modulus must be finite, lie in the upper half plane and have a
    real part small enough that tau + 1 differs from tau in double
    precision.  pole_radius is the minimal allowed lattice distance for
    kernel arguments.  The series tolerance and pair cap are the module constants
    _SERIES_TOL (1e-14) and _K_MAX (200), and pair_count fixes the length of
    every series from them.

    Each context also keeps two memos, so that no theta argument is
    summed twice under it, and no kernel table made twice:
    - _stacks: the longest theta stack, a tuple, that theta_stack has
      summed at each (z, dtau); a shorter request reads a slice of it.
      Only theta_stack fills it, so the batch route
      (batch.elliptic_tables) sums its own, all but the origin's.
    - _tables: the largest read-only table kernel_derivs has made at each
      point and request (see there), both modulus orders of one point in one pass.
    A series that fails leaves no stack and a request that fails no table;
    pole checks are not memoized.  Each memo is cleared
    whenever it holds _MEMO_LIMIT (1024) entries, so a long-lived context
    cannot grow it without limit.  The memos are not constructor
    parameters and take no part in equality or hashing: two equal
    contexts compare and hash equal but keep separate memos.
    """

    tau: complex
    pole_radius: float = 1e-3
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tau = complex(self.tau)
        object.__setattr__(self, "tau", tau)
        if not (cmath.isfinite(tau) and tau.imag > 0):
            raise ValueError("modulus must be finite and lie in the upper half plane")
        if tau.real + 1.0 == tau.real:
            # the lattice shift z -> z + 1 would vanish in double precision
            raise ValueError(f"modulus real part {tau.real:g} is so large that tau + 1 rounds to tau")
        if not 0 < self.pole_radius < math.inf:
            raise ValueError("pole_radius must be positive and finite")


def _remember(memo: dict, key, value):
    """value, stored in memo under key; a memo that holds _MEMO_LIMIT entries is cleared first."""
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = value
    return value


@lru_cache(maxsize=64)
def _reach(t: float) -> float:
    """The per-modulus part of pair_count: the smallest s >= 0 with
    exp(-pi t s^2) (2s + 5)^_TOP_ORDER <= _SERIES_TOL, t = Im tau, by fixed-point
    iteration from below (infinite when t is too small for a finite s)."""
    goal = -math.log(_SERIES_TOL)
    s = 0.0
    while True:
        nxt = math.sqrt((goal + _TOP_ORDER * math.log(2.0 * s + 5.0)) / (math.pi * t))
        if not nxt > s:
            return nxt
        s = nxt


def pair_count(z: complex, tau: complex) -> int:
    """Number of symmetric frequency pairs the theta series sums at z: ceil(u + s).

    With t = Im tau, the term of frequency f has modulus exp(pi t u^2 - pi t (f + Im z/t)^2)
    times its derivative factors: a Gaussian centred on the turnaround
    u = |Im z|/t.  Summing N pairs, f = +-1/2, ..., +-(N - 1/2), leaves out
    |f| >= N + 1/2, where the Gaussian factor is at most exp(-pi t (s + 1/2)^2)
    times its peak.  The summed frequency nearest the turnaround lies within
    1/2 of it, at |f| >= max(1/2, u - 1/2), so the first omitted term of
    derivative order d is at most exp(-pi t s^2) (2s + 5)^d times the summed
    term of order d there, and later ones fall off as the Gaussian does.
    The reach s = _reach(t) makes that bound _SERIES_TOL at d = _TOP_ORDER
    (7, a modulus derivative, whose factor is f^2, counting as two).  The
    count depends on z and tau only, not on the orders summed, so both
    evaluators (theta_stack and batch) sum exactly this many pairs and a
    stack's entries do not depend on its length.

    Raises SeriesTruncationError when u + s exceeds _K_MAX (compared before
    rounding up, so an infinite or undefined count raises too), when the
    largest term, at the summed frequency nearest the turnaround, times the
    largest factor (2 pi f)^_TOP_ORDER of the summed frequencies could
    exceed the floating-point range (_HEADROOM), whatever orders are asked,
    or when the exponent of that largest term is below _LOG_MIN, so that
    every term is subnormal or zero (at Im tau above about 902 for real z).
    """
    t = tau.imag
    count = abs(z.imag) / t + _reach(t)
    if not count <= _K_MAX:
        raise SeriesTruncationError(f"series needs more than {_K_MAX} frequency pairs (z={z}, tau={tau})")
    pairs = math.ceil(count)
    peak = math.floor(-z.imag / t) + 0.5
    exponent = -math.pi * (t * peak * peak + 2.0 * z.imag * peak)
    if exponent > _HEADROOM[pairs]:
        raise SeriesTruncationError(f"series term exceeds the floating-point range (z={z}, tau={tau})")
    if exponent < _LOG_MIN:
        raise SeriesTruncationError(f"series terms fall below the floating-point range (z={z}, tau={tau})")
    return pairs


# the frequencies +1/2, -1/2, +3/2, -3/2, ... of _K_MAX pairs, in summing order, their modulus
# factors pi i f^2, and their argument factors (2 pi i f)^d, one tuple per order d = 0.._TOP_ORDER, each
# the one before times 2 pi i f from 1.0 + 0j
_FREQS = tuple(f for p in range(_K_MAX) for f in (p + 0.5, -(p + 0.5)))
_MODULUS = tuple(_PI_I * f * f for f in _FREQS)
_COLUMNS = tuple(accumulate(repeat(tuple(_TWO_PI_I * f for f in _FREQS), _TOP_ORDER),
                            lambda column, steps: tuple(map(mul, column, steps)), initial=(1.0 + 0j,) * len(_FREQS)))


@lru_cache(maxsize=_MEMO_LIMIT)
def _squares(tau: complex, sign: float, pairs: int) -> tuple:
    """tau f f at the first 2 pairs frequencies of _FREQS, cached by tau, sign = copysign(1.0, tau.real)
    (the two zeros of tau.real compare and hash equal) and pairs."""
    return tuple(tau * f * f for f in _FREQS[: 2 * pairs])


def _check_orders(max_j: int, max_k: int, dtau: int) -> None:
    """Raise ValueError for a request the truncation rule does not cover: a negative order, a modulus
    order other than 0 or 1, or a highest theta order max_j + max_k + 2 dtau above _TOP_ORDER."""
    if max_j < 0 or max_k < 0:
        raise ValueError("derivative orders must be non-negative")
    if dtau not in (0, 1):
        raise ValueError("modulus-derivative order limited to 1")
    if max_j + max_k + 2 * dtau > _TOP_ORDER:
        raise ValueError(f"derivative orders limited to {_TOP_ORDER}, counting a modulus derivative as two")


def theta_stack(
    z: complex,
    ctx: EllipticContext,
    max_dz: int = 0,
    dtau: int = 0,
) -> tuple:
    """Argument-derivative stack (f, f', ..., f^(max_dz)) at z, a tuple of Python complex numbers.

    With dtau = 1 every entry additionally carries one derivative in the
    modulus; a request _check_orders refuses raises ValueError.  All
    orders share one exponential per frequency.  The sum runs over
    pair_count(z, tau) symmetric pairs of increasing frequency, + before -,
    for every order alike, so an entry of order d is the same whatever
    max_dz >= d.  pair_count raises SeriesTruncationError before any term
    is summed, so a table request, which sums its stacks before it checks
    its poles (_check_poles), raises a series error before any pole error.
    The per-frequency constants are cached (_squares per tau and pair
    count, _MODULUS and _COLUMNS per process): an order's terms are the
    exponentials times its column of argument factors, added in frequency
    order from 0j by sum().

    The result is memoized on ctx (see EllipticContext), by (z, dtau),
    longest stack kept: a request of the memo's length returns the same
    tuple, a shorter one a slice of it, and only a longer one sums again.
    A dtau = 1 request sums modulus orders 0 and 1 from the same
    exponentials, and memoizes both, so a caller that needs both asks for
    order 1 first.  A failed request is not memoized.
    """
    _check_orders(max_dz, 0, dtau)
    z = complex(z)
    memo = ctx._stacks
    stack = memo.get((z, dtau))
    if stack is not None and len(stack) > max_dz:
        return stack[: max_dz + 1]
    tau = ctx.tau
    shift = 2.0 * (z + 0.5)
    squares = _squares(tau, math.copysign(1.0, tau.real), pair_count(z, tau))
    bases = [cmath.exp(_PI_I * (q + shift * f)) for q, f in zip(squares, _FREQS)]
    columns = _COLUMNS[: max_dz + 1]
    if dtau == 1:
        plain = memo.get((z, 0))
        if plain is None or len(plain) <= max_dz:
            _remember(memo, (z, 0), tuple([sum(map(mul, bases, c), 0j) for c in columns]))
        bases = list(map(mul, bases, _MODULUS))
    return _remember(memo, (z, dtau), tuple([sum(map(mul, bases, c), 0j) for c in columns]))


def theta(z: complex, ctx: EllipticContext, dz: int = 0, dtau: int = 0) -> complex:
    """Odd lattice function (or a z/modulus derivative of it) at z; the orders are theta_stack's."""
    return theta_stack(z, ctx, dz, dtau)[dz]


@lru_cache(maxsize=64)
def _origin_data(ctx: EllipticContext) -> tuple[complex, complex]:
    """(first z-derivative at 0, its modulus derivative), cached per context."""
    dot = theta(0.0, ctx, dz=1, dtau=1)
    return theta(0.0, ctx, dz=1), dot


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
    """PoleProximityError naming label unless w lies at least ctx.pole_radius off the lattice."""
    d = lattice_distance(w, ctx.tau)
    if d < ctx.pole_radius:
        raise PoleProximityError(
            f"{label}={complex(w)} is {d:.3e} away from the lattice "
            f"(minimum allowed {ctx.pole_radius:.3e})"
        )


# -- kernel and derivative tables -------------------------------------------


def _check_poles(hbar: complex, z: complex, ctx: EllipticContext) -> None:
    """The poles of one table request, at z, hbar and hbar+z as given, in that order.

    A request sums its theta stacks at z, hbar and hbar+z first, in that
    order, each raising its series error before it sums a term, so its
    series errors come before its pole errors; it calls this before it
    takes a reciprocal, whose division by zero would warn.
    """
    _require_regular(z, ctx, "z")
    _require_regular(hbar, ctx, "hbar")
    _require_regular(hbar + z, ctx, "hbar+z")


def _reciprocal_derivs(f) -> list:
    """Derivatives of 1/f from derivatives of f (Leibniz recursion), by order.

    f[d] is the d-th derivative: one point's stack, a tuple summed on plain
    Python numbers, or in the batch an (order, point) array, summed on rows
    over points; so for the helpers below.  1/f[0] is numpy's division,
    which Python's complex division does not match bit for bit.
    """
    r = [np.divide(1.0, f[0])]
    if isinstance(f, tuple):
        r = [complex(r[0])]
    for m in range(1, len(f)):
        acc = 0j
        for k in range(1, m + 1):
            acc += comb(m, k) * f[k] * r[m - k]
        r.append(-r[0] * acc)
    return r


def _reciprocal_dot(f_dot, r: list) -> list:
    """Modulus-derivative stack of 1/f, by order, from that of f and the derivatives r of 1/f (at least
    as many): -(f_dot r) r, each product a Leibniz sum, so no power of r beyond the first is formed."""
    g = [sum(comb(s, i) * f_dot[i] * r[s - i] for i in range(s + 1)) for s in range(len(f_dot))]
    return [-sum(comb(p, s) * g[s] * r[p - s] for s in range(p + 1)) for p in range(len(f_dot))]


@lru_cache(maxsize=32)
def _leibniz_terms(max_j: int, max_k: int) -> tuple:
    """The Leibniz terms of a (max_j + 1, max_k + 1) table, by row and cell: cell (j, k) holds
    (comb(j, p) comb(k, q), p + q, j - p, k - q) for p <= j (outer) and q <= k (inner)."""
    return tuple(
        tuple(tuple((comb(j, p) * comb(k, q), p + q, j - p, k - q) for p in range(j + 1) for q in range(k + 1))
              for k in range(max_k + 1))
        for j in range(max_j + 1)
    )


def _leibniz(a, u, v, max_j: int, max_k: int, dots=None) -> list:
    """Cells [j][k] of the mixed derivatives of a(hbar + z) u(hbar) v(z), as rows of cells.

    a, u and v hold derivatives by order, as in _reciprocal_derivs: Python
    numbers on the scalar route, rows over points in the batch.  With dots,
    the modulus-derivative stacks (a_dot, u_dot, v_dot) of the factors, it
    returns their modulus-derivative cells instead; both routes take the
    plain cells from their own call without dots.
    Each cell adds its terms (_leibniz_terms, cached per size) in order from
    0j.  The routes share this code but not its bits: numpy's complex products
    over arrays round differently from Python's, though alike at every array
    length, so a batch of one equals a row of a longer batch.
    """
    a_dot, u_dot, v_dot = dots or (None, None, None)
    cells = []
    for row in _leibniz_terms(max_j, max_k):
        cells.append([])
        for cell in row:
            acc = 0j
            if dots:
                for c, s, m, n in cell:
                    acc += c * (a_dot[s] * u[m] * v[n] + a[s] * u_dot[m] * v[n] + a[s] * u[m] * v_dot[n])
            else:
                for c, s, m, n in cell:
                    acc += c * a[s] * u[m] * v[n]
            cells[-1].append(acc)
    return cells


def _envelope(hbar: complex, z: complex, z_red: complex, n_z: int, n_h: int) -> complex:
    """exp(-2 pi i (n_z hbar + n_h z_red)), phi_derivs' lattice multiplier; its OverflowError names the point."""
    try:
        return cmath.exp(-_TWO_PI_I * (n_z * hbar + n_h * z_red))
    except OverflowError:
        raise OverflowError(f"lattice multiplier exceeds the floating-point range (hbar={hbar}, z={z})") from None


def _restored(inner, n_z, n_h, envelope, plain=None) -> list:
    """phi_derivs' lattice multipliers restored on inner, the rows of cells at the reduced points, from the
    lattice shifts n_z and n_h and _envelope: Python numbers, or rows over points in the batch.

    A shift of z contributes a multiplier exponential in the parameter and
    vice versa, so differentiation mixes orders downward: cell [j][k] is the
    envelope times the sum over i <= j and l <= k of comb(j, i) c_z^(j-i)
    comb(k, l) c_h^(k-l) inner[i][l], c = -2 pi i n, the powers taken by **
    (which for complex numbers does not round like repeated products).  With
    plain, the kernel's cells at the reduced points one order further in each
    variable, inner holds modulus-derivative cells, which first gain the chain
    term of the reduced points and the envelope moving with the modulus:
    d_tau phi(hbar, z) = E [d_tau phi + 2 pi i n_h n_z phi - n_h d_hbar phi - n_z d_z phi](hbar_r, z_r).
    """
    c_z, c_h = -_TWO_PI_I * n_z, -_TWO_PI_I * n_h
    if plain is not None:
        cross = _TWO_PI_I * n_h * n_z
        inner = [[cell + cross * plain[j][k] - n_h * plain[j + 1][k] - n_z * plain[j][k + 1]
                  for k, cell in enumerate(row)] for j, row in enumerate(inner)]
    rows, cols = len(inner), len(inner[0])
    p_h = [c_h**e for e in range(cols)]
    out = []
    for j in range(rows):
        w_z = [comb(j, i) * c_z ** (j - i) for i in range(j + 1)]
        out.append([])
        for k in range(cols):
            acc = 0j
            for i, w in enumerate(w_z):
                for l in range(k + 1):
                    acc += w * comb(k, l) * p_h[k - l] * inner[i][l]
            out[-1].append(envelope * acc)
    return out


def _table(hbar: complex, z: complex, ctx: EllipticContext, size0, size1, reduce: bool) -> tuple:
    """(phi_derivs, phi_tau_derivs) at one point, sizes size0 and size1 ((max_j, max_k) or None for no table), in
    one pass: ratios of theta stacks, at the reduced points where reduce, multipliers restored (_restored); one
    Leibniz pass makes both orders' plain cells, at a shifted point one order further for order 1's chain term."""
    hbar, z = complex(hbar), complex(z)
    z_red, h_red, n_z, n_h = z, hbar, 0, 0
    if reduce:
        z_red, _, n_z = lattice_reduce(z, ctx.tau)
        h_red, _, n_h = lattice_reduce(hbar, ctx.tau)
    a_red, shifted = h_red + z_red, bool(n_z or n_h)
    mj, mk = size0 or (0, 0)
    if size1:
        dj, dk = size1
        mj, mk = max(mj, dj + shifted), max(mk, dk + shifted)
        # order 1 first, at the plain cells' lengths where the truncation rule allows: its pass sums order 0 too
        d_z = theta_stack(z_red, ctx, min(mk, _TOP_ORDER - 2), 1)[: dk + 1]
        d_h = theta_stack(h_red, ctx, min(mj, _TOP_ORDER - 2), 1)[: dj + 1]
        a_dot = theta_stack(a_red, ctx, min(mj + mk, _TOP_ORDER - 2), 1)
    s_z = theta_stack(z_red, ctx, mk)
    s_h = theta_stack(h_red, ctx, mj)
    a = theta_stack(a_red, ctx, mj + mk)
    _check_poles(hbar, z, ctx)
    u, v = _reciprocal_derivs(s_h), _reciprocal_derivs(s_z)
    prime0, prime0_dot = _origin_data(ctx)
    cells = _leibniz(a, u, v, mj, mk)
    # the kernel's cells at the reduced points, with no lattice multipliers
    plain = table0 = [[prime0 * cell for cell in row] for row in cells]
    if size0 and size0 != (mj, mk):
        table0 = [row[: size0[1] + 1] for row in plain[: size0[0] + 1]]
    if size1:
        dots = _leibniz(a, u, v, dj, dk, (a_dot, _reciprocal_dot(d_h, u), _reciprocal_dot(d_z, v)))
        table1 = [[prime0_dot * c + prime0 * d for c, d in zip(*rows)] for rows in zip(cells, dots)]
    if shifted:
        envelope = _envelope(hbar, z, z_red, n_z, n_h)
        table0 = size0 and _restored(table0, n_z, n_h, envelope)
        table1 = size1 and _restored(table1, n_z, n_h, envelope, plain)
    return size0 and np.array(table0), size1 and np.array(table1)


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
    return _table(hbar, z, ctx, (max_j, max_k), None, reduce)[0]


def phi_tau_derivs(
    hbar: complex,
    z: complex,
    ctx: EllipticContext,
    max_j: int = 1,
    max_k: int = 0,
    reduce: bool = False,
) -> np.ndarray:
    """Modulus derivative of the kernel's mixed-derivative table.

    Entry [j, k] is the modulus derivative of the (j, k) mixed derivative,
    obtained by differentiating the defining ratio of lattice functions
    term by term in the modulus.  No use of the flow identity, so
    comparisons against tables produced by phi_derivs are genuine two-route
    checks.  By default the series are summed at the given points directly;
    reduce=True sums them at the reduced points, as phi_derivs does, and
    restores the multipliers with their modulus chain term (_restored).
    """
    return _table(hbar, z, ctx, None, (max_j, max_k), reduce)[1]


# -- degenerations ----------------------------------------------------------


@lru_cache(maxsize=16)
def _coth_poly(n: int) -> tuple:
    """Coefficients in c = coth(x) of p_n(c) = d^n/dx^n coth(x), p_0 = c and p_{n+1} = p_n'(c) (1 - c^2):
    exact small integers, as floats."""
    if n == 0:
        return (0.0, 1.0)
    deriv = [a * i for i, a in enumerate(_coth_poly(n - 1))][1:]
    return tuple(a - b for a, b in zip(deriv + [0.0, 0.0], [0.0, 0.0] + deriv))


def _coth_derivs(x: complex, n_max: int, pole_radius: float) -> np.ndarray:
    """[d^n/dx^n coth(x)] for n = 0..n_max via the square polynomial chain (_coth_poly)."""
    x = complex(x)
    nearest = round(x.imag / math.pi)
    if abs(x - 1j * math.pi * nearest) < pole_radius:
        raise PoleProximityError(f"argument {x} too close to a hyperbolic pole")
    c = 1.0 / cmath.tanh(x)
    out = [c]
    for n in range(1, n_max + 1):
        coeffs = _coth_poly(n)
        out.append(sum(coeffs[i] * c**i for i in range(len(coeffs))))
    return np.array(out)


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
    """Read-only table [j, k] of mixed derivatives of the kernel family kind (see KINDS) at one point (hbar, z).

    A request _check_orders refuses, for every kind, or a kind outside
    KINDS raises ValueError.  dtau = 1 tabulates their modulus
    derivatives instead: for the elliptic kernel through the direct modulus
    series; for the degenerate kinds as zeros, with no pole check, because
    the modulus derivative equals a mixed derivative by the flow identity.
    reduce applies to the elliptic tables of both modulus orders, made by
    phi_derivs' and phi_tau_derivs' own pass (_table).  _kernel_tables, of
    which this is the one-order form, makes both orders of a point in that
    one pass, as SuperFunction.evaluate asks; batch.elliptic_tables makes
    many elliptic points at once, reduced.

    Tables are memoized on ctx by (kind, hbar, z, dtau, reduce where it
    applies), the two zeros told apart, largest table kept: no cell depends
    on the table size, so a request no larger in either order reads the
    leading cells of the stored table, and any other tabulates the larger
    of both sizes in each order and replaces it.  A failed request stores
    nothing, for either order.  An elliptic request raises the series errors
    of its theta arguments z, hbar and hbar+z (reduced where the table is),
    in that order, before the pole errors of z, hbar and hbar+z as given.
    """
    _check_orders(max_j, max_k, dtau)
    size = (max_j, max_k)
    table = _kernel_tables(kind, hbar, z, ctx, None if dtau else size, size if dtau else None, reduce)[dtau]
    return table if table.shape == (max_j + 1, max_k + 1) else table[: max_j + 1, : max_k + 1]


def _kernel_tables(kind: str, hbar: complex, z: complex, ctx: EllipticContext, size0, size1, reduce: bool) -> list:
    """[order-0 table, order-1 table] that kernel_derivs stores for one point, at least of sizes size0 and size1
    ((max_j, max_k), or None for no table): the orders that must grow are made in one pass, then stored."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    hbar, z = complex(hbar), complex(z)
    key = (kind, hbar, z, bool(reduce) or kind != "elliptic")
    if not (hbar.real and hbar.imag and z.real and z.imag):
        # complex equality does not tell the two zeros apart
        key += (repr(hbar), repr(z))
    tables, grow = [None, None], [None, None]
    for dtau, size in enumerate((size0, size1)):
        if size:
            _check_orders(*size, dtau)
            table = tables[dtau] = ctx._tables.get(key + (dtau,))
            rows, cols = (0, 0) if table is None else table.shape
            if rows <= size[0] or cols <= size[1]:
                grow[dtau] = max(size[0], rows - 1), max(size[1], cols - 1)
    if kind == "elliptic":
        made = _table(hbar, z, ctx, *grow, reduce) if grow != [None, None] else ()
    else:
        # looked up at call time, so wrappers installed on the module are seen
        made = (grow[0] and (phi_trig if kind == "trig" else phi_rat)(hbar, z, ctx, *grow[0]),
                grow[1] and np.zeros((grow[1][0] + 1, grow[1][1] + 1), dtype=np.complex128))
    for dtau, table in enumerate(made):
        if table is not None:
            table.flags.writeable = False
            tables[dtau] = _remember(ctx._tables, key + (dtau,), table)
    return tables
