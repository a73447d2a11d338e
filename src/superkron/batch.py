"""Theta stacks and elliptic kernel tables at many points at once, bit for bit.

theta_stacks sums the theta series of many (z, max_dz, dtau) keys in one
frequency-vectorised numpy evaluation; elliptic_tables builds the
phi_derivs or phi_tau_derivs tables of many (parameter, argument) points
from them.  The lattice geometry is elliptic's own: each parameter and
distinct argument is checked and reduced by the scalar lattice_distance
and lattice_reduce, the theta memo bounded by the same helper.  What runs
over the point axis is what pays there: the series sums, the reciprocal
recursions, the Leibniz cell sums and the multipliers.  Each
result equals bit for bit what the scalar routes in elliptic return at its
point: complex values travel as (real, imaginary) pairs, every product goes
through _cmul, which rounds as Python's and numpy's complex scalars do, and
every sum runs in the scalar loops' order.  The scalar routes stay the
reference; kernel_derivs decides which route a request takes.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from math import comb

import numpy as np

from .elliptic import (
    _K_MAX,
    _PI_I,
    _SERIES_TOL,
    _TWO_PI_I,
    EllipticContext,
    SeriesTruncationError,
    _memoize,
    _origin_data,
    _reciprocal_derivs,
    _reciprocal_dot,
    _require_regular,
    lattice_distance,
    lattice_reduce,
)

__all__ = ["theta_stacks", "elliptic_tables"]


# -- theta series ---------------------------------------------------------------


def _cmul(ar, ai, br, bi):
    """Complex product (ar + i ai)(br + i bi) in the real arithmetic of Python's complex type.

    Python and numpy complex scalars multiply as (ar br - ai bi, ar bi + ai br),
    a float operand taking imaginary part 0.0; numpy's array complex multiply
    rounds some products differently, so this module multiplies through _cmul.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array with these parts, exactly (re + 1j * im rounds through a product)."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


@lru_cache(maxsize=32)
def _frequency_tables(max_dz: int, dtau: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frequency factors of theta_stack's loop for pairs 0.._K_MAX-1, signs (+, -).

    Returns the frequencies f, shape (_K_MAX, 2), the modulus factor
    (pi i f^2)^dtau and the argument factors (2 pi i f)^d for d = 0..max_dz,
    shape (_K_MAX, 2, max_dz + 1), as complex arrays built by the loop's own
    Python arithmetic.
    """
    freqs = [[sgn * (p + 0.5) for sgn in (1.0, -1.0)] for p in range(_K_MAX)]
    modulus = [[(_PI_I * f * f) ** dtau for f in pair] for pair in freqs]
    argument = []
    for pair in freqs:
        row = []
        for f in pair:
            fac, step, facs = 1.0 + 0j, _TWO_PI_I * f, []
            for _ in range(max_dz + 1):
                facs.append(fac)
                fac *= step
            row.append(facs)
        argument.append(row)
    return np.array(freqs), np.array(modulus, dtype=complex), np.array(argument, dtype=complex)


@lru_cache(maxsize=16)
def _modulus_terms(tau: complex) -> np.ndarray:
    """tau f f for theta_stack's frequencies, in its own Python arithmetic."""
    freqs, _, _ = _frequency_tables(0, 0)
    return np.array([[tau * f * f for f in pair] for pair in freqs.tolist()], dtype=complex)


def _sum_series(zs: list, max_dz: int, dtau: int, tau: complex, pairs: int):
    """Theta stacks at the points zs from at most the first `pairs` frequency pairs.

    Every point's terms, running sums and peaks are those of theta_stack's
    loop, computed for all points and pairs at once in the same IEEE
    operations; each point then stops by its own rule over its own orders.
    Returns the stacks, shape (points, max_dz + 1), and per point 2 if one
    of its terms within the pairs lies beyond the floating-point range,
    else 0 if its rule stopped within the pairs and 1 if not (its stack is
    then not summed yet).
    """
    freqs, modulus, argument = _frequency_tables(max_dz, dtau)
    taus = _modulus_terms(tau)[:pairs]
    shift = np.array([2.0 * (z + 0.5) for z in zs])[:, None, None]
    turn = np.array([abs(z.imag) / tau.imag for z in zs])[:, None]
    # tau f f + shift f, times pi i, exponentiated: shape (points, pairs, 2)
    sr, si = _cmul(shift.real, shift.imag, freqs[:pairs], 0.0)
    wr, wi = _cmul(0.0, math.pi, taus.real + sr, taus.imag + si)
    base = np.exp(_complex(wr, wi))
    reached = ~np.isfinite(base).all(axis=2)
    br, bi = base.real, base.imag
    if dtau:
        br, bi = _cmul(br, bi, modulus[:pairs].real, modulus[:pairs].imag)
    # terms in the loop's order: pair-major, + before -, then derivative order
    fac = argument[:pairs]
    tr, ti = _cmul(br[..., None], bi[..., None], fac.real, fac.imag)
    shape = (len(zs), 2 * pairs, max_dz + 1)
    tr, ti = tr.reshape(shape), ti.reshape(shape)
    mag = np.hypot(tr, ti)
    # a running peak starts at one and only rises; a NaN is never a peak
    peak = np.fmax(np.fmax.accumulate(mag, axis=1), 1.0)
    pair_rel = np.fmax(np.fmax.reduce((mag / peak).reshape(len(zs), pairs, -1), axis=2), 0.0)
    quiet = (np.arange(pairs) >= turn) & (pair_rel <= _SERIES_TOL)
    two = quiet[:, 1:] & quiet[:, :-1]
    stopped = two.any(axis=1)
    summed = np.where(stopped, two.argmax(axis=1) + 2, pairs)
    # past its turnaround a point's terms only shrink, so a term beyond the
    # range always lies before its stop, where its own sum reaches it
    failed = reached.any(axis=1)
    # the loop's totals start at 0j, and 0.0 + (-0.0) is +0.0
    tr[:, 0] += 0.0
    ti[:, 0] += 0.0
    rows, last = np.arange(len(zs)), 2 * summed - 1
    sums = _complex(np.add.accumulate(tr, axis=1)[rows, last], np.add.accumulate(ti, axis=1)[rows, last])
    return sums, np.where(failed, 2, np.where(stopped, 0, 1))


def theta_stacks(keys: list, ctx: EllipticContext) -> list:
    """theta_stack for many (z, max_dz, dtau) keys at once, bit for bit.

    Each key is looked up in the context memo; the misses of each
    (max_dz, dtau) are summed together by _sum_series, over a first block of
    frequency pairs sized from the Gaussian tail bound past the furthest
    turnaround, extended for any key whose rule has not stopped.  Every key
    gets exactly the partial sum theta_stack would, so its bits never depend
    on its batch neighbours, and the same errors: a term beyond the
    floating-point range that the key's own sum reaches, or no stop within
    _K_MAX pairs, raises SeriesTruncationError naming the point, and that
    key is not memoized.  Stacks are memoized read-only.
    """
    memo = ctx._stacks
    tau = ctx.tau
    found = {}
    misses: dict[tuple[int, int], dict[complex, None]] = {}
    for key in keys:
        stack = memo.get(key)
        if stack is None:
            misses.setdefault(key[1:], {})[key[0]] = None
        else:
            found[key] = stack
    reach = math.sqrt(-math.log(_SERIES_TOL) / (math.pi * tau.imag))
    for (max_dz, dtau), group in misses.items():
        if max_dz < 0 or dtau < 0:
            raise ValueError("derivative orders must be non-negative")
        todo = list(group)
        pairs = int(min(_K_MAX, max(abs(z.imag) for z in todo) / tau.imag + reach + 4))
        while todo:
            with np.errstate(all="ignore"):
                sums, state = _sum_series(todo, max_dz, dtau, tau, pairs)
            sums.flags.writeable = False
            for i in np.flatnonzero(state == 0):
                key = (todo[i], max_dz, dtau)
                found[key] = _memoize(ctx, key, sums[i])
            if (state == 2).any():
                z = todo[int((state == 2).argmax())]
                raise SeriesTruncationError(f"series term exceeds the floating-point range (z={z}, tau={tau})")
            todo = [z for z, s in zip(todo, state) if s == 1]
            if todo and pairs == _K_MAX:
                raise SeriesTruncationError(
                    f"series not converged after {_K_MAX} frequency pairs (z={todo[0]}, tau={tau})"
                )
            pairs = min(_K_MAX, 2 * pairs)
    return [found[key] for key in keys]


# -- kernel tables ------------------------------------------------------------


@lru_cache(maxsize=32)
def _leibniz_terms(max_j: int, max_k: int) -> tuple:
    """The terms (p, q) of every cell's double sum, in the scalar loops' order.

    Cells (j, k) of a (max_j + 1, max_k + 1) table run in row-major order;
    cell (j, k) sums over p <= j (outer) and q <= k (inner), padded to
    (max_j + 1)(max_k + 1) slots.  Returns integer arrays j, k, p, q, the
    float coefficient comb(j, p) comb(k, q) and the mask of real terms,
    each of shape (cells, slots); padding slots read index 0.
    """
    cells = [(j, k) for j in range(max_j + 1) for k in range(max_k + 1)]
    slots = (max_j + 1) * (max_k + 1)
    j = np.array([[c[0]] * slots for c in cells])
    k = np.array([[c[1]] * slots for c in cells])
    p, q = np.arange(slots) // (k + 1), np.arange(slots) % (k + 1)
    real = p <= j
    p = np.where(real, p, 0)
    coeff = np.array([[float(comb(jj, pp) * comb(kk, qq)) for jj, pp, kk, qq in zip(*rows)]
                      for rows in zip(j.tolist(), p.tolist(), k.tolist(), q.tolist())])
    return j, k, p, q, coeff, real


def _chain(*factors):
    """Left-to-right product of complex factors given as (real, imaginary) pairs."""
    re, im = factors[0]
    for br, bi in factors[1:]:
        re, im = _cmul(re, im, br, bi)
    return re, im


def _parts(x) -> tuple:
    return x.real, x.imag


def _ordered_sum(term: tuple, real: np.ndarray) -> tuple:
    """Sum over the last axis from 0j, in order, as `acc += term` does.

    Padding slots add +0.0, which changes no such sum: it never holds -0.0.
    """
    re, im = (np.where(real, x, 0.0) for x in term)
    re[..., 0] += 0.0
    im[..., 0] += 0.0
    return np.add.accumulate(re, axis=-1)[..., -1], np.add.accumulate(im, axis=-1)[..., -1]


def _reciprocals(f: np.ndarray) -> tuple:
    """_reciprocal_derivs of every row of f, as lists of (real, imaginary) columns."""
    fr, fi = f.real, f.imag
    # numpy divides complex scalars through its array loop (Smith's method),
    # so 1.0 / f[0] rounds as this does; Python's complex division does not
    r = [_parts(1.0 / f[:, 0])]
    for m in range(1, f.shape[1]):
        acc = (0.0, 0.0)
        for k in range(1, m + 1):
            tr, ti = _chain((float(comb(m, k)), 0.0), (fr[:, k], fi[:, k]), r[m - k])
            acc = (acc[0] + tr, acc[1] + ti)
        r.append(_cmul(-r[0][0], -r[0][1], *acc))
    return r


def _reciprocal_dots(f_dot: np.ndarray, r: list) -> list:
    """_reciprocal_dot of every row, r as returned by _reciprocals."""
    n = len(r)

    def binomial_sum(s, x, y):
        acc = (0.0, 0.0)
        for i in range(s + 1):
            tr, ti = _chain((float(comb(s, i)), 0.0), x[i], y[s - i])
            acc = (acc[0] + tr, acc[1] + ti)
        return acc

    r2 = [binomial_sum(s, r, r) for s in range(n)]
    dots = [(f_dot[:, s].real, f_dot[:, s].imag) for s in range(n)]
    return [tuple(-x for x in binomial_sum(p, dots, r2)) for p in range(n)]


def _columns(parts: list) -> tuple:
    """A list of (real, imaginary) columns as two (rows, n) arrays."""
    return np.stack([c[0] for c in parts], axis=1), np.stack([c[1] for c in parts], axis=1)


def _inner_tables(hs: np.ndarray, zs: np.ndarray, which, ctx: EllipticContext, max_j: int, max_k: int, dot=False):
    """_inner_table (or with dot, phi_tau_derivs' table) at every point (hs[i], zs[which[i]]).

    Returns the (real, imaginary) parts of the cells, shape (len(hs), cells).
    """
    top = max_j + max_k
    orders = (0, 1) if dot else (0,)
    keys = [(w, n, d) for pair in zip((hs + zs[which]).tolist(), hs.tolist()) for w, n in zip(pair, (top, max_j))
            for d in orders]
    keys += [(z, max_k, d) for z in zs.tolist() for d in orders]
    stacks = theta_stacks(keys, ctx)
    step = 2 * len(orders)
    points, args = stacks[:step * len(hs)], stacks[step * len(hs):]
    a = np.array(points[0::step])
    u = _reciprocals(np.array(points[len(orders)::step]))
    v = [_reciprocal_derivs(stack) for stack in args[0::len(orders)]]
    j, k, p, q, coeff, real = _leibniz_terms(max_j, max_k)
    A, U, V = _parts(a[:, p + q]), _columns(u), _parts(np.array(v)[which][:, k - q])
    U = (U[0][:, j - p], U[1][:, j - p])
    prime0, prime0_dot = _origin_data(ctx)
    inner = _ordered_sum(_chain((coeff, 0.0), A, U, V), real)
    if not dot:
        return _cmul(prime0.real, prime0.imag, *inner)
    a_dot = _parts(np.array(points[1::step])[:, p + q])
    u_dot = _columns(_reciprocal_dots(np.array(points[3::step]), u))
    u_dot = (u_dot[0][:, j - p], u_dot[1][:, j - p])
    v_dot = _parts(np.array([_reciprocal_dot(stack, r) for stack, r in zip(args[1::2], v)])[which][:, k - q])
    x, y, w = _chain(a_dot, U, V), _chain(A, u_dot, V), _chain(A, U, v_dot)
    summed = ((x[0] + y[0]) + w[0], (x[1] + y[1]) + w[1])
    dots = _ordered_sum(_chain((coeff, 0.0), summed), real)
    first = _cmul(prime0_dot.real, prime0_dot.imag, *inner)
    second = _cmul(prime0.real, prime0.imag, *dots)
    return first[0] + second[0], first[1] + second[1]


@lru_cache(maxsize=64)
def _shift_weights(n_z: int, n_h: int, max_j: int, max_k: int) -> np.ndarray:
    """phi_derivs' multiplier weight of each Leibniz term, in its own Python arithmetic."""
    c_z = -_TWO_PI_I * n_z
    c_h = -_TWO_PI_I * n_h
    # as Python ints, so that the weights stay in the scalar loop's Python arithmetic
    j, k, p, q = (x.tolist() for x in _leibniz_terms(max_j, max_k)[:4])
    return np.array([[comb(jj, i) * c_z ** (jj - i) * comb(kk, l) * c_h ** (kk - l)
                      for jj, i, kk, l in zip(*rows)] for rows in zip(j, p, k, q)])


def elliptic_tables(hbars, z, ctx: EllipticContext, max_j: int, max_k: int, dtau: int, reduce: bool) -> np.ndarray:
    """The elliptic kernel_derivs tables at every parameter in hbars, with one z or one z per parameter.

    Returns shape (len(hbars), max_j + 1, max_k + 1), each table equal bit
    for bit to phi_derivs (dtau = 0) or phi_tau_derivs (dtau = 1) at its
    point, with the same multipliers and errors; each distinct z is checked,
    reduced and summed once.  Poles are checked one point at a time, z, hbar
    and hbar+z, in order, as the scalar routes check them, so the first
    point that fails names the error with the scalar message; the points
    before it are tabulated first, so a series or overflow error of theirs
    comes first.  All theta stacks are summed by one theta_stacks request.
    """
    hbars = np.array(hbars, dtype=np.complex128).reshape(-1)
    zs = np.broadcast_to(np.array(z, dtype=np.complex128), hbars.shape).copy()
    tau = ctx.tau
    # distinct z by their bits, so that 0.0 and -0.0 stay apart
    _, first, which = np.unique(zs.view(np.int64).reshape(-1, 2), axis=0, return_index=True, return_inverse=True)
    distinct, which = zs[first], which.reshape(-1)
    near = [lattice_distance(w, tau) < ctx.pole_radius for w in distinct.tolist()]
    for i, (h, w) in enumerate(zip(hbars.tolist(), zs.tolist())):
        if near[which[i]] or min(lattice_distance(h, tau), lattice_distance(h + w, tau)) < ctx.pole_radius:
            # the points before the first one near a pole raise their own
            # errors first, as they do one by one
            if i:
                elliptic_tables(hbars[:i], zs[:i], ctx, max_j, max_k, dtau, reduce)
            _require_regular(w, ctx, "z")
            _require_regular(h, ctx, "hbar")
            _require_regular(h + w, ctx, "hbar+z")
    with np.errstate(all="ignore"):
        if dtau or not reduce:
            re, im = _inner_tables(hbars, distinct, which, ctx, max_j, max_k, dot=bool(dtau))
        else:
            _, _, p, q, _, real = _leibniz_terms(max_j, max_k)
            z_red, _, n_z = zip(*(lattice_reduce(w, tau) for w in distinct.tolist()))
            h_red, _, n_h = zip(*(lattice_reduce(h, tau) for h in hbars.tolist()))
            re, im = _inner_tables(np.array(h_red), np.array(z_red), which, ctx, max_j, max_k)
            moved = [i for i, (n, d) in enumerate(zip(n_h, which.tolist())) if n or n_z[d]]
            if moved:
                at = [(hbars[i].item(), n_h[i], which[i]) for i in moved]
                envelope = np.array([cmath.exp(-_TWO_PI_I * (n_z[d] * h + n * z_red[d])) for h, n, d in at])
                weights = np.array([_shift_weights(n_z[d], n, max_j, max_k) for _, n, d in at])
                cells = (re[moved][:, p * (max_k + 1) + q], im[moved][:, p * (max_k + 1) + q])
                acc = _ordered_sum(_cmul(weights.real, weights.imag, *cells), real)
                re[moved], im[moved] = _cmul(envelope.real[:, None], envelope.imag[:, None], *acc)
    return _complex(re, im).reshape(len(hbars), max_j + 1, max_k + 1)
