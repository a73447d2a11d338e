"""Elliptic kernel tables at many points at once, in numpy.

elliptic_tables builds the phi_derivs or phi_tau_derivs tables of a list of
(parameter, argument) points; its one caller is rmatrix.channel_sums, which
imports this module on first use.  It sums the theta series of every distinct
argument together over the frequency axis, then runs the reciprocal
recursions (elliptic's own, on rows over points), the Leibniz cell sums
and the lattice multipliers over the point axis, in numpy's own complex
arithmetic.  Every sum runs in order
along its axis (cumsum, no pairwise or BLAS reduction) and every other
operation is elementwise, so a point's table is bit for bit the same
whatever else the list holds.  Its theta sums are bit for bit those of
elliptic.theta_stack; its tables agree with the scalar routes to rounding,
not bit for bit.  The truncation rule (pair_count), the lattice geometry
(lattice_reduce, lattice_distance), the pole check and the error messages
are elliptic's own: the batch runs them as array forms over the point axis,
bit for bit the scalar functions, records nothing on the context, and
re-raises a failing point by calling the scalar function at the first
failure in list order.
The scalar route, on plain Python numbers, is faster for one point.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod

import numpy as np

from .elliptic import (
    _HEADROOM,
    _K_MAX,
    _PI_I,
    _TWO_PI_I,
    EllipticContext,
    _envelope,
    _reach,
    _reciprocal_derivs,
    _reciprocal_dot,
    _require_regular,
    lattice_reduce,
    pair_count,
)

__all__ = ["elliptic_tables"]

_HEADROOM = np.array(_HEADROOM)  # elliptic's range table, indexed by pair counts


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, which): the first index of each distinct row of values by its bits (0.0 and -0.0
    stay apart), in order of first appearance, and each row's position among them."""
    values = np.ascontiguousarray(values)
    keys = values.view(np.dtype((np.void, values.itemsize * prod(values.shape[1:])))).reshape(-1)
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[which.reshape(-1)]


def _raise_first(failed: np.ndarray, scalar, values: np.ndarray, *args) -> None:
    """scalar(values[i], *args) at the first failed point i, if any: elliptic's own check, which
    raises there with elliptic's message."""
    if failed.any():
        i = int(np.argmax(failed))
        scalar(complex(values[i]), *args)


def _lattice_reduce(ws: np.ndarray, tau: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """elliptic.lattice_reduce at every point of ws, bit for bit: (reduced, m, n), m and n as floats."""
    with np.errstate(all="ignore"):
        y = ws.imag / tau.imag
        x = ws.real - y * tau.real
        # round() of a coordinate that is not finite raises
        _raise_first(~(np.isfinite(x) & np.isfinite(y)), lattice_reduce, ws, tau)
        # + 0.0: the integer round() gives has no negative zero
        m, n = np.rint(x) + 0.0, np.rint(y) + 0.0
        return ws - m - n * tau, m, n


def _pair_counts(ws: np.ndarray, tau: complex) -> np.ndarray:
    """elliptic.pair_count at every point of ws; the first point that fails raises its error."""
    t = tau.imag
    with np.errstate(all="ignore"):
        count = np.abs(ws.imag) / t + _reach(t)
        pairs = np.ceil(np.where(count <= _K_MAX, count, 1.0)).astype(int)
        peak = np.floor(-ws.imag / t) + 0.5
        failed = ~(count <= _K_MAX) | (-np.pi * (t * peak * peak + 2.0 * ws.imag * peak) > _HEADROOM[pairs])
    _raise_first(failed, pair_count, ws, tau)
    return pairs


def _lattice_distances(ws: np.ndarray, tau: complex) -> tuple[np.ndarray, np.ndarray]:
    """(distance, failed): elliptic.lattice_distance at every point of ws, bit for bit, each point
    scanning its own rows, and where the scalar function's round() would raise."""
    y, row = ws.imag, tau.imag
    with np.errstate(all="ignore"):
        n = np.rint(y / row) + 0.0
        d = ws - n * tau
        failed = ~np.isfinite(y / row) | ~np.isfinite(d.real)
        best = np.hypot(d.real - (np.rint(d.real) + 0.0), d.imag)
        for step in (1, -1):
            at = np.arange(len(ws))
            scan = n + step
            while len(at := at[np.abs(y[at] - scan[at] * row) < best[at]]):
                d = ws[at] - scan[at] * tau
                failed[at] |= ~np.isfinite(d.real)
                best[at] = np.fmin(best[at], np.hypot(d.real - (np.rint(d.real) + 0.0), d.imag))
                scan[at] += step
    return best, failed


def _require_regular_all(checks: np.ndarray, ctx: EllipticContext) -> None:
    """elliptic._require_regular at every point of checks, the triples (z, hbar, hbar+z) of each
    point in order, labelled so: the first that fails raises elliptic's error."""
    dist, failed = _lattice_distances(checks, ctx.tau)
    failed |= ~(dist >= ctx.pole_radius)
    if failed.any():
        stop = int(np.argmax(failed))
        _require_regular(complex(checks[stop]), ctx, ("z", "hbar", "hbar+z")[stop % 3])


def _powers(c: np.ndarray, top: int) -> np.ndarray:
    """[1, c, c^2, ..., c^top] along a new last axis, each power the one before times c,
    so a power does not depend on top."""
    out = [np.ones_like(c)]
    for _ in range(top):
        out.append(out[-1] * c)
    return np.stack(out, axis=-1)


@lru_cache(maxsize=8)
def _frequencies(top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frequencies +1/2, -1/2, +3/2, -3/2, ... of _K_MAX pairs, in theta_stack's order,
    their modulus factors pi i f^2 and their argument factors (2 pi i f)^d, d = 0..top."""
    f = np.repeat(np.arange(_K_MAX) + 0.5, 2) * np.tile([1.0, -1.0], _K_MAX)
    return f, _PI_I * f * f, _powers(_TWO_PI_I * f + 0j, top)


def _theta_sums(ws: np.ndarray, pairs: np.ndarray, tau: complex, top: int, dot: bool) -> list[np.ndarray]:
    """theta_stack up to order top at every point of ws, each over its own number of pairs,
    and with dot also the stacks of the modulus derivative: shape (len(ws), top + 1) each."""
    f, modulus, powers = _frequencies(top)
    width = 2 * int(pairs.max())
    f, modulus, powers = f[:width], modulus[:width], powers[:width]
    base = np.exp(_PI_I * (tau * f * f + (2.0 * (ws + 0.5))[:, None] * f))
    # cumulative sums in frequency order, read at each point's own last term
    last = (np.arange(len(ws)), 2 * pairs - 1)
    out = [np.cumsum(base[:, :, None] * powers, axis=1)[last]]
    if dot:
        out.append(np.cumsum((base * modulus)[:, :, None] * powers, axis=1)[last])
    return out


@lru_cache(maxsize=32)
def _cells(max_j: int, max_k: int) -> tuple:
    """The Leibniz terms of every cell of a (max_j + 1, max_k + 1) table.

    Cells run in row-major order; cell (j, k) sums over p <= j (outer) and
    q <= k (inner), padded at the end to (max_j + 1)(max_k + 1) slots with
    p = q = 0.  Returns integer arrays j, k, p, q and the float coefficient
    comb(j, p) comb(k, q), each of shape (cells, slots), and the index of
    each cell's last real slot.
    """
    cells = [(j, k) for j in range(max_j + 1) for k in range(max_k + 1)]
    terms = [[(j, k, p, q) for p in range(j + 1) for q in range(k + 1)] for j, k in cells]
    padded = [t + [(j, k, 0, 0)] * (len(cells) - len(t)) for t, (j, k) in zip(terms, cells)]
    j, k, p, q = np.moveaxis(np.array(padded), -1, 0)
    coeff = np.array([[comb(a, c) * comb(b, d) for a, b, c, d in row] for row in padded], dtype=float)
    return j, k, p, q, coeff, np.array([len(t) - 1 for t in terms])


def _cell_sums(terms: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Each cell's terms, shape (points, cells, slots), summed in slot order up to its last real one."""
    return np.cumsum(terms, axis=2)[:, np.arange(len(last)), last]


def _multiplied(tables: np.ndarray, hs, ws, z_red, n_z, n_h, max_j: int, max_k: int):
    """phi_derivs' lattice multipliers restored on the flattened tables of the points (hs, ws), z_red
    the reduced ws (see phi_derivs).

    The envelopes are exponentiated point by point in order, by elliptic's
    _envelope, so one beyond the floating-point range raises its OverflowError.
    """
    at = np.flatnonzero((n_z != 0) | (n_h != 0))
    if not len(at):
        return tables
    envelope = np.array([_envelope(*point) for point in zip(*(x[at].tolist() for x in (hs, ws, z_red, n_z, n_h)))])
    j, k, p, q, coeff, last = _cells(max_j, max_k)
    c_z, c_h = _powers(-_TWO_PI_I * n_z[at], max_j), _powers(-_TWO_PI_I * n_h[at], max_k)
    terms = coeff * c_z[:, j - p] * c_h[:, k - q] * tables[at][:, p * (max_k + 1) + q]
    out = tables.copy()
    out[at] = envelope[:, None] * _cell_sums(terms, last)
    return out


def elliptic_tables(hbars, z, ctx: EllipticContext, max_j: int, max_k: int, dtau: int) -> np.ndarray:
    """The elliptic kernel_derivs tables at every parameter in hbars, with one z or one z per parameter.

    Returns shape (len(hbars), max_j + 1, max_k + 1): phi_derivs (dtau = 0,
    reduced) or phi_tau_derivs (dtau = 1, unreduced) at each point, to rounding.
    Each distinct point is tabulated once and each distinct theta argument
    summed once.  The error contract is elliptic's single-point one (see
    elliptic.kernel_derivs) over the whole list: first pair_count decides
    the series errors of every point's theta arguments, z, hbar and hbar+z,
    point after point; then the poles of z, hbar and hbar+z are checked
    point after point; only then is anything summed.  So a list with a
    series error anywhere raises that error even if an earlier point sits
    on a pole.  Reduction, pair counts and pole checks run as array forms
    over the list (_lattice_reduce, _pair_counts, _lattice_distances), and
    the first point that fails raises through the scalar function, with its
    message; nothing is recorded on ctx.  Last, the lattice multipliers of
    reduced points are exponentiated point by point, and one beyond the
    floating-point range raises OverflowError.
    """
    hbars = np.array(hbars, dtype=np.complex128).reshape(-1)
    zs = np.broadcast_to(np.array(z, dtype=np.complex128), hbars.shape)
    shape = (len(hbars), max_j + 1, max_k + 1)
    if not len(hbars):
        return np.zeros(shape, dtype=np.complex128)
    tau = ctx.tau
    first, which = _distinct(np.stack([hbars, zs], axis=1))
    hs, ws = hbars[first], zs[first]
    reduced = not dtau
    if reduced:
        z_red, _, n_z = _lattice_reduce(ws, tau)
        h_red, _, n_h = _lattice_reduce(hs, tau)
        args = np.stack([z_red, h_red, h_red + z_red], axis=1)
    else:
        args = np.stack([ws, hs, hs + ws], axis=1)
    # theta arguments point by point, then the origin, whose stack normalises the kernel
    args = np.append(args.reshape(-1), 0j)
    arg_first, arg_which = _distinct(args)
    pairs = _pair_counts(args[arg_first], tau)
    _require_regular_all(np.stack([ws, hs, hs + ws], axis=1).reshape(-1), ctx)

    j, k, p, q, coeff, last = _cells(max_j, max_k)
    with np.errstate(all="ignore"):
        stacks = [s[arg_which] for s in _theta_sums(args[arg_first], pairs, tau, max(max_j + max_k, 1), bool(dtau))]
        # per point the stacks of z, hbar and hbar+z, then the origin's
        s_z, s_h, s_a = (stacks[0][i:-1:3] for i in range(3))
        # the order recursions of the scalar route, on columns of points
        r_h, r_z = _reciprocal_derivs(s_h[:, : max_j + 1].T), _reciprocal_derivs(s_z[:, : max_k + 1].T)
        a, u, v = s_a[:, p + q], np.array(r_h).T[:, j - p], np.array(r_z).T[:, k - q]
        inner = _cell_sums(coeff * a * u * v, last)
        prime0 = stacks[0][-1, 1]
        if dtau:
            d_z, d_h, d_a = (stacks[1][i:-1:3] for i in range(3))
            u_dot = np.array(_reciprocal_dot(d_h[:, : max_j + 1].T, r_h)).T[:, j - p]
            v_dot = np.array(_reciprocal_dot(d_z[:, : max_k + 1].T, r_z)).T[:, k - q]
            dots = _cell_sums(coeff * (d_a[:, p + q] * u * v + a * u_dot * v + a * u * v_dot), last)
            tables = stacks[1][-1, 1] * inner + prime0 * dots
        else:
            tables = prime0 * inner
    if reduced:
        tables = _multiplied(tables, hs, ws, z_red, n_z, n_h, max_j, max_k)
    return tables[which].reshape(shape)
