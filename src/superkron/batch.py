"""Elliptic kernel tables at many points at once, in numpy.

elliptic_tables builds reduced phi_derivs and phi_tau_derivs tables over one
list of (parameter, argument) points, one request per modulus order; its one
caller is rmatrix.channel_sums, which imports this module on first use and
sends one call per channel-sum pass.  A call sums the theta series of its
distinct arguments together over the frequency axis, both modulus orders
from one set of exponentials, then runs the scalar route's own table
arithmetic on rows over points: elliptic's reciprocal recursions, Leibniz
cells (_leibniz) and lattice multipliers with their modulus chain term
(_restored), with theta'(0) from elliptic._origin_data.  Every sum runs in
order, the theta sums by cumsum along the frequency axis and the table
cells term by term, with no pairwise or BLAS reduction, and every other
operation is elementwise; numpy's complex products round the same at
every array length, so a point's table is bit for bit the same whatever
else the list holds, and a point that repeats gets the same bits each
time.  Its theta sums are bit for bit those of elliptic.theta_stack; its
tables agree with the scalar routes to rounding, not bit for bit, because
numpy's complex products over arrays round differently from Python's.
The truncation rule (pair_count), the lattice geometry (lattice_reduce,
lattice_distance), the pole check and the error messages are elliptic's
own: the batch runs them as array forms over the point axis, bit for bit
the scalar functions, and re-raises a failing point by calling the scalar
function at the first failure in list order.
The scalar route, on plain Python numbers, is faster for one point.
"""

from __future__ import annotations

import numpy as np

from .elliptic import (
    _FREQS,
    _HEADROOM,
    _K_MAX,
    _LOG_MIN,
    _MODULUS,
    _PI_I,
    EllipticContext,
    _check_orders,
    _columns,
    _envelope,
    _leibniz,
    _origin_data,
    _reach,
    _reciprocal_derivs,
    _reciprocal_dot,
    _require_regular,
    _restored,
    lattice_reduce,
    pair_count,
)

__all__ = ["elliptic_tables"]

_HEADROOM = np.array(_HEADROOM)  # elliptic's range table, indexed by pair counts


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, which): the first index of each distinct value of values by its bits (0.0 and -0.0
    stay apart), in order of first appearance, and each value's position among them."""
    keys = np.ascontiguousarray(values).view(np.dtype((np.void, values.itemsize)))
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[which]


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
        exponent = -np.pi * (t * peak * peak + 2.0 * ws.imag * peak)
        failed = ~(count <= _K_MAX) | (exponent > _HEADROOM[pairs]) | (exponent < _LOG_MIN)
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


def _require_regular_all(zs: np.ndarray, hbars: np.ndarray, ctx: EllipticContext) -> None:
    """elliptic._require_regular at z, hbar and hbar+z of every point in order, labelled so: the first
    that fails raises elliptic's error."""
    if not len(zs):
        return
    checks = np.stack([zs, hbars, hbars + zs], axis=1).reshape(-1)
    dist, failed = _lattice_distances(checks, ctx.tau)
    failed |= ~(dist >= ctx.pole_radius)
    if failed.any():
        stop = int(np.argmax(failed))
        _require_regular(complex(checks[stop]), ctx, ("z", "hbar", "hbar+z")[stop % 3])


def _theta_sums(ws: np.ndarray, pairs: np.ndarray, tau: complex, top: int, dot_top=None) -> list[np.ndarray]:
    """theta_stack up to order top at every point of ws, each over its own number of pairs, and with
    dot_top also the stacks of the modulus derivative up to order dot_top, from the same exponentials:
    shape (len(ws), order + 1) each.  The frequencies and their factors are theta_stack's own (_FREQS,
    _MODULUS, _columns); each order is its own cumulative sum, whatever the top order."""
    width = 2 * int(pairs.max())
    f, modulus = np.array(_FREQS[:width]), np.array(_MODULUS[:width])
    powers = np.array([column[:width] for column in _columns(max(top, dot_top or 0))]).T
    base = np.exp(_PI_I * (tau * f * f + (2.0 * (ws + 0.5))[:, None] * f))
    # cumulative sums in frequency order, read at each point's own last term
    last = (np.arange(len(ws)), 2 * pairs - 1)
    out = [np.cumsum(base[:, :, None] * powers[:, : top + 1], axis=1)[last]]
    if dot_top is not None:
        out.append(np.cumsum((base * modulus)[:, :, None] * powers[:, : dot_top + 1], axis=1)[last])
    return out


def elliptic_tables(hbars, z, ctx: EllipticContext, requests) -> list[np.ndarray]:
    """The elliptic kernel_derivs tables of several requests over one list of points, one array per request.

    The points are the parameters in hbars, with one z for all or one each.
    A request (max_j, max_k, dtau, at) gets phi_derivs (dtau = 0) or
    phi_tau_derivs (dtau = 1), reduced, to rounding, at the points at (an
    index array, mask or slice of the list): shape (len(at), max_j + 1,
    max_k + 1).  Every point named is tabulated, a repeated one with the
    same bits, and each distinct reduced theta argument summed once, for
    both modulus orders.
    The orders of every request are checked first (_check_orders); then
    the requests raise what they raise when made one after another, each
    with elliptic's single-point contract (elliptic.kernel_derivs) over
    its points; no check depends on the modulus order, so each request
    checks the points no earlier request names: pair_count decides the
    series errors of every point's theta arguments z, hbar and hbar+z,
    point after point, then the poles of z, hbar and hbar+z are checked
    point after point, then the lattice multipliers of shifted points are
    exponentiated point by point, and the first beyond the floating-point
    range raises OverflowError; so a series error anywhere in a request
    comes before a pole at an earlier point.  These checks run as array
    forms over the points (_lattice_reduce, _pair_counts,
    _lattice_distances), and the first point that fails raises through the
    scalar function, with its message, recording nothing on ctx.  After the
    first pole check theta'(0) comes from elliptic._origin_data, which
    leaves the origin's stacks in ctx's theta memo; no other stack is
    recorded there.
    """
    for max_j, max_k, dtau, _ in requests:
        _check_orders(max_j, max_k, dtau)
    hbars = np.array(hbars, dtype=np.complex128).reshape(-1)
    zs = np.broadcast_to(np.array(z, dtype=np.complex128), hbars.shape)
    tau, named, ats, news = ctx.tau, np.zeros(len(hbars), dtype=bool), [], []
    for *_, at in requests:
        ats.append(at := np.arange(len(hbars))[at])
        news.append(at[~named[at]])
        named[at] = True
    # each point once, at its row: the points each request adds, request after request
    order, ends = np.concatenate([np.zeros(0, dtype=int), *news]), np.cumsum([len(new) for new in news if len(new)])
    if not len(order):
        return [np.zeros((0, max_j + 1, max_k + 1), dtype=np.complex128) for max_j, max_k, _, _ in requests]
    rows = np.zeros(len(hbars), dtype=int)
    rows[order] = np.arange(len(order))
    hs, ws = hbars[order], zs[order]
    z_red, _, n_z = _lattice_reduce(ws, tau)
    h_red, _, n_h = _lattice_reduce(hs, tau)
    # theta arguments point by point: z, hbar and hbar+z, each distinct one in order of first appearance
    args = np.stack([z_red, h_red, h_red + z_red], axis=1).reshape(-1)
    arg_first, arg_which = _distinct(args)
    shifted, pairs, envelope = np.flatnonzero((n_z != 0) | (n_h != 0)), [], []
    for lo, hi in zip(np.r_[0, ends[:-1]], ends):
        pairs.append(_pair_counts(args[arg_first[(3 * lo <= arg_first) & (arg_first < 3 * hi)]], tau))
        _require_regular_all(ws[lo:hi], hs[lo:hi], ctx)
        prime0, prime0_dot = _origin_data(ctx)
        # elliptic's _envelope point by point, in order: the first beyond the range raises
        at = shifted[(lo <= shifted) & (shifted < hi)]
        envelope += [_envelope(*point) for point in zip(*(x[at].tolist() for x in (hs, ws, z_red, n_z, n_h)))]
    # the order-0 cells every request reads, for an order-1 request one order further in each variable
    top_j, top_k = np.max([(max_j + dtau, max_k + dtau) for max_j, max_k, dtau, _ in requests], axis=0)
    dot_j, dot_k = np.max([(-1, -1)] + [r[:2] for r in requests if r[2]], axis=0)
    with np.errstate(all="ignore"):
        # (order, argument) arrays, then the (order, point) rows of z, hbar and hbar+z
        stacks = [s[arg_which].T for s in _theta_sums(args[arg_first], np.concatenate(pairs), tau, top_j + top_k,
                                                      dot_j + dot_k if dot_j >= 0 else None)]
        s_z, s_h, a = (stacks[0][:, i::3] for i in range(3))
        # the order recursions and Leibniz sums of the scalar route, on rows of points
        u, v = _reciprocal_derivs(s_h[: top_j + 1]), _reciprocal_derivs(s_z[: top_k + 1])
        cells = np.array(_leibniz(a, u, v, top_j, top_k))
        tables = [prime0 * cells]
        if dot_j >= 0:
            d_z, d_h, a_dot = (stacks[1][:, i::3] for i in range(3))
            dots = (a_dot, _reciprocal_dot(d_h[: dot_j + 1], u), _reciprocal_dot(d_z[: dot_k + 1], v))
            tables.append(prime0_dot * cells[: dot_j + 1, : dot_k + 1]
                          + prime0 * np.array(_leibniz(a, u, v, dot_j, dot_k, dots)))
    if len(shifted):
        # the order-1 chain term reads the order-0 cells before their multipliers
        for table, plain in zip(tables, (None, tables[0][..., shifted])):
            table[..., shifted] = _restored(table[..., shifted], n_z[shifted], n_h[shifted], np.array(envelope), plain)
    return [np.moveaxis(tables[dtau][: max_j + 1, : max_k + 1, rows[at]], -1, 0)
            for (max_j, max_k, dtau, _), at in zip(requests, ats)]
