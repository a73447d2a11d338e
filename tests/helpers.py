"""Comparison helpers and reference routes shared by the test modules."""

import cmath
import functools
import math
from itertools import product

import numpy as np

from superkron import GrassmannElement, SuperMatrix, aybe_ops, channel_sums, cybe_ops, default_generators, phi_derivs


def isclose(a: GrassmannElement, b: GrassmannElement, tol: float = 1e-12) -> bool:
    """Every coefficient of a - b within tol times the larger magnitude, at least 1."""
    diff = a - b
    return diff.max_abs() <= tol * max(a.max_abs(), b.max_abs(), 1.0)


def kappa(alpha, beta, N: int) -> complex:
    """Cocycle of the projective basis product: T_alpha T_beta = kappa(alpha, beta, N) T_(alpha + beta)."""
    return cmath.exp(1j * math.pi * (beta[0] * alpha[1] - beta[1] * alpha[0]) / N)


# how far entries of one joint-shift orbit may differ, relative to the block's largest finite entry
ORBIT_TOL = 1e-12


@functools.cache
def _charge_pattern(n: int, d: int):
    """For each entry on the charge pattern, by explicit multi-indices: its full (row, column), and the stored
    (row, column) of its orbit's representative, the entry with every digit shifted by minus the first output."""

    def flat(digits):
        out = 0
        for x in digits:
            out = out * d + x
        return out

    rows, cols, rep_rows, rep_cols = [], [], [], []
    for outs in product(range(d), repeat=n):
        for ins in product(range(d), repeat=n - 1):
            ins += ((sum(outs) - sum(ins)) % d,)
            rows.append(flat(outs))
            cols.append(flat(ins))
            rep_rows.append(flat((x - outs[0]) % d for x in outs[1:]))
            rep_cols.append(flat((x - outs[0]) % d for x in ins[:-1]))
    return tuple(np.array(x) for x in (rows, cols, rep_rows, rep_cols))


def from_full(n_sites: int, site_dim: int, blocks: dict, sites=None) -> SuperMatrix:
    """A SuperMatrix from full (dim, dim) coefficient arrays by monomial mask, dim = site_dim**n_sites.

    Keeps each orbit's representative.  Raises ValueError if an array has
    the wrong shape, an entry off the charge pattern is nonzero, or an
    entry differs from its representative by more than ORBIT_TOL of the
    array's largest finite entry (the rounding of np.kron products of
    HeisenbergBasis.t stays near 1e-14 up to N = 9) or is NaN where its
    representative is not.
    """
    m = SuperMatrix(n_sites, site_dim, sites=sites)
    dim = site_dim**n_sites
    rows, cols, rep_rows, rep_cols = _charge_pattern(n_sites, site_dim)
    # the representatives come first: every entry whose first output digit is 0
    reps = (dim // site_dim) ** 2
    for mask, arr in blocks.items():
        arr = np.asarray(arr, dtype=complex)
        if arr.shape != (dim, dim):
            raise ValueError(f"block shape {arr.shape} does not match dim {dim}")
        pattern = arr[rows, cols]
        if np.count_nonzero(pattern) != np.count_nonzero(arr):
            raise ValueError(f"block {mask} has nonzero entries off the Z_{site_dim} charge pattern")
        stored = np.empty((dim // site_dim,) * 2, dtype=complex)
        stored[rep_rows[:reps], rep_cols[:reps]] = pattern[:reps]
        # a NaN matches only a NaN representative, so none is dropped with its orbit
        bound = ORBIT_TOL * np.abs(pattern[np.isfinite(pattern)]).max(initial=0.0)
        if not np.isclose(pattern, stored[rep_rows, rep_cols], rtol=0.0, atol=bound, equal_nan=True).all():
            raise ValueError(f"block {mask} is not invariant under the joint cyclic shift of every site")
        m.blocks[mask] = stored
    return m


def dense(m: SuperMatrix, mask: int) -> np.ndarray:
    """The full (dim, dim) array of m's block at mask: each orbit's entries, on the charge pattern, equal to
    its stored representative, and zeros elsewhere."""
    rows, cols, rep_rows, rep_cols = _charge_pattern(m.n_sites, m.site_dim)
    dim = m.site_dim**m.n_sites
    full = np.zeros((dim, dim), dtype=complex)
    full[rows, cols] = m.blocks[mask][rep_rows, rep_cols]
    return full


def entry(m: SuperMatrix, i: int, j: int) -> GrassmannElement:
    """Entry (i, j) of m by full indices, read from the dense blocks: zero off the charge pattern."""
    return GrassmannElement({mask: dense(m, mask)[i, j] for mask in m.blocks})


def dense_matmul(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    """Reference product of placed matrices: tensordot contraction of the full blocks.

    Block tensors carry output legs, then input legs, in factor order; the
    left factor's input leg at a shared site meets the right factor's output
    leg there.  Block products accumulate in GeneratorSet.products order,
    the first one scaled by its sign and the others added or subtracted in
    place, and the sums are stored through from_full.
    """
    sa, sb = a.sites, b.sites
    na, nb = len(sa), len(sb)
    union = tuple(sorted(set(sa) | set(sb)))
    shared = [u for u in sa if u in sb]
    axes = ([na + sa.index(u) for u in shared], [sb.index(u) for u in shared])
    legs = (
        [("out", u) for u in sa] + [("in", u) for u in sa if u not in shared]
        + [("out", u) for u in sb if u not in shared] + [("in", u) for u in sb]
    )
    order = [legs.index((io, u)) for io in ("out", "in") for u in union]
    d = a.site_dim
    dim = d ** len(union)
    full: dict[int, np.ndarray] = {}
    left = {mask: dense(a, mask) for mask in a.blocks}
    right = {mask: dense(b, mask) for mask in b.blocks}
    for u, sign, x, y in default_generators().products(left, right):
        t = np.tensordot(x.reshape((d,) * 2 * na), y.reshape((d,) * 2 * nb), axes).transpose(order)
        if u in full:
            acc = full[u].reshape(t.shape)
            (np.add if sign > 0 else np.subtract)(acc, t, out=acc)
        else:
            full[u] = np.multiply(sign, t, order="C").reshape(dim, dim)
    return from_full(len(union), d, full, sites=union)


def phi(hbar: complex, z: complex, ctx, j: int = 0, k: int = 0, reduce: bool = True) -> complex:
    """Cell [j, k] of the elliptic kernel's derivative table."""
    return complex(phi_derivs(hbar, z, ctx, j, k, reduce=reduce)[j, k])


def aybe_factors(hbars, mus, points, basis, ctx, odd=False):
    """The six factors aybe_residual takes, built in one channel_sums pass."""
    return channel_sums(aybe_ops(hbars, mus, points, basis, odd), "ω", basis, ctx)


def cybe_factors(points, basis, ctx, odd=False):
    """The three classical operators cybe_residual takes, built in one channel_sums pass."""
    return channel_sums(cybe_ops(points, basis, odd), "ω", basis, ctx)
