"""Finite Heisenberg matrix basis, lattice operators, and Yang-Baxter residuals.

The clock/shift pair generates a projective basis of N x N matrices whose
multiplication cocycle balances three-term products.  Pairing basis matrices
with exponentially dressed kernel channels gives the quantum operator family
and its classical limit; the odd extension replaces each channel coefficient
by a Grassmann-valued function.  This module builds those operators as
matrices with Grassmann entries and exposes residual checkers for the two
quadratic (associative) and two classical bracket identities.

Index pairs use raw integer arithmetic.  The basis matrices are not periodic
under index shifts by N (they pick up a sign), and the cocycle balance holds
as written only for unreduced sums and differences; reduction is applied
explicitly when enumerating channels.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .elliptic import EllipticContext, kernel_derivs, phi_derivs
from .grassmann import default_generators
from .superfunc import (SuperFunction, SuperPoint, _dressing, _memo_key, _odd_element, _remember, super_phi, three_term,
                        three_term_specs)

__all__ = [
    "MultiIndex",
    "kappa",
    "HeisenbergBasis",
    "channel_shift",
    "basis_phi",
    "super_basis_phi",
    "SuperMatrix",
    "build_R",
    "build_r_classical",
    "channel_sums",
    "embed",
    "commutator",
    "anticommutator",
    "aybe_ops",
    "aybe_residual",
    "cybe_ops",
    "cybe_residual",
    "BASIS_FORMS",
]

_TWO_PI_I = 2j * math.pi

BASIS_FORMS = ("shift", "mu-shift", "basis", "heat")


class MultiIndex(NamedTuple):
    """Integer index pair with raw (unreduced) arithmetic."""

    a1: int
    a2: int

    def __add__(self, other):
        return MultiIndex(self.a1 + other[0], self.a2 + other[1])

    def __sub__(self, other):
        return MultiIndex(self.a1 - other[0], self.a2 - other[1])

    def __neg__(self):
        return MultiIndex(-self.a1, -self.a2)

    def is_zero(self) -> bool:
        return self.a1 == 0 and self.a2 == 0


def kappa(alpha, beta, N: int) -> complex:
    """Cocycle of the projective basis product."""
    return cmath.exp(1j * math.pi * (beta[0] * alpha[1] - beta[1] * alpha[0]) / N)


class HeisenbergBasis:
    """Clock and shift matrices of size N with the derived projective basis.

    Clock phases are 1-based: entry (k, k) carries exp(2 pi i (k+1)/N), so
    for N = 2 the clock is diag(-1, 1).  The shift matrix has ones where the
    column index is the row index plus one, cyclically.
    """

    def __init__(self, N: int) -> None:
        if not isinstance(N, int) or N < 1:
            raise ValueError("N must be a positive integer")
        self.N = N

    def q_power(self, a1: int) -> np.ndarray:
        N = self.N
        phases = np.exp(2j * np.pi * a1 * (np.arange(N) + 1) / N)
        return np.diag(phases)

    def lam_power(self, a2: int) -> np.ndarray:
        N = self.N
        out = np.zeros((N, N), dtype=complex)
        for k in range(N):
            out[k, (k + a2) % N] = 1.0
        return out

    def t(self, alpha) -> np.ndarray:
        a1, a2 = int(alpha[0]), int(alpha[1])
        phase = cmath.exp(1j * math.pi * a1 * a2 / self.N)
        return phase * (self.q_power(a1) @ self.lam_power(a2))

    @functools.cached_property
    def _gather(self) -> tuple[np.ndarray, np.ndarray]:
        """(a2, gather): gather[a1, r, c] is the stored entry (r, c) of T_a (x) T_-a for the only
        a2 whose entry there is nonzero, a2[r, c] = c - (first output index of r) mod N."""
        N = self.N
        a2 = (np.arange(N)[None, :] - np.arange(N * N)[:, None] // N) % N
        # conserve the charge by construction: gathered without the check
        pairs = [[_stored(np.kron(self.t((a1, b)), self.t((-a1, -b))), 2, N) for b in range(N)] for a1 in range(N)]
        gather = np.take_along_axis(np.array(pairs), a2[None, None], 1)[:, 0]
        a2.flags.writeable = gather.flags.writeable = False
        return a2, gather

    def channel_blocks(self, coeffs: np.ndarray) -> np.ndarray:
        """Stored entries of sum over a of coeffs[m, a1, a2] T_a (x) T_-a, shape (monomials, N**2, N),
        summed over a1 in order as adding channel by channel sums them (other channels add zeros)."""
        a2, gather = self._gather
        return np.ascontiguousarray(np.add.accumulate(coeffs[:, :, a2] * gather, axis=1)[:, -1])

    def canonical_indices(self) -> list[MultiIndex]:
        return [MultiIndex(a1, a2) for a1, a2 in product(range(self.N), repeat=2)]

    def nonzero_indices(self) -> list[MultiIndex]:
        return [a for a in self.canonical_indices() if not a.is_zero()]


def channel_shift(alpha, N: int, tau: complex) -> complex:
    """Lattice offset attached to one index channel: (a1 + a2 tau)/N."""
    return (alpha[0] + alpha[1] * tau) / N


def _channel_hbar(alpha, hbar: complex, N: int, tau: complex) -> complex:
    """Kernel parameter of one channel: hbar plus the channel's lattice offset."""
    return complex(hbar) + channel_shift(alpha, N, tau)


def basis_phi(alpha, hbar: complex, z: complex, ctx: EllipticContext, N: int) -> complex:
    """The dressed channel function exp(c z) kernel(h + shift, z), c = 2 pi i a2 / N."""
    return _dressing(_TWO_PI_I * alpha[1] / N, z) * phi_derivs(_channel_hbar(alpha, hbar, N, ctx.tau), z, ctx)[0, 0]


def super_basis_phi(
    alpha,
    hbar: complex,
    mu,
    p1: SuperPoint,
    p2: SuperPoint,
    omega,
    ctx: EllipticContext,
    N: int,
    form: str = "shift",
) -> SuperFunction:
    """Odd extension of one channel function, in any of four equal shapes.

    "shift": dressed plain function times (1 + c zeta1 zeta2), the nilpotent
    expansion of shifting the even argument by zeta1 zeta2.  "mu-shift":
    dressed function with the odd parameter displaced by c omega.  "basis":
    the five-term template on the dressed channel function, whose parameter
    moves with the modulus at rate a2 / N, so the third term takes the total
    modulus derivative (super_phi with hbar_tau_rate = a2 / N; the other
    forms pass no rate).  "heat": same with the third term
    rewritten through the flow identity, the shape that survives
    degeneration.  c = 2 pi i a2 / N throughout.  The terms depend on the
    channel only through a2: a1 and hbar enter only as the kernel parameter.
    """
    if form not in BASIS_FORMS:
        raise ValueError(f"form must be one of {BASIS_FORMS}")
    c = _TWO_PI_I * alpha[1] / N
    if form == "mu-shift":
        mu_eff = _odd_element(omega, "omega") * c
        mu = mu_eff if mu is None else _odd_element(mu, "mu") + mu_eff
    f = super_phi(
        _channel_hbar(alpha, hbar, N, ctx.tau), mu, p1, p2, omega, ctx,
        exp_coeff=c, hbar_tau_rate=alpha[1] / N if form == "basis" else 0.0,
        tau_term="heat" if form == "heat" else "dtau",
    )
    if form != "shift" or c == 0:
        return f
    return f.lmul(default_generators().one() + (p1.resolve() * p2.resolve()) * c)


@functools.lru_cache(maxsize=16)
def _layout(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index plan of the stored layout of an n-site block (see SuperMatrix).

    Returns two read-only integer arrays of shape (d**n, d**(n-1)): the
    implied last input of every stored entry, and its flat position in the
    full (d**n, d**n) block.
    """

    def digit_sums(m):
        flat = np.arange(d**m)
        return sum(((flat // d**k) % d for k in range(m)), np.zeros_like(flat))

    dim = d**n
    last = (digit_sums(n)[:, None] - digit_sums(n - 1)[None, :]) % d
    full = np.arange(dim)[:, None] * dim + np.arange(dim // d)[None, :] * d + last
    last.flags.writeable = full.flags.writeable = False
    return last, full


def _stored(arr: np.ndarray, n: int, d: int) -> np.ndarray:
    """The entries of a full (d**n, d**n) block that the stored layout keeps."""
    return np.take(arr, _layout(n, d)[1])


@functools.lru_cache(maxsize=64)
def _product_plan(left_sites: tuple, right_sites: tuple, d: int):
    """Where each stored entry of a product of placed blocks reads its factors.

    Returns the sites of the product and two read-only integer arrays of
    shape (terms, d**n, d**(n-1)), n the number of sites: for every stored
    output entry, the flat positions of the left and right stored entries
    of each contraction term.  Charge conservation of the left factor fixes
    the sum of the middle indices at the shared sites, so factors sharing
    s sites have d**(s-1) terms, the last middle index implied by the
    others; factors sharing one site, as every Yang-Baxter product does,
    have one.  The right factor then conserves the charge too, so every
    position read is stored.  Factors that share no site raise ValueError.
    """
    shared = [u for u in left_sites if u in right_sites]
    if not shared:
        raise ValueError(f"placed factors at {left_sites} and {right_sites} share no site")
    union = tuple(sorted(set(left_sites) | set(right_sites)))
    n = len(union)
    rows = np.arange(d**n)[:, None]
    cols = np.arange(d ** (n - 1))[None, :]
    out = {u: (rows // d ** (n - 1 - k)) % d for k, u in enumerate(union)}
    ins = {u: (cols // d ** (n - 2 - k)) % d for k, u in enumerate(union[:-1])}
    ins[union[-1]] = _layout(n, d)[0]
    target = sum(out[u] for u in left_sites) - sum(ins[u] for u in left_sites if u not in shared)

    def position(outs, inputs):
        row = col = 0
        for x in outs:
            row = row * d + x
        for x in inputs[:-1]:
            col = col * d + x
        return np.broadcast_to(row * d ** (len(inputs) - 1) + col, (d**n, d ** (n - 1)))

    left, right = [], []
    for free in product(range(d), repeat=len(shared) - 1):
        mid = dict(zip(shared, free))
        mid[shared[-1]] = (target - sum(free)) % d
        left.append(position([out[u] for u in left_sites], [mid.get(u, ins[u]) for u in left_sites]))
        right.append(position([mid.get(u, out[u]) for u in right_sites], [ins[u] for u in right_sites]))
    left, right = np.array(left), np.array(right)
    left.flags.writeable = right.flags.writeable = False
    return union, left, right


class SuperMatrix:
    """Square matrix over the Grassmann algebra that conserves the Z_d charge.

    The matrix is an operator on a chain of sites, each of dimension d
    (site_dim): sites lists, in the order of its tensor factors, the
    1-based chain positions they occupy, by default (1, ..., n_sites).
    Its entries are indexed by output and input multi-indices in factor
    order.  Charge conservation means every entry whose output and input
    digit sums differ mod d is zero: the operator commutes with Q (x) ... (x) Q.
    The R-matrices do, being channel sums of T_a (x) T_-a, and so do their
    products and sums; only one entry in d can be nonzero.

    blocks maps a monomial bitmask of default_generators(), the one
    generator set of the algebra, to the coefficients of just those entries,
    a complex array of shape (d**n, d**(n-1)): rows are the output
    multi-index, columns the inputs of every factor but the last, both
    flattened in factor order, first factor most significant.  The last
    input is implied: i_last = (sum of outputs - sum of other inputs) mod d.
    The constructor and add_block take full (dim, dim) arrays, raise
    ValueError if an entry off the charge pattern is nonzero, and keep the
    rest.  Sums and max_abs work on the stored entries.

    The product multiplies basis monomials in the algebra, keeping the left
    factor's monomial on the left, and contracts the coefficient blocks over
    the sites the two factors share, which must be at least one; each acts
    as the identity on the other's remaining sites, and the result acts on
    the sorted union of both site sets.  Matrices have complex entries, so
    no extra grading sign arises.  placed() shares the blocks, like a numpy
    view, since the layout depends only on factor order; += / -= update a
    matrix's blocks in place, so they also change every matrix that shares
    them; + and - copy.
    """

    __slots__ = ("n_sites", "site_dim", "dim", "blocks", "sites")

    def __init__(self, n_sites: int, site_dim: int, blocks=None, sites=None) -> None:
        if n_sites < 1 or n_sites > 3:
            raise ValueError("n_sites must be 1, 2 or 3")
        sites = tuple(range(1, n_sites + 1)) if sites is None else tuple(int(s) for s in sites)
        if len(sites) != n_sites or len(set(sites)) != n_sites or min(sites) < 1:
            raise ValueError("sites must name one distinct positive position per factor")
        self.n_sites = n_sites
        self.site_dim = site_dim
        self.dim = site_dim**n_sites
        self.sites = sites
        self.blocks: dict[int, np.ndarray] = {}
        if blocks:
            for mask, arr in blocks.items():
                self.add_block(mask, arr)

    def add_block(self, mask: int, arr: np.ndarray) -> None:
        """Add a full (dim, dim) coefficient array at the monomial mask."""
        arr = np.asarray(arr, dtype=complex)
        if arr.shape != (self.dim, self.dim):
            raise ValueError(f"block shape {arr.shape} does not match dim {self.dim}")
        stored = _stored(arr, self.n_sites, self.site_dim)
        if np.count_nonzero(stored) != np.count_nonzero(arr):
            raise ValueError(f"block {mask} has nonzero entries off the Z_{self.site_dim} charge pattern")
        if mask in self.blocks:
            self.blocks[mask] = self.blocks[mask] + stored
        else:
            self.blocks[mask] = stored

    def max_abs(self) -> float:
        return float(np.max([np.abs(arr).max() for arr in self.blocks.values()], initial=0.0))

    def placed(self, sites: Sequence[int]) -> "SuperMatrix":
        """The same blocks as an operator on the given chain sites, in factor order."""
        out = SuperMatrix(self.n_sites, self.site_dim, sites=sites)
        out.blocks = dict(self.blocks)
        return out

    def _check_shape(self, other: "SuperMatrix", same_sites: bool = True) -> None:
        if self.site_dim != other.site_dim or (same_sites and self.sites != other.sites):
            raise ValueError("matrix site structures differ")

    def _accumulate(self, other: "SuperMatrix", sign: int) -> "SuperMatrix":
        """Add sign * other into this matrix's own blocks, in place."""
        self._check_shape(other)
        for mask, arr in other.blocks.items():
            acc = self.blocks.get(mask)
            if acc is None:
                self.blocks[mask] = arr.copy() if sign > 0 else -arr
            else:
                (np.add if sign > 0 else np.subtract)(acc, arr, out=acc)
        return self

    def _copy(self) -> "SuperMatrix":
        out = SuperMatrix(self.n_sites, self.site_dim, sites=self.sites)
        out.blocks = {mask: arr.copy() for mask, arr in self.blocks.items()}
        return out

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self._copy()._accumulate(other, 1)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self._copy()._accumulate(other, -1)

    def __iadd__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self._accumulate(other, 1)

    def __isub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self._accumulate(other, -1)

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        """Graded product over the stored entries, through a cached index plan.

        Each product of blocks gathers its factors' stored entries by the
        plan of the two site tuples (see _product_plan), multiplies them in
        numpy's complex arithmetic and sums the contraction terms.  Block
        products accumulate in place in the order and with the signs of
        GeneratorSet.products.
        """
        self._check_shape(other, same_sites=False)
        union, left, right = _product_plan(self.sites, other.sites, self.site_dim)
        out = SuperMatrix(len(union), self.site_dim, sites=union)
        pairs = default_generators().products({mask: arr.take(left) for mask, arr in self.blocks.items()},
                                              {mask: arr.take(right) for mask, arr in other.blocks.items()})
        for u, sign, a, b in pairs:
            block = a[0] * b[0]
            for x, y in zip(a[1:], b[1:]):
                block += x * y
            acc = out.blocks.get(u)
            if acc is None:
                out.blocks[u] = block if sign > 0 else -block
            else:
                (np.add if sign > 0 else np.subtract)(acc, block, out=acc)
        return out


def embed(m: SuperMatrix, sites: Sequence[int], n_total: int = 3) -> SuperMatrix:
    """A multi-site matrix placed at the named sites of an n_total-site chain.

    sites lists, in the matrix's own factor order, which chain positions
    (1..n_total) its tensor factors occupy.  The placed matrix is multiplied
    by the identity on all n_total sites, so omitted positions get
    identities and reversed pairs like (3, 1) become index permutations;
    the result acts on sites (1, ..., n_total) in the usual layout.
    Products of placed matrices need no embedding; embedded factors are the
    reference tests compare them against.
    """
    if any(int(s) < 1 or int(s) > n_total for s in sites):
        raise ValueError(f"sites must lie in 1..{n_total}")
    identity = SuperMatrix(n_total, m.site_dim, {0: np.eye(m.site_dim**n_total)})
    return m.placed(sites) @ identity


def commutator(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    out = a @ b
    out -= b @ a
    return out


def anticommutator(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    out = a @ b
    out += b @ a
    return out


# compiled odd channel functions by (form, a2, N, slots), cleared when it holds 1024 (superfunc._remember)
_TEMPLATES: dict = {}


class _Template:
    """A channel function compiled to a dense matrix: matrix[m, c] is what table cell c (modulus order
    dtau[c], flat position cell[c] in the table of size sizes[dtau]) contributes to monomial masks[m],
    masks ascending; the function is exp(exp_coeff z12) times matrix @ cells."""

    def __init__(self, rows, sizes: dict, exp_coeff: complex) -> None:
        self.sizes, self.exp_coeff = sizes, exp_coeff
        masks = sorted({r[0] for r in rows})
        cells = sorted({(d, j * (sizes[d][1] + 1) + k) for _, d, j, k, _ in rows})
        self.masks = np.array(masks, dtype=int)
        self.dtau, self.cell = np.array(cells, dtype=int).reshape(-1, 2).T
        self.matrix = np.zeros((len(masks), len(cells)), dtype=complex)
        for mask, d, j, k, scalar in rows:
            self.matrix[masks.index(mask), cells.index((d, j * (sizes[d][1] + 1) + k))] += scalar


def _template(alpha, hbar, mu, p1, p2, omega, ctx, N, form) -> _Template:
    """super_basis_phi compiled once per (form, a2, N, slots), its plan depending on neither a1, hbar nor ctx;
    a slot is keyed by superfunc._memo_key."""
    key = (form, alpha[1], N, *map(_memo_key, (p1.zeta, p2.zeta, omega, mu)))
    hit = _TEMPLATES.get(key)
    if hit is None:
        f = super_basis_phi(alpha, hbar, mu, p1, p2, omega, ctx, N, form)
        hit = _remember(_TEMPLATES, key, _Template(*f.plan(), f.exp_coeff))
    return hit


@functools.lru_cache(maxsize=64)
def _ordinary(a2: int, N: int) -> _Template:
    """The dressed kernel of an ordinary channel: cell (0, 0) into monomial 0, dressing c = 2 pi i a2 / N."""
    return _Template(((0, 0, 0, 0, 1.0),), {0: (0, 0)}, _TWO_PI_I * a2 / N)


def channel_sums(ops, omega, basis: HeisenbergBasis, ctx: EllipticContext) -> list[SuperMatrix]:
    """The channel sums of several operators in one pass, each bit for bit the sum built alone: each
    op (indices, hbar, mu, p1, p2, form, odd) sums T_a (x) T_-a times super_basis_phi (odd) or the
    dressed kernel over the distinct a in indices, 0 <= a1, a2 < N, at hbar + (a1 + a2 tau)/N and
    z12 = p1.z - p2.z.  Every channel function is a _Template: an odd one compiled once (_template), an
    ordinary one the one-cell _ordinary.  One kernel_derivs request per (modulus order, table size)
    serves all channels, order 0 first, else in the order the channels first need them; an ordinary
    channel at the bits of an odd one reads cell (0, 0) of that channel's order-0 table instead (no cell
    depends on the table size).  A pass raises the error of its first failing request, else of its
    first dressing.  The channels of one template contract its matrix with their table cells in one
    in-order sum over the cells, in numpy's complex arithmetic, so they agree with evaluate to rounding;
    an operator's blocks, in ascending monomial order, come from HeisenbergBasis.channel_blocks.
    """
    N = basis.N
    flat, hbars, z12s, templates, odds = [], [], [], [], []
    for indices, hbar, mu, p1, p2, form, odd in ops:
        built: dict[int, _Template] = {}
        for alpha in indices:
            flat.append(alpha[0] * N + alpha[1])
            hbars.append(_channel_hbar(alpha, hbar, N, ctx.tau))
            z12s.append(complex(p1.z) - complex(p2.z))
            if alpha[1] not in built:
                built[alpha[1]] = (_template(alpha, hbar, mu, p1, p2, omega, ctx, N, form) if odd
                                   else _ordinary(alpha[1], N))
            templates.append(built[alpha[1]])
            odds.append(odd)
    # an ordinary channel reads the order-0 table of an odd channel at its (hbar, z12) bits, else its own
    bits = list(map(tuple, np.array([hbars, z12s], dtype=complex).T.copy().view(np.int64).tolist()))
    odd_at = {b: i for i, b in enumerate(bits) if odds[i]}
    reads = [i if odds[i] else odd_at.get(b, i) for i, b in enumerate(bits)]
    requests: dict[tuple, list[int]] = {}
    for i, t in enumerate(templates):
        if reads[i] == i:
            for dtau, size in t.sizes.items():
                requests.setdefault((dtau, size), []).append(i)
    requests = dict(sorted(requests.items(), key=lambda r: r[0][0]))
    tables = [kernel_derivs("elliptic", [hbars[i] for i in m], [z12s[i] for i in m], ctx, *size, dtau)
              for (dtau, size), m in requests.items()]
    envelope = np.array([_dressing(t.exp_coeff, z) if t.exp_coeff != 0 else 1.0 for t, z in zip(templates, z12s)],
                        dtype=complex)
    # every table in one buffer; a channel's table of modulus order d starts at offset[channel, d]
    offset = np.zeros((len(hbars), 2), dtype=int)
    for start, t, ((dtau, _), m) in zip(np.cumsum([0] + [t.size for t in tables]), tables, requests.items()):
        offset[m, dtau] = start + np.arange(len(m)) * t[0].size
    offset = offset[reads]
    buf = np.concatenate([np.zeros(0, dtype=complex)] + [t.reshape(-1) for t in tables])
    members: dict[_Template, list[int]] = {}
    for i, t in enumerate(templates):
        members.setdefault(t, []).append(i)
    coeffs = np.zeros((len(hbars), 1 << default_generators().n_generators), dtype=complex)
    for t, at in members.items():
        at = np.array(at)
        terms = t.matrix * buf[offset[at[:, None], t.dtau] + t.cell][:, None]
        # summed in cell order, no BLAS: a channel's bits do not depend on the rest of the pass
        coeffs[at[:, None], t.masks] = np.add.accumulate(terms, axis=2)[..., -1] * envelope[at, None]
    out = [SuperMatrix(2, N) for _ in ops]
    bounds = np.cumsum([0] + [len(op[0]) for op in ops])
    for m, lo, hi in zip(out, bounds[:-1], bounds[1:]):
        masks = np.flatnonzero(coeffs[lo:hi].any(axis=0))
        grid = np.zeros((len(masks), N * N), dtype=complex)
        grid[:, flat[lo:hi]] = coeffs[lo:hi, masks].T
        m.blocks = dict(zip(masks.tolist(), basis.channel_blocks(grid.reshape(-1, N, N))))
    return out


def build_R(
    hbar: complex,
    mu,
    p1: SuperPoint,
    p2: SuperPoint,
    omega,
    basis: HeisenbergBasis,
    ctx: EllipticContext,
    super: bool = False,
    form: str = "shift",
) -> SuperMatrix:
    """Quantum operator: channel sum over all N^2 index pairs.

    Each channel contributes the matrix-basis tensor square times the
    dressed channel coefficient; the odd version evaluates the channel's
    Grassmann extension in the chosen form, the ordinary one the scalar
    channel function.  mu = None with super gives the truncated odd family.
    """
    return channel_sums([(basis.canonical_indices(), hbar, mu, p1, p2, form, super)], omega, basis, ctx)[0]


def build_r_classical(
    p1: SuperPoint,
    p2: SuperPoint,
    omega,
    basis: HeisenbergBasis,
    ctx: EllipticContext,
    super: bool = False,
) -> SuperMatrix:
    """Classical operator: zero-parameter channel sum without the unit channel.

    The odd version uses the truncated channel extensions (odd parameter
    absent), matching the classical bracket identity it satisfies.
    """
    return channel_sums([(basis.nonzero_indices(), 0.0, None, p1, p2, "shift", super)], omega, basis, ctx)[0]


def aybe_ops(hbars, mus, points: Sequence[SuperPoint], basis: HeisenbergBasis, super: bool = False) -> list:
    """The channel_sums ops of aybe_residual's six factors, in three_term_specs order."""
    x1, x2 = ((complex(h), _odd_element(mus[i], f"mu{i + 1}") if super else None) for i, h in enumerate(hbars))
    return [(basis.canonical_indices(), x[0], x[1], points[a], points[b], "shift", super)
            for x, a, b in three_term_specs(x1, x2)]


def aybe_residual(
    hbars: Sequence[complex],
    mus,
    points: Sequence[SuperPoint],
    omega,
    basis: HeisenbergBasis,
    ctx: EllipticContext,
    super: bool = False,
    factors: Sequence[SuperMatrix] | None = None,
):
    """(residual, scale) of the associative identity on 3 sites, see three_term.

    Factors are operators placed at sites (1,2), (2,3) and (3,1); the odd
    version carries the odd parameters, and an exact solution makes the
    block sum vanish.  factors: the channel sums of aybe_ops of these arguments, if built already.
    """
    ops = aybe_ops(hbars, mus, points, basis, super)
    built = iter(channel_sums(ops, omega, basis, ctx) if factors is None else factors)
    # the first two factors are f(x1)_12 and f(x2)_23
    return three_term(lambda x, a, b: next(built).placed((a + 1, b + 1)), ops[0][1:3], ops[1][1:3],
                      mul=operator.matmul, size=SuperMatrix.max_abs)


_CYBE_SITES = ((1, 2), (1, 3), (2, 3))


def cybe_ops(points: Sequence[SuperPoint], basis: HeisenbergBasis, super: bool = False) -> list:
    """The channel_sums ops of cybe_residual's three classical operators, at sites (1,2), (1,3), (2,3)."""
    return [(basis.nonzero_indices(), 0.0, None, points[a - 1], points[b - 1], "shift", super) for a, b in _CYBE_SITES]


def cybe_residual(
    points: Sequence[SuperPoint],
    omega,
    basis: HeisenbergBasis,
    ctx: EllipticContext,
    super: bool = False,
    factors: Sequence[SuperMatrix] | None = None,
):
    """(residual, scale) of the classical bracket identity on 3 sites.

    Ordinary: commutators of the scalar-channel classical operators over the
    pairs (12,13), (12,23), (13,23).  Odd: the same sum with anticommutators,
    since the odd classical operators have parity-odd entries.  The scale is
    the largest bracket.  factors: the channel sums of cybe_ops of these arguments, if built already.
    """
    built = channel_sums(cybe_ops(points, basis, super), omega, basis, ctx) if factors is None else factors
    r12, r13, r23 = (r.placed(s) for r, s in zip(built, _CYBE_SITES))
    bracket = anticommutator if super else commutator
    b1 = bracket(r12, r13)
    b2 = bracket(r12, r23)
    b3 = bracket(r13, r23)
    scale = max(b1.max_abs(), b2.max_abs(), b3.max_abs())
    b1 += b2
    b1 += b3
    return b1, scale
