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
import struct
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .elliptic import EllipticContext, _remember, kernel_derivs
from .grassmann import default_generators, parity
from .superfunc import (_MEMO_LIMIT, SuperFunction, SuperPoint, _dressing, _entry, _fresh, _memo_key, _odd_element,
                        super_phi, three_term, three_term_specs)

__all__ = [
    "MultiIndex",
    "HeisenbergBasis",
    "channel_shift",
    "basis_phi",
    "super_basis_phi",
    "SuperMatrix",
    "build_R",
    "build_r_classical",
    "channel_sums",
    "embed",
    "supercommutator",
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

    def channel_blocks(self, coeffs: np.ndarray) -> np.ndarray:
        """Stored entries of sum over a of coeffs[m, a1, a2] T_a (x) T_-a, shape (monomials, N, N),
        summed over a1 in order as adding channel by channel sums them (other channels add zeros)."""
        terms = coeffs[:, :, None, :] * _gather(self.N)
        out = terms[:, 0].copy()
        for a1 in range(1, self.N):
            out += terms[:, a1]
        return out

    def canonical_indices(self) -> tuple[MultiIndex, ...]:
        """Every channel (a1, a2), 0 <= a1, a2 < N, a1 major: one tuple per N, cached."""
        return _indices(self.N)[0]

    def nonzero_indices(self) -> tuple[MultiIndex, ...]:
        """canonical_indices without (0, 0)."""
        return _indices(self.N)[1]


@functools.lru_cache(maxsize=8)
def _indices(N: int) -> tuple[tuple[MultiIndex, ...], tuple[MultiIndex, ...]]:
    """(canonical, nonzero) channel tuples of HeisenbergBasis(N)."""
    canonical = tuple(MultiIndex(a1, a2) for a1, a2 in product(range(N), repeat=2))
    return canonical, tuple(a for a in canonical if not a.is_zero())


@functools.lru_cache(maxsize=8)
def _gather(N: int) -> np.ndarray:
    """The (N, N, N) gather of HeisenbergBasis(N).channel_blocks, read-only and cached per N: gather[a1, r, c]
    is the stored entry (r, c) of T_a (x) T_-a for the only a2 whose entry there is nonzero, a2 = c, the
    first input, since the first output is 0."""
    t = HeisenbergBasis(N).t
    reps = _layout(2, N)
    # T_a (x) T_-a conserves the charge and the shift, so its representatives hold all of it
    gather = np.array([[np.take(np.kron(t((a1, a2)), t((-a1, -a2))), reps[:, a2]) for a2 in range(N)]
                       for a1 in range(N)]).transpose(0, 2, 1).copy()
    gather.flags.writeable = False
    return gather


def channel_shift(alpha, N: int, tau: complex) -> complex:
    """Lattice offset attached to one index channel: (a1 + a2 tau)/N."""
    return (alpha[0] + alpha[1] * tau) / N


def _channel_hbar(alpha, hbar: complex, N: int, tau: complex) -> complex:
    """Kernel parameter of one channel: hbar plus the channel's lattice offset."""
    return complex(hbar) + channel_shift(alpha, N, tau)


def basis_phi(alpha, hbar: complex, z: complex, ctx: EllipticContext, N: int) -> complex:
    """The dressed channel function exp(c z) kernel(h + shift, z), c = 2 pi i a2 / N."""
    return (_dressing(_TWO_PI_I * alpha[1] / N, z)
            * kernel_derivs("elliptic", _channel_hbar(alpha, hbar, N, ctx.tau), z, ctx)[0, 0])


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
    They are memoized with their plans in _TEMPLATES by (form, raw a2, N,
    slots by superfunc._memo_key), checked on a miss only, like super_phi's.
    """
    c, hbar = _TWO_PI_I * alpha[1] / N, _channel_hbar(alpha, hbar, N, ctx.tau)
    key = (form, alpha[1], N, *map(_memo_key, (p1.zeta, p2.zeta, omega, mu)))
    if (entry := _TEMPLATES.get(key)) is None:
        if form not in BASIS_FORMS:
            raise ValueError(f"form must be one of {BASIS_FORMS}")
        if form == "mu-shift":
            mu_eff = _odd_element(omega, "omega") * c
            mu = mu_eff if mu is None else _odd_element(mu, "mu") + mu_eff
        f = super_phi(hbar, mu, p1, p2, omega, ctx, exp_coeff=c, hbar_tau_rate=alpha[1] / N if form == "basis" else 0.0,
                      tau_term="heat" if form == "heat" else "dtau")
        if form == "shift" and c != 0:
            f = f.lmul(default_generators().one() + (p1.resolve() * p2.resolve()) * c)
        entry = _remember(_TEMPLATES, key, [*_entry(f), None], _MEMO_LIMIT)
    return _fresh(entry, ctx, hbar, "elliptic", c)


def _digits(flat, m: int, d: int) -> list:
    """The m base-d digits of flat, most significant first."""
    return [(flat // d ** (m - 1 - k)) % d for k in range(m)]


def _flat(digits, d: int):
    """The flat base-d index of digits, most significant first; 0 for none."""
    out = 0
    for x in digits:
        out = out * d + x
    return out


def _representative(outs, ins, d: int):
    """Flat stored position of the representative of the entry with output digits outs and input digits ins,
    both in factor order and ins with its last, implied digit: every digit shifted by minus outs[0]."""
    return _flat([(x - outs[0]) % d for x in (*outs[1:], *ins[:-1])], d)


@functools.lru_cache(maxsize=16)
def _layout(n: int, d: int) -> np.ndarray:
    """Where the stored entries of an n-site block (see SuperMatrix) sit in the full (d**n, d**n) block.

    Returns a read-only integer array of shape (d**(n-1), d**(n-1)), one
    entry per representative (rows the outputs of every factor but the
    first, columns the inputs of every factor but the last, flattened in
    factor order, the first output digit 0): its flat position in the full
    block.
    """
    side = d ** (n - 1)
    outs = _digits(np.arange(side)[:, None], n, d)
    ins = _digits(np.arange(side)[None, :], n - 1, d)
    ins.append((sum(outs) - sum(ins)) % d)
    full = _flat(outs, d) * d**n + _flat(ins, d)
    full.flags.writeable = False
    return full


@functools.lru_cache(maxsize=64)
def _product_plan(left_sites: tuple, right_sites: tuple, d: int):
    """Where each stored entry of a product of placed blocks reads its factors.

    Returns the sites of the product and two read-only integer arrays of
    shape (terms, d**(n-1), d**(n-1)), n the number of sites: for every
    stored output entry, the flat positions of the left and right stored
    entries of each contraction term, each the representative of the factor
    entry the term reads.  Charge conservation of the left factor fixes
    the sum of the middle indices at the shared sites, so factors sharing
    s sites have d**(s-1) terms, the last middle index implied by the
    others; factors sharing one site, as every Yang-Baxter product does,
    have one.  The right factor then conserves the charge too, so every
    entry read has a representative.  Factors that share no site raise
    ValueError.
    """
    shared = [u for u in left_sites if u in right_sites]
    if not shared:
        raise ValueError(f"placed factors at {left_sites} and {right_sites} share no site")
    union = tuple(sorted(set(left_sites) | set(right_sites)))
    n = len(union)
    side = d ** (n - 1)
    out = dict(zip(union, [0, *_digits(np.arange(side)[:, None], n - 1, d)]))
    ins = dict(zip(union, _digits(np.arange(side)[None, :], n - 1, d)))
    ins[union[-1]] = (sum(out.values()) - sum(ins.values())) % d
    target = sum(out[u] for u in left_sites) - sum(ins[u] for u in left_sites if u not in shared)
    left, right = [], []
    for free in product(range(d), repeat=len(shared) - 1):
        mid = dict(zip(shared, free))
        mid[shared[-1]] = (target - sum(free)) % d
        left.append(np.broadcast_to(_representative([out[u] for u in left_sites],
                                                    [mid.get(u, ins[u]) for u in left_sites], d), (side, side)))
        right.append(np.broadcast_to(_representative([mid.get(u, out[u]) for u in right_sites],
                                                     [ins[u] for u in right_sites], d), (side, side)))
    left, right = np.array(left), np.array(right)
    left.flags.writeable = right.flags.writeable = False
    return union, left, right


class SuperMatrix:
    """Square matrix over the Grassmann algebra that commutes with Q and Lambda on every site at once.

    The matrix is an operator on a chain of sites, each of dimension d
    (site_dim): sites lists, in the order of its tensor factors, the
    1-based chain positions they occupy, by default (1, ..., n_sites).
    Its entries are indexed by output and input multi-indices in factor
    order.  Charge conservation means every entry whose output and input
    digit sums differ mod d is zero: the operator commutes with Q (x) ... (x) Q.
    Shift invariance means an entry equals the one whose digits, outputs
    and inputs alike, are all one higher mod d: the operator commutes with
    Lambda (x) ... (x) Lambda.  The R-matrices do both, being channel sums of
    T_a (x) T_-a, and so do their products and sums; so only one entry in d
    can be nonzero, and each orbit of the joint shift holds d equal entries.

    blocks maps a monomial bitmask of default_generators(), the one
    generator set of the algebra, to one coefficient per orbit, that of its
    representative, the entry whose first output digit, in factor order,
    is 0: a complex array of shape (d**(n-1), d**(n-1)) whose rows are the
    outputs of every factor but the first, columns the inputs of every
    factor but the last, both flattened in factor order, first factor most
    significant.  The last input is implied: i_last = (sum of outputs - sum
    of other inputs) mod d.  A 1-site block is one number, c times the
    identity.  No full array is built: builders assign the stored blocks to
    .blocks.  Sums work on the representatives, and max_abs is taken over
    them.

    The product multiplies basis monomials in the algebra, keeping the left
    factor's monomial on the left, and contracts the coefficient blocks over
    the sites the two factors share, which must be at least one; each acts
    as the identity on the other's remaining sites, and the result acts on
    the sorted union of both site sets.  Matrices have complex entries, so
    no extra grading sign arises.  placed() shares the blocks, like a numpy
    view, since the layout depends only on factor order; += updates a
    matrix's blocks in place, so it also changes every matrix that shares
    them; - and -= copy.  A product's blocks are new and its own.
    """

    __slots__ = ("n_sites", "site_dim", "blocks", "sites")

    def __init__(self, n_sites: int, site_dim: int, sites=None) -> None:
        if n_sites < 1 or n_sites > 3:
            raise ValueError("n_sites must be 1, 2 or 3")
        sites = tuple(range(1, n_sites + 1)) if sites is None else tuple(int(s) for s in sites)
        if len(sites) != n_sites or len(set(sites)) != n_sites or min(sites) < 1:
            raise ValueError("sites must name one distinct positive position per factor")
        self.n_sites = n_sites
        self.site_dim = site_dim
        self.sites = sites
        self.blocks: dict[int, np.ndarray] = {}

    def max_abs(self) -> float:
        return float(np.abs(np.array(list(self.blocks.values()))).max(initial=0.0))

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

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self._copy()._accumulate(other, -1)

    def __iadd__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self._accumulate(other, 1)

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        """Graded product over the representatives, through a cached index plan.

        Each factor block is gathered once, by the plan of the two site
        tuples (see _product_plan), into a fresh array, and each pair of
        blocks is multiplied with out= in numpy's complex arithmetic, summing
        the contraction terms.  The output blocks are the rows of one new
        stack, so they share no memory with the factors or another product.
        Block products accumulate in the order and with the signs of
        GeneratorSet.products: the first product of a monomial is written
        into its row and negated in place if its sign is -1; each later one
        is written into a scratch block and added or subtracted in place.
        """
        self._check_shape(other, same_sites=False)
        union, left, right = _product_plan(self.sites, other.sites, self.site_dim)
        block_shape = left.shape[1:]
        pairs = list(default_generators().products({mask: arr.take(left) for mask, arr in self.blocks.items()},
                                                   {mask: arr.take(right) for mask, arr in other.blocks.items()}))
        scratch = np.empty(block_shape, dtype=complex)
        masks = list(dict.fromkeys(u for u, _, _, _ in pairs))
        out = SuperMatrix(len(union), self.site_dim, sites=union)
        out.blocks = dict(zip(masks, np.empty((len(masks), *block_shape), dtype=complex)))
        written = set()
        for u, sign, a, b in pairs:
            acc = out.blocks[u]
            block = scratch if u in written else acc
            np.multiply(a[0], b[0], out=block)
            for x, y in zip(a[1:], b[1:]):
                block += x * y
            if block is acc:
                written.add(u)
                if sign < 0:
                    np.negative(acc, out=acc)
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
    d = m.site_dim
    identity = SuperMatrix(n_total, d)
    # the identity's representatives: 1 where the flat position r * dim + c in the full block has r = c, a
    # multiple of dim + 1
    identity.blocks = {0: (_layout(n_total, d) % (d**n_total + 1) == 0).astype(complex)}
    return m.placed(sites) @ identity


def supercommutator(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    """The graded bracket a b - (-1)^(|a| |b|) b a, |.| the parity of an operator's monomials (grassmann.parity,
    an empty operator even); an operator of mixed parity raises ValueError."""
    kinds = {parity(a.blocks), parity(b.blocks)}
    if "mixed" in kinds:
        raise ValueError("a supercommutator needs operators of one parity each")
    return (a @ b)._accumulate(b @ a, 1 if kinds == {"odd"} else -1)


# super_basis_phi's [terms, plans by soul, _Template or None] by (form, raw a2, N, slots), cleared at 1024 entries
_TEMPLATES: dict = {}


class _Template:
    """A channel function compiled to a dense matrix: matrix[m, c] is what table cell c, at modulus order
    dtau[c] and position (j[c], k[c]), contributes to monomial masks[m], masks and cells (dtau, j, k)
    ascending; the function at channel a is exp(c z12) times matrix @ cells, c = 2 pi i a2 / N.  sizes maps
    each modulus order it reads to the largest (j, k) read there; a cell is read from any table at least that
    large.  shape is (masks, cells): templates of one shape differ only in their matrices."""

    def __init__(self, rows, sizes: dict) -> None:
        self.sizes = sizes
        masks = sorted({r[0] for r in rows})
        cells = sorted({r[1:4] for r in rows})
        self.shape = (tuple(masks), tuple(cells))
        self.masks = np.array(masks, dtype=int)
        self.dtau, self.j, self.k = np.array(cells, dtype=int).reshape(-1, 3).T
        self.matrix = np.zeros((len(masks), len(cells)), dtype=complex)
        for mask, d, j, k, scalar in rows:
            self.matrix[masks.index(mask), cells.index((d, j, k))] += scalar


def _templates(a2s, hbar, mu, p1, p2, omega, ctx, N, form) -> list[_Template]:
    """super_basis_phi at each (0, a2), compiled once into its _TEMPLATES entry, its plan depending on neither
    a1, hbar nor ctx; the slots are keyed once per call, by superfunc._memo_key."""
    slots, out = tuple(map(_memo_key, (p1.zeta, p2.zeta, omega, mu))), []
    for a2 in a2s:
        if (entry := _TEMPLATES.get(key := (form, a2, N, *slots))) is None or entry[2] is None:
            f = super_basis_phi((0, a2), hbar, mu, p1, p2, omega, ctx, N, form)
            (entry := _TEMPLATES[key])[2] = _Template(*f.plan())
        out.append(entry[2])
    return out


# the dressed kernel of every ordinary channel: cell (0, 0) into monomial 0
_ORDINARY = _Template(((0, 0, 0, 0, 1.0),), {0: (0, 0)})


@functools.lru_cache(maxsize=64)
def _channels(indices: tuple, N: int, tau: complex) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(shifts, grid, a2s) of a channel list, read-only and cached per (indices, N, tau): each channel's
    channel_shift and its position a1 N + a2 in the N x N grid, and the distinct a2 mod N in the order the
    channels first need them."""
    shifts = np.array([channel_shift(alpha, N, tau) for alpha in indices], dtype=complex)
    grid = np.array([alpha[0] * N + alpha[1] for alpha in indices], dtype=int)
    shifts.flags.writeable = grid.flags.writeable = False
    return shifts, grid, tuple(dict.fromkeys((grid % N).tolist()))


def channel_sums(ops, omega, basis: HeisenbergBasis, ctx: EllipticContext) -> list[SuperMatrix]:
    """The channel sums of several operators in one pass, each bit for bit the sum built alone: each
    op (indices, hbar, mu, p1, p2, form, odd) sums T_a (x) T_-a times super_basis_phi (odd) or the
    dressed kernel over the distinct a in indices, 0 <= a1, a2 < N, at hbar + (a1 + a2 tau)/N and
    z12 = p1.z - p2.z, the parameters complex(hbar) plus the channel shifts (_channels, keyed by indices,
    a tuple of pairs as HeisenbergBasis gives).  Every channel function is a _Template, one per distinct
    a2 of an op, ascending: an odd one compiled by _templates at (0, a2), an ordinary one _ORDINARY.

    Ops of one geometry, the same indices and bits of complex(hbar) and z12, share every channel point:
    each geometry is tabulated once, in order of first appearance, and its ops read its rows.  One
    batch.elliptic_tables call makes one request per modulus order, order 0 first, over the geometries
    whose templates read it, in the order their ops first do, at the largest (max_j, max_k) read there;
    no cell depends on the table size.  Then each distinct nonzero dressing c z12, c = 2 pi i a2 / N, is
    exponentiated once, in the order the channels first need it.  So a pass raises what its order-0
    request raises when made alone, else what its order-1 request raises when made next, else the error
    of its first dressing.  The channels of the templates of one shape (masks and cells) contract their
    own template's matrix with their table cells in one in-order sum over the cells, in numpy's complex
    arithmetic, so they agree with evaluate to rounding; every op's blocks, in ascending monomial order,
    come from one HeisenbergBasis.channel_blocks call.
    """
    if not ops:
        return []
    N = basis.N
    # loaded on first use, so the scalar suites never load it; looked up at call time, so wrappers
    # installed on the module are seen
    from . import batch

    geometries: dict = {}
    points, reads = [], ({}, {})  # each geometry's (channels, hbar, z12); each modulus order's readers
    templates: dict[_Template, int] = {}
    op_geometry, op_templates = [], np.zeros((len(ops), N), dtype=int)
    for o, (indices, hbar, mu, p1, p2, form, odd) in enumerate(ops):
        h, z12 = complex(hbar), complex(p1.z) - complex(p2.z)
        g = geometries.setdefault((indices, struct.pack("4d", h.real, h.imag, z12.real, z12.imag)), len(points))
        if g == len(points):
            points.append((_channels(indices, N, ctx.tau), h, z12))
        a2s = sorted(points[g][0][2])
        built = _templates(a2s, hbar, mu, p1, p2, omega, ctx, N, form) if odd else [_ORDINARY] * len(a2s)
        for a2, t in zip(a2s, built):
            op_templates[o, a2] = templates.setdefault(t, len(templates))
            for dtau in t.sizes:
                reads[dtau].setdefault(g)
        op_geometry.append(g)
    templates = list(templates)
    counts = np.array([len(c[1]) for c, _, _ in points])
    spans = [np.arange(n) + start for n, start in zip(counts, np.cumsum(counts) - counts)]
    # one request per modulus order over the points that read it, at the largest size read there, into
    # one array indexed by (modulus order, point, j, k)
    requests = []
    for dtau, readers in enumerate(reads):
        if readers and len(at := np.concatenate([spans[g] for g in readers])):
            size = np.max([t.sizes[dtau] for t in templates if dtau in t.sizes], axis=0)
            requests.append((*size.tolist(), dtau, at))
    table = np.zeros((2, counts.sum(), *np.max([(0, 0), *(r[:2] for r in requests)], axis=0) + 1), dtype=complex)
    if requests:
        hbars = np.concatenate([h + c[0] for c, h, _ in points])
        z12s = np.repeat([z12 for _, _, z12 in points], counts)
        for (max_j, max_k, dtau, at), got in zip(requests, batch.elliptic_tables(hbars, z12s, ctx, requests)):
            table[dtau, at, : max_j + 1, : max_k + 1] = got
    # the (geometry, a2) dressings, each nonzero c z12 exponentiated once, in the order first needed
    dressings, dressed = np.ones((len(points), N), dtype=complex), {}
    for g, (channels, _, z12) in enumerate(points):
        row = dressed.setdefault(struct.pack("2d", z12.real, z12.imag), {})
        for a2 in channels[2]:
            if a2 and a2 not in row:
                row[a2] = _dressing(_TWO_PI_I * a2 / N, z12)
        dressings[g, list(row)] = list(row.values())
    # every op's channels: their table rows, grid positions, templates and dressings
    rows = np.concatenate([spans[g] for g in op_geometry])
    op_of = np.repeat(np.arange(len(ops)), counts[op_geometry])
    grid = np.concatenate([c[1] for c, _, _ in points])[rows]
    ids = op_templates[op_of, grid % N]
    envelope = dressings[np.repeat(np.arange(len(points)), counts)[rows], grid % N]
    coeffs = np.zeros((len(rows), 1 << default_generators().n_generators), dtype=complex)
    shape_of: dict = {}
    shape = np.array([shape_of.setdefault(t.shape, len(shape_of)) for t in templates], dtype=int)
    for s in range(len(shape_of)):
        members, at = np.flatnonzero(shape == s), np.flatnonzero(shape[ids] == s)
        t = templates[members[0]]
        matrices = np.stack([templates[i].matrix for i in members])[np.searchsorted(members, ids[at])]
        terms = matrices * table[t.dtau, rows[at, None], t.j, t.k][:, None]
        # summed in cell order, no BLAS: a channel's bits do not depend on the rest of the pass
        coeffs[at[:, None], t.masks] = np.add.accumulate(terms, axis=2)[..., -1] * envelope[at, None]
    used = np.flatnonzero(coeffs.any(axis=0))
    cells = np.zeros((len(ops), len(used), N * N), dtype=complex)
    cells[op_of, :, grid] = coeffs[:, used]
    nonzero = cells.any(axis=2)
    blocks, out = iter(basis.channel_blocks(cells[nonzero].reshape(-1, N, N))), [SuperMatrix(2, N) for _ in ops]
    for m, row in zip(out, nonzero):
        m.blocks = {mask: next(blocks) for mask in used[row].tolist()}
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


def aybe_residual(factors: Sequence[SuperMatrix]):
    """(residual, scale) of the associative identity on 3 sites, see three_term.

    factors are the channel sums of aybe_ops, in three_term_specs order,
    placed at sites (1,2), (2,3) and (3,1); an exact solution makes the
    block sum vanish.
    """
    built = iter(factors)
    # the factors come in three_term_specs order, so the parameter tuples are not needed
    return three_term(lambda _, a, b: next(built).placed((a + 1, b + 1)), (), (),
                      mul=operator.matmul, size=SuperMatrix.max_abs)


_CYBE_SITES = ((1, 2), (1, 3), (2, 3))


def cybe_ops(points: Sequence[SuperPoint], basis: HeisenbergBasis, super: bool = False) -> list:
    """The channel_sums ops of cybe_residual's three classical operators, at sites (1,2), (1,3), (2,3)."""
    return [(basis.nonzero_indices(), 0.0, None, points[a - 1], points[b - 1], "shift", super) for a, b in _CYBE_SITES]


def cybe_residual(factors: Sequence[SuperMatrix]):
    """(residual, scale) of the classical bracket identity on 3 sites.

    factors are the channel sums of cybe_ops, placed at sites (1,2), (1,3)
    and (2,3); the residual sums their supercommutators over the pairs
    (12,13), (12,23), (13,23): commutators of ordinary operators,
    anticommutators of odd ones.  The scale is the largest bracket.
    """
    r12, r13, r23 = (r.placed(s) for r, s in zip(factors, _CYBE_SITES))
    b1 = supercommutator(r12, r13)
    b2 = supercommutator(r12, r23)
    b3 = supercommutator(r13, r23)
    scale = max(b1.max_abs(), b2.max_abs(), b3.max_abs())
    b1 += b2
    b1 += b3
    return b1, scale
