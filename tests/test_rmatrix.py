"""Finite Heisenberg basis, tensor blocks, and Yang-Baxter residuals."""

import cmath
import math
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from helpers import aybe_factors, cybe_factors, dense, dense_matmul, entry, from_full, kappa, phi

from superkron.elliptic import EllipticContext, PoleProximityError
from superkron.grassmann import default_generators, parity
from superkron.rmatrix import (
    BASIS_FORMS,
    HeisenbergBasis,
    MultiIndex,
    SuperMatrix,
    _gather,
    aybe_residual,
    basis_phi,
    build_R,
    build_r_classical,
    channel_shift,
    channel_sums,
    cybe_residual,
    embed,
    super_basis_phi,
    supercommutator,
)
from superkron.suites import VerifyConfig, replay_sample, run_suites
from superkron.superfunc import SuperPoint, fay_residual, super_phi, three_term

GENS = default_generators()
CTX = EllipticContext(0.3 + 1.1j)
TPI = 2j * math.pi

H1 = 0.31 + 0.12j
H2 = -0.22 + 0.27j
P1 = SuperPoint(0.22 + 0.41j, "ζ1")
P2 = SuperPoint(-0.17 + 0.09j, "ζ2")
P3 = SuperPoint(0.53 - 0.21j, "ζ3")
Z12 = P1.z - P2.z
Z23 = P2.z - P3.z
Z31 = P3.z - P1.z


def rel(err, scale):
    return err / max(scale, 1.0)


# the channel sums tabulate every elliptic list in one batch, which rounds
# differently from the single-point route of SuperFunction.evaluate; the
# tests that compare the two measured at most 1.6e-15 of the largest entry
# (or one), and this bound is ten times that
ROUTE_TOL = 2e-14


def all_indices(N):
    return [MultiIndex(i, j) for i, j in product(range(N), repeat=2)]


# -- finite Heisenberg pair ----------------------------------------------------


def test_clock_and_shift_order():
    for N in (2, 3, 4):
        b = HeisenbergBasis(N)
        eye = np.eye(N)
        assert np.abs(np.linalg.matrix_power(b.q_power(1), N) - eye).max() < 1e-13
        assert np.abs(np.linalg.matrix_power(b.lam_power(1), N) - eye).max() < 1e-13


def test_clock_entries_one_based():
    b = HeisenbergBasis(3)
    w = cmath.exp(TPI / 3)
    assert np.abs(b.q_power(1) - np.diag([w, w**2, 1.0])).max() < 1e-14
    assert np.abs(b.lam_power(1) - np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])).max() == 0.0


def test_weyl_commutation_exhaustive():
    for N in (2, 3):
        b = HeisenbergBasis(N)
        for a1, a2 in product(range(-N, N + 1), repeat=2):
            lhs = cmath.exp(TPI * a1 * a2 / N) * b.q_power(a1) @ b.lam_power(a2)
            rhs = b.lam_power(a2) @ b.q_power(a1)
            assert np.abs(lhs - rhs).max() < 1e-13


def test_basis_matrix_fixtures():
    b = HeisenbergBasis(2)
    assert np.abs(b.t((0, 0)) - np.eye(2)).max() < 1e-14
    assert np.abs(b.t((1, 0)) - np.diag([-1, 1])).max() < 1e-14
    assert np.abs(b.t((0, 1)) - np.array([[0, 1], [1, 0]])).max() < 1e-14
    assert np.abs(b.t((1, 1)) - np.array([[0, -1j], [1j, 0]])).max() < 1e-14


def test_product_rule_exhaustive():
    for N in (2, 3):
        b = HeisenbergBasis(N)
        for al in all_indices(N):
            for be in all_indices(N):
                lhs = b.t(al) @ b.t(be)
                rhs = kappa(al, be, N) * b.t(al + be)
                assert np.abs(lhs - rhs).max() < 1e-13


def test_structure_constant_four_way_equality():
    for N in (2, 3, 4):
        for al in all_indices(N):
            for be in all_indices(N):
                vals = (
                    kappa(be, al, N),
                    kappa(-al, be, N),
                    kappa(be, al - be, N),
                    kappa(al - be, -al, N),
                )
                assert max(abs(v - vals[0]) for v in vals) == 0.0


def test_raw_index_shift_sign():
    # shifting the first index by the order flips the sign when the second
    # index is odd, so indices must be combined before reduction
    b = HeisenbergBasis(2)
    al = MultiIndex(1, 1)
    shifted = MultiIndex(3, 1)
    assert np.abs(b.t(shifted) + b.t(al)).max() < 1e-14
    even = MultiIndex(1, 0)
    assert np.abs(b.t(MultiIndex(3, 0)) - b.t(even)).max() < 1e-14


def test_multi_index_arithmetic():
    a = MultiIndex(2, -1)
    b = MultiIndex(-1, 4)
    assert a + b == MultiIndex(1, 3)
    assert a - b == MultiIndex(3, -5)
    assert -a == MultiIndex(-2, 1)
    assert (a - a).is_zero()
    assert not a.is_zero()


def test_index_lists():
    b = HeisenbergBasis(2)
    assert len(b.canonical_indices()) == 4
    assert len(b.nonzero_indices()) == 3
    assert all(not a.is_zero() for a in b.nonzero_indices())


@pytest.mark.parametrize("N", [1, 2, 3, 6])
def test_index_tuples_are_built_once_per_N(N):
    # one tuple per N, shared by every basis of that N and every call
    b = HeisenbergBasis(N)
    canonical, nonzero = b.canonical_indices(), b.nonzero_indices()
    assert canonical is HeisenbergBasis(N).canonical_indices() and nonzero is b.nonzero_indices()
    assert canonical == tuple(MultiIndex(a1, a2) for a1, a2 in product(range(N), repeat=2))
    assert nonzero == canonical[1:] and all(type(a) is MultiIndex for a in canonical)


# -- channel functions -----------------------------------------------------------


def test_channel_shift_value():
    assert channel_shift(MultiIndex(1, 2), 3, CTX.tau) == pytest.approx((1 + 2 * CTX.tau) / 3)


def test_basis_phi_zero_channel_is_plain_kernel():
    got = basis_phi(MultiIndex(0, 0), H1, Z12, CTX, 2)
    assert got == pytest.approx(phi(H1, Z12, CTX), rel=1e-13)


def test_basis_phi_dressing_formula():
    # dressed value = exponential prefactor times shifted plain kernel
    N = 3
    for al in all_indices(N):
        c = TPI * al.a2 / N
        want = cmath.exp(c * Z12) * phi(H1 + channel_shift(al, N, CTX.tau), Z12, CTX)
        got = basis_phi(al, H1, Z12, CTX, N)
        assert got == pytest.approx(want, rel=1e-12)


def test_generic_three_term_identity_exhaustive():
    for N in (2, 3):
        for al in all_indices(N):
            for be in all_indices(N):
                s = (
                    basis_phi(al, H1, Z12, CTX, N) * basis_phi(be, H2, Z23, CTX, N)
                    + basis_phi(-be, -H2, Z31, CTX, N) * basis_phi(al - be, H1 - H2, Z12, CTX, N)
                    + basis_phi(be - al, H2 - H1, Z23, CTX, N) * basis_phi(-al, -H1, Z31, CTX, N)
                )
                scale = abs(basis_phi(al, H1, Z12, CTX, N) * basis_phi(be, H2, Z23, CTX, N))
                assert rel(abs(s), scale) < 1e-12


def test_shift_only_three_term_identity_exhaustive():
    for N in (2, 3):
        for al in all_indices(N):
            for be in all_indices(N):
                if al.is_zero() or be.is_zero() or (al - be).is_zero():
                    continue
                s = (
                    basis_phi(al, 0.0, Z12, CTX, N) * basis_phi(be, 0.0, Z23, CTX, N)
                    + basis_phi(-be, 0.0, Z31, CTX, N) * basis_phi(al - be, 0.0, Z12, CTX, N)
                    + basis_phi(be - al, 0.0, Z23, CTX, N) * basis_phi(-al, 0.0, Z31, CTX, N)
                )
                scale = abs(basis_phi(al, 0.0, Z12, CTX, N) * basis_phi(be, 0.0, Z23, CTX, N))
                assert rel(abs(s), scale) < 1e-12


def test_channel_summand_representative_invariance():
    N = 3
    b = HeisenbergBasis(N)
    al = MultiIndex(1, 2)
    ref = np.kron(b.t(al), b.t(-al)) * basis_phi(al, H1, Z12, CTX, N)
    for e in (MultiIndex(3, 0), MultiIndex(0, 3), MultiIndex(-3, 3)):
        al2 = al + e
        got = np.kron(b.t(al2), b.t(-al2)) * basis_phi(al2, H1, Z12, CTX, N)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("form", ["mu-shift", "basis", "heat"])
def test_super_channel_forms_agree(form):
    for N in (2, 3):
        for al in all_indices(N):
            ref = super_basis_phi(al, H1, "μ1", P1, P2, "ω", CTX, N, form="shift").evaluate(
                P1.z, P2.z
            )
            got = super_basis_phi(al, H1, "μ1", P1, P2, "ω", CTX, N, form=form).evaluate(
                P1.z, P2.z
            )
            assert (got - ref).max_abs() <= 1e-11 * max(ref.max_abs(), 1.0)


@pytest.mark.parametrize("form", ["mu-shift", "basis", "heat"])
def test_super_channel_forms_agree_truncated(form):
    N = 2
    for al in all_indices(N):
        if al.is_zero():
            continue  # zero channel sits on a pole once the rapidity vanishes
        ref = super_basis_phi(al, 0.0, None, P1, P2, "ω", CTX, N, form="shift").evaluate(
            P1.z, P2.z
        )
        got = super_basis_phi(al, 0.0, None, P1, P2, "ω", CTX, N, form=form).evaluate(
            P1.z, P2.z
        )
        assert (got - ref).max_abs() <= 1e-11 * max(ref.max_abs(), 1.0)


def test_unknown_form_rejected():
    with pytest.raises(ValueError):
        super_basis_phi(MultiIndex(0, 1), H1, "μ1", P1, P2, "ω", CTX, 2, form="spiral")


def test_super_channel_three_term_identity_samples():
    N = 2
    mu1 = GENS.generator("μ1")
    mu2 = GENS.generator("μ2")
    for al, be in ((MultiIndex(0, 1), MultiIndex(1, 0)), (MultiIndex(1, 1), MultiIndex(0, 1))):
        f1 = super_basis_phi(al, H1, "μ1", P1, P2, "ω", CTX, N).evaluate(P1.z, P2.z)
        f2 = super_basis_phi(be, H2, "μ2", P2, P3, "ω", CTX, N).evaluate(P2.z, P3.z)
        f3 = super_basis_phi(-be, -H2, -mu2, P3, P1, "ω", CTX, N).evaluate(P3.z, P1.z)
        f4 = super_basis_phi(al - be, H1 - H2, mu1 - mu2, P1, P2, "ω", CTX, N).evaluate(P1.z, P2.z)
        f5 = super_basis_phi(be - al, H2 - H1, mu2 - mu1, P2, P3, "ω", CTX, N).evaluate(P2.z, P3.z)
        f6 = super_basis_phi(-al, -H1, -mu1, P3, P1, "ω", CTX, N).evaluate(P3.z, P1.z)
        s = f1 * f2 + f3 * f4 + f5 * f6
        assert rel(s.max_abs(), (f1 * f2).max_abs()) < 1e-12


def test_super_channel_three_term_identity_shift_only():
    N = 2
    al, be = MultiIndex(0, 1), MultiIndex(1, 1)
    g1 = super_basis_phi(al, 0.0, None, P1, P2, "ω", CTX, N).evaluate(P1.z, P2.z)
    g2 = super_basis_phi(be, 0.0, None, P2, P3, "ω", CTX, N).evaluate(P2.z, P3.z)
    g3 = super_basis_phi(-be, 0.0, None, P3, P1, "ω", CTX, N).evaluate(P3.z, P1.z)
    g4 = super_basis_phi(al - be, 0.0, None, P1, P2, "ω", CTX, N).evaluate(P1.z, P2.z)
    g5 = super_basis_phi(be - al, 0.0, None, P2, P3, "ω", CTX, N).evaluate(P2.z, P3.z)
    g6 = super_basis_phi(-al, 0.0, None, P3, P1, "ω", CTX, N).evaluate(P3.z, P1.z)
    s = g1 * g2 + g3 * g4 + g5 * g6
    assert rel(s.max_abs(), (g1 * g2).max_abs()) < 1e-12


# -- graded matrices -------------------------------------------------------------


def brute_matmul(a, b):
    """Entry-by-entry reference product using scalar Grassmann arithmetic."""
    dim = a.site_dim**a.n_sites
    full: dict[int, np.ndarray] = {}
    for i in range(dim):
        for j in range(dim):
            acc = GENS.zero()
            for k in range(dim):
                acc = acc + entry(a, i, k) * entry(b, k, j)
            for mask, coeff in acc.items():
                full.setdefault(mask, np.zeros((dim, dim), dtype=complex))[i, j] = coeff
    return from_full(a.n_sites, a.site_dim, full)


def random_super_matrix(rng, n_sites=2, site_dim=2, masks=(0, 1, 2, 3, 6)):
    """Random values on the representatives of the joint-shift orbits.

    Two sites by default: a 1-site matrix that conserves the charge and is
    shift-invariant is c times the identity, so 1-site operands commute and
    cannot show an ordering mistake.
    """
    m = SuperMatrix(n_sites, site_dim)
    shape = (site_dim ** (n_sites - 1),) * 2
    for mask in masks:
        m.blocks[mask] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return m


def test_matmul_matches_entrywise_products(rng):
    a = random_super_matrix(rng)
    b = random_super_matrix(rng, masks=(0, 1, 4, 5))
    got = a @ b
    want = brute_matmul(a, b)
    assert (got - want).max_abs() <= 1e-12 * max(want.max_abs(), 1.0)
    assert (got - brute_matmul(b, a)).max_abs() > 1e-3 * want.max_abs()


def test_matmul_grading_signs(rng):
    # (zeta1 A)(zeta2 B) = -zeta1 zeta2 (A @ B) requires the crossing sign;
    # at d = 2 shift-invariant 2-site blocks commute, at d = 3 they need not
    d = 3
    A = dense(random_super_matrix(rng, site_dim=d, masks=(0,)), 0)
    B = dense(random_super_matrix(rng, site_dim=d, masks=(0,)), 0)
    assert np.abs(A @ B - B @ A).max() > 0.1
    ma = from_full(2, d, {GENS.mask_of("ζ1"): A})
    mb = from_full(2, d, {GENS.mask_of("ζ2"): B})
    prod = ma @ mb
    mask12 = GENS.mask_of("ζ1ζ2")
    assert set(prod.blocks) == {mask12}
    assert np.abs(dense(prod, mask12) - A @ B).max() < 1e-14
    prod_rev = mb @ ma
    assert np.abs(dense(prod_rev, mask12) + B @ A).max() < 1e-14


def test_lmul_element_and_scale(rng):
    m = random_super_matrix(rng)
    z3 = GENS.generator("ζ3")
    # an element times the identity matrix multiplies every entry from the left
    dim = m.site_dim**m.n_sites
    left = from_full(2, m.site_dim, {GENS.mask_of("ζ3"): 2.0 * np.eye(dim)}) @ m
    for i in range(dim):
        for j in range(dim):
            want = z3 * 2.0 * entry(m, i, j)
            assert (entry(left, i, j) - want).max_abs() < 1e-12
    triple = m - SuperMatrix(m.n_sites, m.site_dim)  # a copy
    triple += m
    triple += m
    for mask in m.blocks:
        assert np.abs(dense(triple, mask) - 3.0 * dense(m, mask)).max() < 1e-12


def test_entry_and_coefficient_matrix(rng):
    m = random_super_matrix(rng, masks=(0, 5))
    for i, j in product(range(m.site_dim**m.n_sites), repeat=2):
        e = entry(m, i, j)
        assert e.coefficient(0) == dense(m, 0)[i, j]
        assert e.coefficient(5) == dense(m, 5)[i, j]
        assert e.coefficient(9) == 0j
    # (0, 1) is off the charge pattern: output digits (0, 0), inputs (0, 1)
    assert entry(m, 0, 1).max_abs() == 0.0
    assert entry(m, 0, 0).coefficient(5) == m.blocks[5][0, 0]


def test_off_pattern_block_is_rejected():
    d = 3
    full = np.zeros((d * d, d * d), dtype=complex)
    # the orbit of outputs (0, 0), inputs (0, 0): conserves, and is shift-invariant
    full[np.arange(d) * (d + 1), np.arange(d) * (d + 1)] = 1.0
    m = from_full(2, d, {0: full})
    assert m.blocks[0].shape == (d, d)
    full[0, 1] = 1e-300  # outputs (0, 0), inputs (0, 1): does not conserve
    with pytest.raises(ValueError):
        from_full(2, d, {0: full})
    with pytest.raises(ValueError):
        from_full(2, d, {GENS.mask_of("ω"): full})
    full[0, 1] = np.nan  # a NaN off the pattern is not zero either
    with pytest.raises(ValueError):
        from_full(2, d, {0: full})
    full[0, 1] = 0.0
    # outputs (1, 1), inputs (1, 1) conserves, but leaves its orbit by more than rounding
    full[d + 1, d + 1] = 1.0 + 1e-11
    with pytest.raises(ValueError, match="shift"):
        from_full(2, d, {0: full})
    with pytest.raises(ValueError, match="shift"):
        from_full(2, d, {0: full})
    assert list(m.blocks) == [0] and entry(m, 0, 1).max_abs() == 0.0 and entry(m, d + 1, d + 1).coefficient(0) == 1.0
    full[d + 1, d + 1] = np.nan  # nor is a NaN that its representative lacks
    with pytest.raises(ValueError, match="shift"):
        from_full(2, d, {0: full})
    full[d + 1, d + 1] = 1.0 + 1e-13  # within rounding: the representative is kept
    assert from_full(2, d, {0: full}).blocks[0][0, 0] == 1.0


def block_parity(m):
    return parity(mask for mask, a in m.blocks.items() if a.any())


def test_parity_of_blocks():
    d = 2
    even = from_full(1, d, {0: np.eye(d), GENS.mask_of("ζ1ζ2"): np.eye(d)})
    odd = from_full(1, d, {GENS.mask_of("ω"): np.eye(d)})
    assert block_parity(even) == "even"
    assert block_parity(odd) == "odd"
    mixed = even - odd
    assert block_parity(mixed) == "mixed"


def test_embed_against_brute_force_contraction(rng):
    d = 2
    m = random_super_matrix(rng, masks=(0,))
    T = dense(m, 0).reshape(d, d, d, d)
    for sites in ((1, 2), (2, 3), (3, 1), (1, 3), (2, 1)):
        big = dense(embed(m, sites, 3), 0)
        brute = np.zeros((d**3, d**3), dtype=complex)
        s0, s1 = sites[0] - 1, sites[1] - 1
        for o in product(range(d), repeat=3):
            for i in product(range(d), repeat=3):
                val = T[o[s0], o[s1], i[s0], i[s1]]
                for r in range(3):
                    if r not in (s0, s1):
                        val *= 1.0 if o[r] == i[r] else 0.0
                brute[o[0] * d * d + o[1] * d + o[2], i[0] * d * d + i[1] * d + i[2]] = val
        assert np.abs(big - brute).max() < 1e-13


def test_embed_identity_is_identity():
    d = 2
    m = from_full(2, d, {0: np.eye(d * d)})
    big = embed(m, (1, 3), 3)
    assert np.abs(dense(big, 0) - np.eye(d**3)).max() == 0.0


# the placements aybe (12 23, 31 12, 23 31) and cybe (12 13, 12 23, 13 23)
# multiply, which share one site, a 1-site factor (c times the identity)
# with a 3-site one, which share one, and a 3-site factor with a 2-site
# one, which share two; their reverses; and two that share all three
# sites.  Each case has its own id, so adding or removing one renames no
# other; the ids of the first sixteen are the names they were first
# collected under, and a new case is named by its placement, e.g. "12@23".
PLACED_PRODUCTS = {
    "sites0": ((1, 2), (2, 3)),
    "sites1": ((3, 1), (1, 2)),
    "sites2": ((2, 3), (3, 1)),
    "sites3": ((1, 2), (1, 3)),
    "sites4": ((1, 3), (2, 3)),
    "sites5": ((2,), (3, 1, 2)),
    "sites6": ((3, 1, 2), (2, 3)),
    "sites7": ((2, 3), (1, 2)),
    "sites8": ((1, 2), (3, 1)),
    "sites9": ((3, 1), (2, 3)),
    "sites10": ((1, 3), (1, 2)),
    "sites11": ((2, 3), (1, 3)),
    "sites12": ((3, 1, 2), (2,)),
    "sites13": ((2, 3), (3, 1, 2)),
    "sites14": ((1, 2, 3), (3, 1, 2)),
    "sites15": ((2, 1, 3), (2, 3, 1)),
}


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("sites", list(PLACED_PRODUCTS.values()), ids=list(PLACED_PRODUCTS))
def test_placed_product_matches_dense_embedding(rng, d, sites):
    sa, sb = sites
    a = random_super_matrix(rng, len(sa), d, masks=(0, 1, 2, 3, 6)).placed(sa)
    b = random_super_matrix(rng, len(sb), d, masks=(0, 1, 4, 5)).placed(sb)
    got = a @ b
    want = dense_matmul(embed(a, sa, 3), embed(b, sb, 3))
    assert got.sites == (1, 2, 3)
    assert set(got.blocks) == set(want.blocks)
    assert (got - want).max_abs() <= 1e-14 * want.max_abs()


def test_sites_are_checked(rng):
    m = random_super_matrix(rng, 2, 2)
    for bad in ((1, 1), (1, 2, 3), (0, 1), (2,)):
        with pytest.raises(ValueError):
            m.placed(bad)
        with pytest.raises(ValueError):
            SuperMatrix(2, 2, sites=bad)
    with pytest.raises(ValueError):
        m.placed((1, 2)) - m.placed((2, 3))
    with pytest.raises(ValueError):
        m.placed((1, 2)) - m.placed((2, 1))
    # placed factors share a site, and their union still has at most three
    with pytest.raises(ValueError, match="share no site"):
        random_super_matrix(rng, 1, 2).placed((2,)) @ m.placed((3, 1))
    with pytest.raises(ValueError):
        m.placed((1, 2)) @ m.placed((3, 4))


def test_sums_are_blockwise_and_leave_operands_unchanged(rng):
    a = random_super_matrix(rng, masks=(0, 1, 6))
    b = random_super_matrix(rng, masks=(0, 3, 6))
    saved = [{mask: arr.copy() for mask, arr in m.blocks.items()} for m in (a, b)]
    zero = np.zeros_like(a.blocks[0])
    diff = a - b
    acc = a - b
    acc += b
    acc += b
    for mask in (0, 1, 3, 6):
        x, y = a.blocks.get(mask, zero), b.blocks.get(mask, zero)
        assert np.array_equal(diff.blocks[mask], x - y)
        assert np.array_equal(acc.blocks[mask], x - y + y + y)
    for m, blocks in zip((a, b), saved):
        assert all(np.array_equal(m.blocks[mask], arr) for mask, arr in blocks.items())
    with pytest.raises(ValueError):
        acc += a.placed((2, 3))


def test_products_own_their_blocks(rng):
    # a product's blocks are its own: the next product changes none of
    # them, and adding one product into another changes only the sum.
    # placed() shares blocks
    a, c = (random_super_matrix(rng, masks=masks).placed((1, 2)) for masks in ((0, 1, 6), (0, 2, 5)))
    b, d = (random_super_matrix(rng, masks=masks).placed((2, 3)) for masks in ((0, 3, 4), (0, 1, 8)))
    p = a @ b
    saved = {mask: arr.copy() for mask, arr in p.blocks.items()}
    q = c @ d
    q_saved = {mask: arr.copy() for mask, arr in q.blocks.items()}
    assert all(np.array_equal(p.blocks[mask], arr) for mask, arr in saved.items())
    assert not any(np.shares_memory(x, y) for x in p.blocks.values() for y in q.blocks.values())
    shared = p.placed((1, 2, 3))
    p += q
    assert all(np.array_equal(q.blocks[mask], arr) for mask, arr in q_saved.items())
    zero = np.zeros_like(saved[0])
    for mask in set(saved) | set(q_saved):
        assert np.array_equal(p.blocks[mask], saved.get(mask, zero) + q_saved.get(mask, zero))
    assert all(shared.blocks[mask] is p.blocks[mask] for mask in saved)


def _per_channel_sum(b, indices, hbar, mu, form):
    """The parent's sum: a fresh channel function per channel, added block by block."""
    N = b.N
    full: dict[int, np.ndarray] = {}
    for alpha in indices:
        if form is None:
            value = ((0, basis_phi(alpha, hbar, Z12, CTX, N)),)
        else:
            value = super_basis_phi(alpha, hbar, mu, P1, P2, "ω", CTX, N, form=form).evaluate(P1.z, P2.z).items()
        for mask, coeff in value:
            full[mask] = full.get(mask, 0.0) + coeff * np.kron(b.t(alpha), b.t(-alpha))
    return from_full(2, N, full)


def test_channel_sum_matches_per_term_reference():
    # one odd function per a2, evaluated at each channel's own parameter,
    # and the cached pair blocks summed in place give the sum of freshly
    # built per-channel functions, in every form and both operators, with
    # the same monomials, ascending, to ROUTE_TOL: the reference
    # evaluates point by point, the channel sums in one batch.  An odd
    # parameter with complex coefficients makes complex plan scalars
    mu_c = GENS.generator("μ1") * (0.3 + 0.7j) - GENS.generator("μ2") * (1.1 - 0.2j)
    for N in (2, 3, 4, 6):
        b = HeisenbergBasis(N)
        cases = [
            (build_r_classical(P1, P2, "ω", b, CTX), b.nonzero_indices(), 0.0, None, None),
            (build_r_classical(P1, P2, "ω", b, CTX, super=True), b.nonzero_indices(), 0.0, None, "shift"),
        ]
        for hbar in (H1, H1 + 2.0 - 3.0 * CTX.tau):  # reduced and unreduced
            cases.append((build_R(hbar, None, P1, P2, "ω", b, CTX), b.canonical_indices(), hbar, None, None))
            for form in BASIS_FORMS:
                for mu in ("μ1", None, mu_c):
                    got = build_R(hbar, mu, P1, P2, "ω", b, CTX, super=True, form=form)
                    cases.append((got, b.canonical_indices(), hbar, mu, form))
        for got, indices, hbar, mu, form in cases:
            want = _per_channel_sum(b, indices, hbar, mu, form)
            assert list(got.blocks) == sorted(want.blocks), (N, hbar, mu, form)
            assert rel((got - want).max_abs(), want.max_abs()) <= ROUTE_TOL, (N, hbar, mu, form)
    alpha = MultiIndex(1, 2)
    assert not any(x.flags.writeable for x in _gather(b.N))
    one = np.zeros((1, b.N, b.N), dtype=complex)
    one[0, alpha.a1, alpha.a2] = 1.0
    pair = SuperMatrix(2, b.N)
    pair.blocks[0] = b.channel_blocks(one)[0]
    want = np.kron(b.t(alpha), b.t(-alpha))
    # the representatives, first output digit 0, are entries of the product itself; the rest match to rounding
    assert np.array_equal(dense(pair, 0)[: b.N], want[: b.N])
    assert np.abs(dense(pair, 0) - want).max() <= 1e-14


def test_channel_functions_are_built_once_per_a2(monkeypatch):
    from superkron import rmatrix

    built = []

    def counting(alpha, *args, **kwargs):
        built.append(alpha)
        return super_basis_phi(alpha, *args, **kwargs)

    monkeypatch.setattr(rmatrix, "super_basis_phi", counting)
    monkeypatch.setattr(rmatrix, "_TEMPLATES", {})
    # each from the representative (0, a2), in ascending a2, whatever
    # channel of the list has that a2 first
    b = HeisenbergBasis(3)
    representatives = [(0, 0), (0, 1), (0, 2)]
    build_R(H1, "μ1", P1, P2, "ω", b, CTX, super=True)
    assert built == representatives
    built.clear()
    build_r_classical(P1, P2, "ω", b, CTX, super=True)
    assert built == representatives
    built.clear()
    build_R(H1, None, P1, P2, "ω", b, CTX)
    assert built == []
    # compiled once: another parameter, points or modulus with the same
    # slots builds nothing; other slots build their own
    build_R(H2, "μ1", SuperPoint(0.1, "ζ1"), SuperPoint(0.3j, "ζ2"), "ω", b, EllipticContext(3.3 + 0.4j), super=True)
    cybe_residual(cybe_factors([P1, P2, P3], b, CTX, odd=True))
    assert built == representatives * 2
    # N per slot set: the odd quantum one and the classical ones of three point pairs
    assert len(rmatrix._TEMPLATES) == 3 + 3 * 3


def test_channel_sums_make_one_request_per_table(monkeypatch):
    # every channel list goes to the batch, whatever its length; a pass
    # makes one batch call, with one request per modulus order its templates
    # read, each over all the points that read it, and a pass without
    # channels makes none
    from superkron import batch

    elliptic_tables = batch.elliptic_tables
    calls = []

    def counting(hbars, z, ctx, requests):
        calls.append([len(np.arange(len(hbars))[at]) for _, _, _, at in requests])
        return elliptic_tables(hbars, z, ctx, requests)

    monkeypatch.setattr(batch, "elliptic_tables", counting)
    for N, want in ((1, [[1, 1], [1]]), (3, [[9, 9], [9], [8, 8]]), (4, [[16, 16], [16], [15, 15]])):
        b = HeisenbergBasis(N)
        build_R(H1, "μ1", P1, P2, "ω", b, CTX, super=True)
        build_R(H1, None, P1, P2, "ω", b, CTX)
        build_r_classical(P1, P2, "ω", b, CTX, super=True)
        assert calls == want, N
        calls.clear()
    for N, want in ((1, [[6, 6], [6]]), (2, [[24, 24], [24], [9, 9], [9]]), (4, [[96, 96], [96], [45, 45], [45]])):
        b = HeisenbergBasis(N)
        aybe_residual(aybe_factors((H1, H2), ("μ1", "μ2"), [P1, P2, P3], b, CTX, odd=True))
        aybe_residual(aybe_factors((H1, H2), None, [P1, P2, P3], b, CTX))
        cybe_residual(cybe_factors([P1, P2, P3], b, CTX, odd=True))
        cybe_residual(cybe_factors([P1, P2, P3], b, CTX))
        assert calls == want, N
        calls.clear()


def _pass_ops(b):
    """Operators of every kind for one channel_sums pass: points, parameters and slots differ."""
    mu12 = GENS.generator("μ1") - GENS.generator("μ2")
    quantum = [
        (hbar, mu, p, q, form)
        for hbar, p, q in ((H1, P1, P2), (H2 + 2.0 - 3.0 * CTX.tau, P2, P3), (-H1, P3, P1))
        for mu in ("μ1", None, mu12)
        for form in BASIS_FORMS
    ]
    classical = [(p, q) for p, q in ((P1, P2), (P1, P3), (P2, P3))]
    return quantum, classical


@pytest.mark.parametrize("tau", [0.3 + 1.1j, 3.3 + 0.4j])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 6])
def test_channel_sums_equal_one_by_one_builds(N, tau):
    # one pass over many operators gives bit for bit what building each
    # alone gives, blocks and monomial order: all ordinary, all odd, and
    # mixed, where an ordinary operator at the points of an odd one (every
    # quantum one, each next to its odd twin, reference forms included, and
    # the first classical one) shares the odd one's requests, whose batch
    # tabulates each shared point once; at N = 1 the classical operator has
    # no channel and is empty
    b, ctx = HeisenbergBasis(N), EllipticContext(tau)
    quantum, classical = _pass_ops(b)
    ops, want = [], []
    for odd in (False, True):
        for hbar, mu, p, q, form in quantum:
            ops.append((b.canonical_indices(), hbar, mu, p, q, form, odd))
            want.append(build_R(hbar, mu, p, q, "ω", b, ctx, super=odd, form=form))
        for p, q in classical:
            ops.append((b.nonzero_indices(), 0.0, None, p, q, "shift", odd))
            want.append(build_r_classical(p, q, "ω", b, ctx, super=odd))
    half, nq = len(ops) // 2, len(quantum)
    mixed = [i for pair in zip(range(nq), range(half, half + nq)) for i in pair] + [*range(nq, half), half + nq]
    for kind, members in (("ordinary", range(half)), ("odd", range(half, len(ops))), ("mixed", mixed)):
        got = channel_sums([ops[i] for i in members], "ω", b, ctx)
        assert len(got) == len(members)
        for i, g in zip(members, got):
            w = want[i]
            assert list(g.blocks) == list(w.blocks), (kind, i)
            assert all(g.blocks[m].tobytes() == a.tobytes() for m, a in w.blocks.items()), (kind, i)
    if N == 1:
        assert all(not want[i].blocks for i in (*range(nq, half), *range(half + nq, len(ops))))


def test_one_channel_sum_pass_per_yang_baxter_sample(monkeypatch):
    # at N = 6 an aybe sample builds its ordinary and odd factors and the
    # basis and heat forms in one pass, with one batch call: the twelve
    # factors and two forms have six geometries, so the call tabulates 6 x 36
    # points, all at order 0, at the heat form's size (one more argument
    # derivative than the others read), and all at order 1, which the odd
    # factors and the basis form read.  A cybe sample makes one pass, one
    # call: its six operators have three geometries, 3 x 35 points at both
    # orders
    from superkron import batch, rmatrix, suites

    elliptic_tables, one_pass = batch.elliptic_tables, rmatrix.channel_sums
    passes, calls = [], []

    def counting_pass(ops, *args):
        passes.append(len(ops))
        return one_pass(ops, *args)

    def counting_tables(hbars, z, ctx, requests):
        calls.append((len(hbars), [(len(at), dtau, max_j, max_k) for max_j, max_k, dtau, at in requests]))
        return elliptic_tables(hbars, z, ctx, requests)

    monkeypatch.setattr(batch, "elliptic_tables", counting_tables)
    monkeypatch.setattr(rmatrix, "channel_sums", counting_pass)
    monkeypatch.setattr(suites, "channel_sums", counting_pass)
    cfg = suites.VerifyConfig(n=6)
    inputs = suites._sample_three_points(np.random.default_rng(7), cfg)
    suites.replay_sample("aybe", inputs, cfg)
    assert passes == [6 + 6 + 2]
    assert calls == [(6 * 36, [(6 * 36, 0, 2, 1), (6 * 36, 1, 0, 0)])]
    passes.clear()
    calls.clear()
    suites.replay_sample("cybe", inputs, cfg)
    assert passes == [3 + 3]
    assert calls == [(3 * 35, [(3 * 35, 0, 1, 0), (3 * 35, 1, 0, 0)])]


@pytest.mark.parametrize("suite", ["aybe", "cybe"])
def test_one_theta_pass_serves_both_modulus_orders(suite, monkeypatch):
    # the two requests of a Yang-Baxter sample's pass read the same reduced
    # theta arguments z, hbar and hbar+z: one series pass sums each distinct
    # one once, for both modulus orders, over the channel points of both
    from superkron import batch, suites
    from superkron.elliptic import lattice_reduce

    elliptic_tables, theta_sums, points, sums = batch.elliptic_tables, batch._theta_sums, [], []

    def counting_tables(hbars, z, ctx, requests):
        points.append(list(zip(np.array(hbars).tolist(), np.broadcast_to(z, np.shape(hbars)).tolist())))
        return elliptic_tables(hbars, z, ctx, requests)

    def counting_sums(ws, pairs, tau, top, dot_top=None):
        sums.append((ws.copy(), dot_top))
        return theta_sums(ws, pairs, tau, top, dot_top)

    monkeypatch.setattr(batch, "elliptic_tables", counting_tables)
    monkeypatch.setattr(batch, "_theta_sums", counting_sums)
    cfg = suites.VerifyConfig(n=6, tau=0.3 + 60j)
    suites.replay_sample(suite, suites._sample_three_points(np.random.default_rng(7), cfg), cfg)
    assert len(points) == len(sums) == 1 and sums[0][1] is not None
    want = set()
    for h, z in points[0]:
        h_red, z_red = lattice_reduce(h, cfg.tau)[0], lattice_reduce(z, cfg.tau)[0]
        want |= {np.complex128(w).tobytes() for w in (z_red, h_red, h_red + z_red)}
    got = [w.tobytes() for w in sums[0][0]]
    assert len(got) == len(set(got)) and set(got) == want


@pytest.mark.parametrize("N", [2, 3, 6])
def test_channel_sums_tabulate_each_geometry_once(N, monkeypatch):
    # operators that share their channels and the bits of hbar and z12, a
    # geometry, share every channel point: ordinary and odd twins, the basis,
    # heat and mu-shift forms, points at the same z with other odd
    # generators, and a classical pair given once more as a list of plain
    # pairs; each geometry is tabulated once, and every operator comes out
    # bit for bit as built alone.  hbar -0.0 is a geometry of its own
    from superkron import batch

    elliptic_tables, calls = batch.elliptic_tables, []

    def counting(hbars, z, ctx, requests):
        calls.append((len(hbars), [len(np.arange(len(hbars))[at]) for _, _, _, at in requests]))
        return elliptic_tables(hbars, z, ctx, requests)

    monkeypatch.setattr(batch, "elliptic_tables", counting)
    b = HeisenbergBasis(N)
    relabelled = SuperPoint(P1.z, "ζ2"), SuperPoint(P2.z, "ζ3")
    quantum = [(H1, P1, P2), (H2, P1, P2), (H1, P1, P2), (H1, *relabelled)]
    ops = [(b.canonical_indices(), h, mu, p, q, form, odd)
           for h, p, q in quantum for mu, form, odd in ((None, "shift", False), ("μ1", "shift", True))]
    ops += [(b.canonical_indices(), H1, "μ1", P1, P2, form, True) for form in ("basis", "heat", "mu-shift")]
    ops += [(b.nonzero_indices(), h, None, P1, P3, "shift", odd) for h in (0.0, complex(-0.0, 0.0), 0.0)
            for odd in (False, True)]
    ops += [(tuple(map(tuple, b.nonzero_indices())), 0.0, None, P1, P3, "shift", False)]
    got = channel_sums(ops, "ω", b, CTX)
    # geometries: H1 and H2 at z12 = P1.z - P2.z, 0.0 and -0.0 at P1.z - P3.z
    points = 2 * N * N + 2 * (N * N - 1)
    assert calls == [(points, [points, points])]
    for op, g in zip(ops, got):
        want = channel_sums([op], "ω", b, CTX)[0]
        assert list(g.blocks) == list(want.blocks), op
        assert all(g.blocks[m].tobytes() == a.tobytes() for m, a in want.blocks.items()), op


def test_channel_sums_request_only_the_modulus_orders_a_channel_reads(monkeypatch):
    # an ordinary operator reads modulus order 0 only: in one pass with an
    # odd operator at other points, far from the cell, the order-1 request
    # covers the odd operator's channel points alone, and each operator comes
    # out bit for bit as built alone, in either order
    from superkron import batch

    elliptic_tables, calls = batch.elliptic_tables, []

    def counting(hbars, z, ctx, requests):
        calls.append([(dtau, len(np.arange(len(hbars))[at])) for _, _, dtau, at in requests])
        return elliptic_tables(hbars, z, ctx, requests)

    h = 0.3 + 30j
    for N in (2, 6):
        b = HeisenbergBasis(N)
        ops = [(b.canonical_indices(), H1, "μ1", P1, P2, "shift", True),
               (b.canonical_indices(), h, None, P1, P2, "shift", False)]
        want = [build_R(H1, "μ1", P1, P2, "ω", b, CTX, super=True), build_R(h, None, P1, P2, "ω", b, CTX)]
        monkeypatch.setattr(batch, "elliptic_tables", counting)
        for order in ((0, 1), (1, 0)):
            calls.clear()
            got = channel_sums([ops[i] for i in order], "ω", b, CTX)
            assert calls == [[(0, 2 * N * N), (1, N * N)]], (N, order)
            for i, g in zip(order, got):
                assert list(g.blocks) == list(want[i].blocks), (N, i)
                assert all(g.blocks[m].tobytes() == a.tobytes() for m, a in want[i].blocks.items()), (N, i)


def test_template_keys_tell_slots_apart(monkeypatch):
    # an element slot is keyed by its exact terms in order, signed zeros
    # included: each of these gets its own template and a fresh build's bits
    from superkron import rmatrix
    from superkron.grassmann import GrassmannElement

    m1, m2 = GENS.mask_of("μ1"), GENS.mask_of("μ2")
    mus = [
        GrassmannElement({m1: 1.0, m2: 1.0}),
        GrassmannElement({m2: 1.0, m1: 1.0}),
        GrassmannElement({m1: complex(1.0, 0.0)}),
        GrassmannElement({m1: complex(1.0, -0.0)}),
    ]
    b = HeisenbergBasis(3)
    monkeypatch.setattr(rmatrix, "_TEMPLATES", {})
    for form in BASIS_FORMS:
        got = [build_R(H1, mu, P1, P2, "ω", b, CTX, super=True, form=form) for mu in mus]
        for mu, g in zip(mus, got):
            rmatrix._TEMPLATES.clear()
            want = build_R(H1, mu, P1, P2, "ω", b, CTX, super=True, form=form)
            assert list(g.blocks) == list(want.blocks), form
            assert all(g.blocks[m].tobytes() == a.tobytes() for m, a in want.blocks.items()), form
        rmatrix._TEMPLATES.clear()
        for mu in mus:
            build_R(H1, mu, P1, P2, "ω", b, CTX, super=True, form=form)
        assert len(rmatrix._TEMPLATES) == len(mus) * b.N, form
    # the sum's monomials come out ascending, whatever the terms' order
    assert list(got[0].blocks) == list(got[1].blocks) == sorted(got[0].blocks)


@pytest.fixture
def cold_channel_memos(monkeypatch):
    from superkron import rmatrix, superfunc

    monkeypatch.setattr(rmatrix, "_TEMPLATES", {})
    monkeypatch.setattr(superfunc, "_PHI_TERMS", {})
    return rmatrix._TEMPLATES, superfunc._PHI_TERMS


def _value_bits(elem):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in elem.items()]


def test_channel_functions_from_their_entry_keep_every_bit(cold_channel_memos):
    # each case built with the memos emptied, then every case again from the memos that all of them filled,
    # at the same parameter and points: every coefficient of the value has the same bits.  The shifted point
    # moves z1 by the modulus and zeta1 by 2 pi i omega, and evaluates unreduced with the soul that leaves,
    # as the periodicity check does
    templates, terms = cold_channel_memos
    z1e, ome = GENS.generator("ζ1"), GENS.generator("ω")
    mu_e = GENS.generator("μ1") * (0.3 + 0.7j) - GENS.generator("μ2")
    shifted, soul = SuperPoint(P1.z + CTX.tau, z1e + ome * TPI), (z1e * ome) * TPI

    def value(alpha, mu, p1, form, N):
        f = super_basis_phi(alpha, H1, mu, p1, P2, "ω", CTX, N, form=form)
        if p1 is P1:
            return _value_bits(f.evaluate(P1.z, P2.z))
        return _value_bits(f.evaluate(p1.z, P2.z, soul=soul, reduce=False))

    cases = [(MultiIndex(1, a2), mu, p1, form, N) for N in (2, 3)
             for a2, form, mu, p1 in product((-1, 0, 1, N - 1, N), BASIS_FORMS, (None, "μ1", mu_e), (P1, shifted))]
    cold = []
    for case in cases:
        templates.clear()
        terms.clear()
        cold.append(value(*case))
    warm = [value(*case) for case in cases for _ in range(2)][1::2]
    # at N = 2, a2 = 1 is also N - 1: one entry per distinct (form, a2, N, mu, point)
    assert len(templates) == len({(alpha[1], str(mu), p1 is P1, form, N) for alpha, mu, p1, form, N in cases})
    for case, c, w in zip(cases, cold, warm):
        assert w == c, case


def test_channel_entries_are_isolated_and_checked_on_a_miss(cold_channel_memos):
    # add_term on a returned function leaves the entry's rows as they were; a failing check raises as
    # before, on every call, and stores nothing in either memo
    templates, terms = cold_channel_memos
    f = super_basis_phi(MultiIndex(1, 1), H1, "μ1", P1, P2, "ω", CTX, 2)
    want = list(f._rows())
    f.add_term(GENS.mask_of("ζ1ζ2"), 0, 2, 1, 0.75)
    g = super_basis_phi(MultiIndex(0, 1), H2, "μ1", P1, P2, "ω", CTX, 2)
    assert list(g._rows()) == want != list(f._rows()) and len(templates) == 1
    templates.clear()
    terms.clear()
    even = GENS.generator("ζ1") * GENS.generator("ζ2")
    # (mu, omega, form): the mu-shift form's mu slot holds a combination, which the collision check skips
    failing = [("μ1", "ω", "spiral", "form must be one of"), (even, "ω", "mu-shift", "mu must be parity-odd")]
    failing += [("μ1", "ζ2", form, "generator collision") for form in BASIS_FORMS]
    failing += [("ζ1", "ω", form, "generator collision") for form in BASIS_FORMS if form != "mu-shift"]
    for _ in range(2):
        for mu, omega, form, match in failing:
            with pytest.raises(ValueError, match=match):
                super_basis_phi(MultiIndex(0, 1), H1, mu, P1, P2, omega, CTX, 2, form=form)
            assert templates == {} and terms == {}, (mu, omega, form)


def test_channel_entries_stay_within_their_bound(cold_channel_memos):
    from superkron.superfunc import _MEMO_LIMIT

    templates, _ = cold_channel_memos
    for a2 in range(_MEMO_LIMIT + 1):
        super_basis_phi(MultiIndex(0, a2), H1, None, P1, P2, "ω", CTX, 2, form="basis")
        assert len(templates) <= _MEMO_LIMIT == 1024
    assert len(templates) == 1


def test_channel_sums_and_super_basis_phi_share_entries(cold_channel_memos, monkeypatch):
    # one entry per (form, a2, N, slots) serves both routes: the channel sums compile their template into
    # the entry super_basis_phi made, and a later super_basis_phi at any a1 and hbar is a hit
    from superkron import rmatrix

    templates, _ = cold_channel_memos
    b = HeisenbergBasis(3)
    before = [super_basis_phi(MultiIndex(0, a2), H1, "μ1", P1, P2, "ω", CTX, 3, form="heat") for a2 in (0, 1)]
    made = list(templates.values())
    assert [e[2] for e in made] == [None, None]
    build_R(H1, "μ1", P1, P2, "ω", b, CTX, super=True, form="heat")
    assert list(templates.values())[:2] == made and len(templates) == 3
    assert all(isinstance(e[2], rmatrix._Template) for e in templates.values())
    built = []
    monkeypatch.setattr(rmatrix, "super_phi", lambda *args, **kwargs: built.append(args))
    after = [super_basis_phi(MultiIndex(2, a2), H2, "μ1", P1, P2, "ω", CTX, 3, form="heat") for a2 in (0, 1)]
    assert built == [] and len(templates) == 3
    assert [list(f._rows()) for f in after] == [list(f._rows()) for f in before]


@pytest.mark.parametrize("odd", [False, True])
def test_dressing_overflow_names_its_point(odd):
    # exp(c z12) of the a2 = 5 channels at N = 6 leaves the floating-point
    # range before any table does; the ordinary dressing and the odd
    # envelope both name c and z12
    ctx = EllipticContext(0.3 + 300j)
    p1, p2 = SuperPoint(0.1 - 70j, "ζ1"), SuperPoint(0.626 + 73.9j, "ζ2")
    with pytest.raises(OverflowError, match=r"exponential dressing .*\(c=5.23\d*j, z12=\(-0.526-143.9j\)\)"):
        build_r_classical(p1, p2, "ω", HeisenbergBasis(6), ctx, super=odd)


def test_residual_raises_its_first_failing_request():
    # the first operator sits at a parameter far from the cell, while the
    # fourth, at parameter h - h = 0, sits on a pole.  The residual's pass
    # reduces both modulus orders at every point, so it raises the pole
    h = 0.3 + 30j
    mu12 = GENS.generator("μ1") - GENS.generator("μ2")
    for N in (2, 6):
        b = HeisenbergBasis(N)
        with pytest.raises(PoleProximityError) as alone:
            build_R(0.0, mu12, P1, P2, "ω", b, CTX, super=True)
        with pytest.raises(PoleProximityError) as got:
            aybe_residual(aybe_factors((h, h), ("μ1", "μ2"), [P1, P2, P3], b, CTX, odd=True))
        assert str(got.value) == str(alone.value)
        # an aybe sample's one pass, whose first request holds both residuals'
        # kernel tables, raises what its first residual, the ordinary one, does
        with pytest.raises(PoleProximityError) as first:
            aybe_residual(aybe_factors((h, h), None, [P1, P2, P3], b, CTX))
        inputs = {"hbar1": [h.real, h.imag], "hbar2": [h.real, h.imag]}
        inputs.update({f"z{i}": [p.z.real, p.z.imag] for i, p in enumerate((P1, P2, P3), 1)})
        with pytest.raises(PoleProximityError) as merged:
            replay_sample("aybe", inputs, VerifyConfig(n=N, tau=CTX.tau, pole_radius=CTX.pole_radius))
        assert str(merged.value) == str(first.value) == str(alone.value)


def test_max_abs_keeps_nan():
    for blocks in ({1: 1.0, 2: math.nan}, {2: math.nan, 1: 1.0}):
        m = from_full(1, 1, {mask: np.array([[v]]) for mask, v in blocks.items()})
        assert math.isnan(m.max_abs())
    assert from_full(1, 1, {1: np.array([[-2.0]]), 2: np.array([[1.0]])}).max_abs() == 2.0
    assert SuperMatrix(1, 1).max_abs() == 0.0


def test_supercommutator_follows_the_operators_parity(rng):
    # a b - b a unless both are odd, then a b + b a, each summed in place
    # from a b as the plain brackets are; an empty operator counts as even
    even, odd = (0, 3), (1, 2, 7)
    for left, right in ((even, even), (even, odd), (odd, even), (odd, odd), (even, ()), ((), odd)):
        a, b = random_super_matrix(rng, masks=left), random_super_matrix(rng, masks=right)
        want = a @ b
        if left == right == odd:
            want += b @ a
        else:
            want -= b @ a
        got = supercommutator(a, b)
        assert list(got.blocks) == list(want.blocks), (left, right)
        assert all(got.blocks[m].tobytes() == x.tobytes() for m, x in want.blocks.items()), (left, right)
    mixed = random_super_matrix(rng, masks=(0, 1))
    for a, b in ((mixed, random_super_matrix(rng, masks=odd)), (random_super_matrix(rng, masks=even), mixed)):
        with pytest.raises(ValueError, match="one parity"):
            supercommutator(a, b)


# -- assembled operators ----------------------------------------------------------


def test_ordinary_R_matches_independent_channel_sum():
    N = 2
    b = HeisenbergBasis(N)
    got = dense(build_R(H1, None, P1, P2, "ω", b, CTX), 0)
    # rebuild with explicit matrix powers instead of the cached basis
    Q = np.diag([cmath.exp(TPI * k / N) for k in range(1, N + 1)])
    Lam = np.zeros((N, N), dtype=complex)
    for k in range(N):
        Lam[k, (k + 1) % N] = 1.0
    acc = np.zeros((N * N, N * N), dtype=complex)
    for a1, a2 in product(range(N), repeat=2):
        phase = cmath.exp(1j * math.pi * a1 * a2 / N)
        Ta = phase * np.linalg.matrix_power(Q, a1) @ np.linalg.matrix_power(Lam, a2)
        phase_neg = cmath.exp(1j * math.pi * a1 * a2 / N)
        Tneg = phase_neg * np.linalg.matrix_power(np.linalg.inv(Q), a1) @ np.linalg.matrix_power(
            np.linalg.inv(Lam), a2
        )
        acc += np.kron(Ta, Tneg) * basis_phi(MultiIndex(a1, a2), H1, Z12, CTX, N)
    assert np.abs(got - acc).max() <= 1e-12 * np.abs(acc).max()


@pytest.mark.parametrize("tau", [0.3 + 1.1j, 3.3 + 0.4j])
@pytest.mark.parametrize("N", [2, 3, 6])
def test_R_commutes_with_joint_clock_and_shift(N, tau):
    # the premise of the stored layout, checked apart from it: R summed
    # densely from np.kron(T_a, T_-a), ordinary and odd, commutes with
    # Q (x) Q and Lambda (x) Lambda, and build_R's representatives, expanded
    # over their orbits, reproduce it
    b, ctx = HeisenbergBasis(N), EllipticContext(tau)
    clock, shift = (np.kron(g, g) for g in (b.q_power(1), b.lam_power(1)))
    for odd in (False, True):
        want: dict[int, np.ndarray] = {}
        for alpha in b.canonical_indices():
            if odd:
                value = super_basis_phi(alpha, H1, "μ1", P1, P2, "ω", ctx, N).evaluate(P1.z, P2.z).items()
            else:
                value = ((0, basis_phi(alpha, H1, Z12, ctx, N)),)
            for mask, coeff in value:
                want[mask] = want.get(mask, 0.0) + coeff * np.kron(b.t(alpha), b.t(-alpha))
        scale = max(np.abs(x).max() for x in want.values())
        for x in want.values():
            for g in (clock, shift):
                assert np.abs(g @ x - x @ g).max() <= 1e-13 * scale, (odd, g is shift)
        got = build_R(H1, "μ1" if odd else None, P1, P2, "ω", b, ctx, super=odd)
        zero = np.zeros((b.N**2, b.N**2))
        for mask in set(want) | set(got.blocks):
            full = dense(got, mask) if mask in got.blocks else zero
            assert np.abs(full - want.get(mask, zero)).max() <= 1e-13 * scale, (odd, mask)


def test_ordinary_R_skew_symmetry():
    b = HeisenbergBasis(2)
    R = build_R(H1, None, P1, P2, "ω", b, CTX)
    Rswap = build_R(-H1, None, SuperPoint(P2.z, "ζ2"), SuperPoint(P1.z, "ζ1"), "ω", b, CTX)
    R21 = embed(Rswap, (2, 1), 2)
    assert np.abs(R.blocks[0] + R21.blocks[0]).max() <= 1e-12 * np.abs(R.blocks[0]).max()


@pytest.mark.parametrize("form", ["mu-shift", "basis", "heat"])
def test_super_R_forms_agree(form):
    b = HeisenbergBasis(2)
    ref = build_R(H1, "μ1", P1, P2, "ω", b, CTX, super=True, form="shift")
    got = build_R(H1, "μ1", P1, P2, "ω", b, CTX, super=True, form=form)
    assert (got - ref).max_abs() <= 1e-11 * max(ref.max_abs(), 1.0)


def test_super_R_parity_odd():
    b = HeisenbergBasis(2)
    assert block_parity(build_R(H1, "μ1", P1, P2, "ω", b, CTX, super=True)) == "odd"


def test_single_site_super_R_reduces_to_scalar():
    b1 = HeisenbergBasis(1)
    R1 = build_R(H1, "μ1", P1, P2, "ω", b1, CTX, super=True)
    scalar = super_phi(H1, "μ1", P1, P2, "ω", CTX).evaluate(P1.z, P2.z)
    assert rel((entry(R1, 0, 0) - scalar).max_abs(), scalar.max_abs()) <= ROUTE_TOL


def test_classical_limit_operator_structure():
    N = 2
    b = HeisenbergBasis(N)
    got = dense(build_r_classical(P1, P2, "ω", b, CTX), 0)
    acc = np.zeros((N * N, N * N), dtype=complex)
    for al in b.nonzero_indices():
        acc += np.kron(b.t(al), b.t(-al)) * basis_phi(al, 0.0, Z12, CTX, N)
    assert np.abs(got - acc).max() <= 1e-12 * np.abs(acc).max()


def test_associative_yang_baxter_residual():
    for N in (2, 3):
        b = HeisenbergBasis(N)
        res, scale = aybe_residual(aybe_factors((H1, H2), None, (P1, P2, P3), b, CTX))
        assert rel(res.max_abs(), scale) < 1e-11


def test_classical_yang_baxter_residual():
    for N in (2, 3):
        b = HeisenbergBasis(N)
        res, scale = cybe_residual(cybe_factors((P1, P2, P3), b, CTX))
        assert rel(res.max_abs(), scale) < 1e-11


def test_super_associative_yang_baxter_residual():
    b = HeisenbergBasis(2)
    res, scale = aybe_residual(aybe_factors((H1, H2), ("μ1", "μ2"), (P1, P2, P3), b, CTX, odd=True))
    assert rel(res.max_abs(), scale) < 1e-11


def test_super_classical_yang_baxter_residual():
    b = HeisenbergBasis(2)
    res, scale = cybe_residual(cybe_factors((P1, P2, P3), b, CTX, odd=True))
    assert rel(res.max_abs(), scale) < 1e-11


def test_yang_baxter_samples_at_n12_stay_small():
    # one aybe and one cybe sample at N = 12 pass at the default tolerance
    # within 64 MiB of traced allocations: a 3-site block holds 144 x 144
    # representatives, where one entry per charge-allowed position would be
    # 1728 x 144
    cfg = VerifyConfig(n=12, samples=1, suites=("aybe", "cybe"))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        reports = run_suites(cfg)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.suite for r in reports if r.passed] == ["cybe", "aybe"]
    assert peak < 64 * 2**20, peak
    assert seconds < 2.0, seconds


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("super_", [False, True])
def test_placed_aybe_products_match_dense_route(N, super_):
    # the three products of aybe_residual, from placed factors and from
    # dense embeddings of the same factors
    b = HeisenbergBasis(N)
    mu1, mu2 = (GENS.generator("μ1"), GENS.generator("μ2")) if super_ else (None, None)
    points = (P1, P2, P3)

    def products(place):
        got = []

        def factor(x, i, j):
            r = build_R(x[0], x[1], points[i], points[j], "ω", b, CTX, super=super_)
            return place(r, (i + 1, j + 1))

        def mul(p, q):
            got.append(p @ q)
            return got[-1]

        three_term(factor, (H1, mu1), (H2, mu2), mul=mul, size=SuperMatrix.max_abs)
        return got

    placed = products(SuperMatrix.placed)
    dense = products(lambda r, sites: embed(r, sites, 3))
    assert len(placed) == len(dense) == 3
    for got, want in zip(placed, dense):
        assert set(got.blocks) == set(want.blocks)
        assert (got - want).max_abs() <= 1e-14 * want.max_abs()


def test_single_site_super_aybe_equals_scalar_identity():
    b1 = HeisenbergBasis(1)
    res, _ = aybe_residual(aybe_factors((H1, H2), ("μ1", "μ2"), (P1, P2, P3), b1, CTX, odd=True))
    fres, scale = fay_residual((H1, H2), ("μ1", "μ2"), (P1, P2, P3), "ω", CTX)
    # both residuals are rounding noise of products of size scale
    assert rel((entry(res, 0, 0) - fres).max_abs(), scale) <= ROUTE_TOL


def test_first_product_expands_over_channel_pairs():
    # R12 R23 agrees with the double channel sum carrying the structure
    # constant of the combined basis matrices
    N = 2
    b = HeisenbergBasis(N)
    R12 = embed(build_R(H1, "μ1", P1, P2, "ω", b, CTX, super=True), (1, 2), 3)
    R23 = embed(build_R(H2, "μ2", P2, P3, "ω", b, CTX, super=True), (2, 3), 3)
    prod = R12 @ R23
    full: dict[int, np.ndarray] = {}
    for al in b.canonical_indices():
        for be in b.canonical_indices():
            pref = kappa(-al, be, N)
            T3 = np.kron(np.kron(b.t(al), b.t(be - al)), b.t(-be))
            va = super_basis_phi(al, H1, "μ1", P1, P2, "ω", CTX, N).evaluate(P1.z, P2.z)
            vb = super_basis_phi(be, H2, "μ2", P2, P3, "ω", CTX, N).evaluate(P2.z, P3.z)
            for mask, coeff in (va * vb).items():
                full[mask] = full.get(mask, 0.0) + pref * coeff * T3
    expansion = from_full(3, N, full)
    assert (prod - expansion).max_abs() <= 1e-11 * max(prod.max_abs(), 1.0)


def test_coincident_points_hit_pole():
    b = HeisenbergBasis(2)
    with pytest.raises(PoleProximityError):
        cybe_residual(cybe_factors((P1, SuperPoint(P1.z, "ζ2"), P3), b, CTX))
