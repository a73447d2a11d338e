"""Finite Heisenberg basis, tensor blocks, and Yang-Baxter residuals."""

import cmath
import math
from itertools import product

import numpy as np
import pytest
from helpers import dense, dense_matmul, entry, phi

from superkron.elliptic import EllipticContext, PoleProximityError
from superkron.grassmann import default_generators, parity
from superkron.rmatrix import (
    BASIS_FORMS,
    HeisenbergBasis,
    MultiIndex,
    SuperMatrix,
    anticommutator,
    aybe_residual,
    basis_phi,
    build_R,
    build_r_classical,
    channel_shift,
    channel_sums,
    commutator,
    cybe_residual,
    embed,
    kappa,
    super_basis_phi,
)
from superkron.suites import VerifyConfig, replay_sample
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
    out = SuperMatrix(a.n_sites, a.site_dim)
    dim = a.dim
    for i in range(dim):
        for j in range(dim):
            acc = GENS.zero()
            for k in range(dim):
                acc = acc + entry(a, i, k) * entry(b, k, j)
            for mask, coeff in acc.items():
                hole = np.zeros((dim, dim), dtype=complex)
                hole[i, j] = coeff
                out.add_block(mask, hole)
    return out


def random_super_matrix(rng, n_sites=2, site_dim=2, masks=(0, 1, 2, 3, 6)):
    """Random values on the charge pattern.

    Two sites by default: a charge-conserving 1-site matrix is diagonal, so
    1-site operands commute and cannot show an ordering mistake.
    """
    m = SuperMatrix(n_sites, site_dim)
    shape = (site_dim**n_sites, site_dim ** (n_sites - 1))
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
    # (zeta1 A)(zeta2 B) = -zeta1 zeta2 (A @ B) requires the crossing sign
    d = 2
    A = dense(random_super_matrix(rng, masks=(0,)), 0)
    B = dense(random_super_matrix(rng, masks=(0,)), 0)
    assert np.abs(A @ B - B @ A).max() > 0.1
    ma = SuperMatrix(2, d, {GENS.mask_of("ζ1"): A})
    mb = SuperMatrix(2, d, {GENS.mask_of("ζ2"): B})
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
    left = SuperMatrix(2, m.site_dim, {GENS.mask_of("ζ3"): 2.0 * np.eye(m.dim)}) @ m
    for i in range(m.dim):
        for j in range(m.dim):
            want = z3 * 2.0 * entry(m, i, j)
            assert (entry(left, i, j) - want).max_abs() < 1e-12
    for mask in m.blocks:
        assert np.abs(dense(m + m + m, mask) - 3.0 * dense(m, mask)).max() < 1e-12


def test_entry_and_coefficient_matrix(rng):
    m = random_super_matrix(rng, masks=(0, 5))
    for i, j in product(range(m.dim), repeat=2):
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
    full[0, 0] = 1.0  # outputs (0, 0), inputs (0, 0): conserves
    m = SuperMatrix(2, d, {0: full})
    assert m.blocks[0].shape == (d * d, d)
    full[0, 1] = 1e-300  # outputs (0, 0), inputs (0, 1): does not
    with pytest.raises(ValueError):
        SuperMatrix(2, d, {0: full})
    with pytest.raises(ValueError):
        m.add_block(GENS.mask_of("ω"), full)
    full[0, 1] = np.nan  # a NaN off the pattern is not zero either
    with pytest.raises(ValueError):
        m.add_block(0, full)
    assert list(m.blocks) == [0] and entry(m, 0, 1).max_abs() == 0.0


def block_parity(m):
    return parity(mask for mask, a in m.blocks.items() if a.any())


def test_parity_of_blocks():
    d = 2
    even = SuperMatrix(1, d, {0: np.eye(d), GENS.mask_of("ζ1ζ2"): np.eye(d)})
    odd = SuperMatrix(1, d, {GENS.mask_of("ω"): np.eye(d)})
    assert block_parity(even) == "even"
    assert block_parity(odd) == "odd"
    mixed = even + odd
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
    m = SuperMatrix(2, d, {0: np.eye(d * d)})
    big = embed(m, (1, 3), 3)
    assert np.abs(dense(big, 0) - np.eye(d**3)).max() == 0.0


# the placements aybe (12 23, 31 12, 23 31) and cybe (12 13, 12 23, 13 23)
# multiply, which share one site, a 1-site factor with a 3-site one, which
# share one, and a 3-site factor with a 2-site one, which share two; the test
# adds their reverses and, appended after, two that share all three sites
PLACEMENTS = [
    ((1, 2), (2, 3)), ((3, 1), (1, 2)), ((2, 3), (3, 1)),
    ((1, 2), (1, 3)), ((1, 3), (2, 3)),
    ((2,), (3, 1, 2)), ((3, 1, 2), (2, 3)),
]


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize(
    "sites",
    PLACEMENTS + [(sb, sa) for sa, sb in PLACEMENTS] + [((1, 2, 3), (3, 1, 2)), ((2, 1, 3), (2, 3, 1))],
)
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
        m.placed((1, 2)) + m.placed((2, 3))
    with pytest.raises(ValueError):
        m.placed((1, 2)) + m.placed((2, 1))
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
    total, diff = a + b, a - b
    acc = a + b
    acc -= a
    acc += b
    for mask in (0, 1, 3, 6):
        x, y = a.blocks.get(mask, zero), b.blocks.get(mask, zero)
        assert np.array_equal(total.blocks[mask], x + y)
        assert np.array_equal(diff.blocks[mask], x - y)
        assert np.array_equal(acc.blocks[mask], x + y - x + y)
    for m, blocks in zip((a, b), saved):
        assert all(np.array_equal(m.blocks[mask], arr) for mask, arr in blocks.items())
    with pytest.raises(ValueError):
        acc += a.placed((2, 3))


def _per_channel_sum(b, indices, hbar, mu, form):
    """The parent's sum: a fresh channel function per channel, added block by block."""
    N = b.N
    want = SuperMatrix(2, N)
    for alpha in indices:
        if form is None:
            value = ((0, basis_phi(alpha, hbar, Z12, CTX, N)),)
        else:
            value = super_basis_phi(alpha, hbar, mu, P1, P2, "ω", CTX, N, form=form).evaluate(P1.z, P2.z).items()
        for mask, coeff in value:
            want.add_block(mask, coeff * np.kron(b.t(alpha), b.t(-alpha)))
    return want


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
    assert not any(x.flags.writeable for x in b._gather)
    one = np.zeros((1, b.N, b.N), dtype=complex)
    one[0, alpha.a1, alpha.a2] = 1.0
    pair = SuperMatrix(2, b.N)
    pair.blocks[0] = b.channel_blocks(one)[0]
    assert np.array_equal(dense(pair, 0), np.kron(b.t(alpha), b.t(-alpha)))


def test_channel_functions_are_built_once_per_a2(monkeypatch):
    from superkron import rmatrix

    built = []

    def counting(alpha, *args, **kwargs):
        built.append(alpha)
        return super_basis_phi(alpha, *args, **kwargs)

    monkeypatch.setattr(rmatrix, "super_basis_phi", counting)
    monkeypatch.setattr(rmatrix, "_TEMPLATES", {})
    b = HeisenbergBasis(3)
    build_R(H1, "μ1", P1, P2, "ω", b, CTX, super=True)
    assert built == [MultiIndex(0, 0), MultiIndex(0, 1), MultiIndex(0, 2)]
    built.clear()
    build_r_classical(P1, P2, "ω", b, CTX, super=True)
    assert built == [MultiIndex(0, 1), MultiIndex(0, 2), MultiIndex(1, 0)]
    built.clear()
    build_R(H1, None, P1, P2, "ω", b, CTX)
    assert built == []
    # compiled once: another parameter, points or modulus with the same
    # slots builds nothing; other slots build their own
    build_R(H2, "μ1", SuperPoint(0.1, "ζ1"), SuperPoint(0.3j, "ζ2"), "ω", b, EllipticContext(3.3 + 0.4j), super=True)
    cybe_residual([P1, P2, P3], "ω", b, CTX, super=True)
    assert built == [MultiIndex(0, 1), MultiIndex(0, 2), MultiIndex(1, 0)] * 2
    # N per slot set: the odd quantum one and the classical ones of three point pairs
    assert len(rmatrix._TEMPLATES) == 3 + 3 * 3


def test_channel_sums_make_one_request_per_table(monkeypatch):
    # every channel list goes to the batch, whatever its length; a pass
    # makes one request per table size and modulus order for all its
    # operators, and an operator without channels makes none
    from superkron import batch

    elliptic_tables = batch.elliptic_tables
    calls = []

    def counting(hbars, *args):
        calls.append(len(hbars))
        return elliptic_tables(hbars, *args)

    monkeypatch.setattr(batch, "elliptic_tables", counting)
    for N, want in ((1, [1, 1, 1]), (3, [9, 9, 9, 8, 8]), (4, [16, 16, 16, 15, 15])):
        b = HeisenbergBasis(N)
        build_R(H1, "μ1", P1, P2, "ω", b, CTX, super=True)
        build_R(H1, None, P1, P2, "ω", b, CTX)
        build_r_classical(P1, P2, "ω", b, CTX, super=True)
        assert calls == want, N
        calls.clear()
    for N, want in ((1, [6, 6, 6]), (2, [24, 24, 24, 9, 9, 9]), (4, [96, 96, 96, 45, 45, 45])):
        b = HeisenbergBasis(N)
        aybe_residual((H1, H2), ("μ1", "μ2"), [P1, P2, P3], "ω", b, CTX, super=True)
        aybe_residual((H1, H2), None, [P1, P2, P3], "ω", b, CTX)
        cybe_residual([P1, P2, P3], "ω", b, CTX, super=True)
        cybe_residual([P1, P2, P3], "ω", b, CTX)
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
    # the first classical one) reads the odd tables and the others request
    # their own; at N = 1 the classical operator has no channel and is empty
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
    # basis and heat forms in one pass, with one request per table: the
    # kernel tables of the odd factors and the basis form, the heat form's
    # (one more argument derivative), and the modulus-derivative tables.
    # The ordinary factors read the odd ones' tables and the first odd factor
    # is the shift-form reference.  A cybe sample makes one pass, two requests
    from superkron import batch, rmatrix, suites

    elliptic_tables, one_pass = batch.elliptic_tables, rmatrix.channel_sums
    passes, requests = [], []

    def counting_pass(ops, *args):
        passes.append(len(ops))
        return one_pass(ops, *args)

    def counting_tables(hbars, z, ctx, max_j, max_k, dtau, reduce):
        requests.append((len(hbars), dtau, max_j, max_k))
        return elliptic_tables(hbars, z, ctx, max_j, max_k, dtau, reduce)

    monkeypatch.setattr(batch, "elliptic_tables", counting_tables)
    monkeypatch.setattr(rmatrix, "channel_sums", counting_pass)
    monkeypatch.setattr(suites, "channel_sums", counting_pass)
    cfg = suites.VerifyConfig(n=6)
    inputs = suites._sample_three_points(np.random.default_rng(7), cfg)
    suites.replay_sample("aybe", inputs, cfg)
    assert passes == [6 + 6 + 2]
    assert requests == [(7 * 36, 0, 2, 0), (36, 0, 2, 1), (7 * 36, 1, 0, 0)]
    passes.clear()
    requests.clear()
    suites.replay_sample("cybe", inputs, cfg)
    assert passes == [3 + 3]
    assert requests == [(3 * 35, 0, 1, 0), (3 * 35, 1, 0, 0)]


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
    # the first operator's modulus-derivative series (unreduced) overflows,
    # while the fourth, at parameter h - h = 0, sits on a pole.  Built alone
    # the first raises the series error; the residual's pass makes its
    # reduced request first, which holds the pole, so it raises that
    from superkron.elliptic import SeriesTruncationError

    h = 0.3 + 30j
    mu12 = GENS.generator("μ1") - GENS.generator("μ2")
    for N in (2, 6):
        b = HeisenbergBasis(N)
        with pytest.raises(SeriesTruncationError, match="exceeds the floating-point range"):
            build_R(h, "μ1", P1, P2, "ω", b, CTX, super=True)
        with pytest.raises(PoleProximityError) as alone:
            build_R(0.0, mu12, P1, P2, "ω", b, CTX, super=True)
        with pytest.raises(PoleProximityError) as got:
            aybe_residual((h, h), ("μ1", "μ2"), [P1, P2, P3], "ω", b, CTX, super=True)
        assert str(got.value) == str(alone.value)
        # an aybe sample's one pass, whose first request holds both residuals'
        # kernel tables, raises what its first residual, the ordinary one, does
        with pytest.raises(PoleProximityError) as first:
            aybe_residual((h, h), None, [P1, P2, P3], "ω", b, CTX)
        inputs = {"hbar1": [h.real, h.imag], "hbar2": [h.real, h.imag]}
        inputs.update({f"z{i}": [p.z.real, p.z.imag] for i, p in enumerate((P1, P2, P3), 1)})
        with pytest.raises(PoleProximityError) as merged:
            replay_sample("aybe", inputs, VerifyConfig(n=N, tau=CTX.tau, pole_radius=CTX.pole_radius))
        assert str(merged.value) == str(first.value) == str(alone.value)


def test_max_abs_keeps_nan():
    for blocks in ({1: 1.0, 2: math.nan}, {2: math.nan, 1: 1.0}):
        m = SuperMatrix(1, 1, {mask: np.array([[v]]) for mask, v in blocks.items()})
        assert math.isnan(m.max_abs())
    assert SuperMatrix(1, 1, {1: np.array([[-2.0]]), 2: np.array([[1.0]])}).max_abs() == 2.0
    assert SuperMatrix(1, 1).max_abs() == 0.0


def test_commutator_and_anticommutator(rng):
    a = random_super_matrix(rng, masks=(0, 3))
    b = random_super_matrix(rng, masks=(0, 5))
    c = commutator(a, b)
    want = a @ b - b @ a
    assert (c - want).max_abs() < 1e-12
    ac = anticommutator(a, b)
    want2 = a @ b + b @ a
    assert (ac - want2).max_abs() < 1e-12


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
        res, scale = aybe_residual((H1, H2), None, (P1, P2, P3), "ω", b, CTX)
        assert rel(res.max_abs(), scale) < 1e-11


def test_classical_yang_baxter_residual():
    for N in (2, 3):
        b = HeisenbergBasis(N)
        res, scale = cybe_residual((P1, P2, P3), "ω", b, CTX)
        assert rel(res.max_abs(), scale) < 1e-11


def test_super_associative_yang_baxter_residual():
    b = HeisenbergBasis(2)
    res, scale = aybe_residual((H1, H2), ("μ1", "μ2"), (P1, P2, P3), "ω", b, CTX, super=True)
    assert rel(res.max_abs(), scale) < 1e-11


def test_super_classical_yang_baxter_residual():
    b = HeisenbergBasis(2)
    res, scale = cybe_residual((P1, P2, P3), "ω", b, CTX, super=True)
    assert rel(res.max_abs(), scale) < 1e-11


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
    res, _ = aybe_residual((H1, H2), ("μ1", "μ2"), (P1, P2, P3), "ω", b1, CTX, super=True)
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
    expansion = SuperMatrix(3, N)
    for al in b.canonical_indices():
        for be in b.canonical_indices():
            pref = kappa(-al, be, N)
            T3 = np.kron(np.kron(b.t(al), b.t(be - al)), b.t(-be))
            va = super_basis_phi(al, H1, "μ1", P1, P2, "ω", CTX, N).evaluate(P1.z, P2.z)
            vb = super_basis_phi(be, H2, "μ2", P2, P3, "ω", CTX, N).evaluate(P2.z, P3.z)
            for mask, coeff in (va * vb).items():
                expansion.add_block(mask, pref * coeff * T3)
    assert (prod - expansion).max_abs() <= 1e-11 * max(prod.max_abs(), 1.0)


def test_coincident_points_hit_pole():
    b = HeisenbergBasis(2)
    with pytest.raises(PoleProximityError):
        cybe_residual((P1, SuperPoint(P1.z, "ζ2"), P3), "ω", b, CTX)
