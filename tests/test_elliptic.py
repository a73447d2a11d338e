"""Numerical checks for the theta kernel and the two-variable pole kernel.

Reference values were frozen from an independent arbitrary-precision
evaluation (mpmath's jtheta plus high-order numerical differentiation)
and are trusted to all printed digits.
"""

import cmath
import math
import re
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import phi

from superkron import batch, elliptic
from superkron.batch import elliptic_tables
from superkron.elliptic import (
    KINDS,
    EllipticContext,
    PoleProximityError,
    SeriesTruncationError,
    kernel_derivs,
    lattice_distance,
    lattice_reduce,
    pair_count,
    phi_derivs,
    phi_rat,
    phi_tau_derivs,
    phi_trig,
    theta,
    theta_stack,
)

TAU1 = 0.3 + 1.1j
TAU2 = -0.4 + 0.75j
CTX1 = EllipticContext(TAU1)
CTX2 = EllipticContext(TAU2)
TWO_PI_I = 2j * math.pi

# (ctx, z, dz, dtau) -> frozen reference value
THETA_REFERENCE = [
    (CTX1, 0.31 + 0.17j, 0, 0, -0.7136294688414205 - 0.4430461646360654j),
    (CTX1, 0.31 + 0.17j, 1, 0, -1.9311824155134711 + 0.7792423560963571j),
    (CTX1, 0.31 + 0.17j, 2, 0, 6.931365642534624 + 4.2603178484302715j),
    (CTX1, 0.31 + 0.17j, 0, 1, 0.3390253223601529 - 0.5515805521933583j),
    (CTX1, 0.0, 1, 0, -2.57931752209351 - 0.6114974973291805j),
    (CTX2, -0.22 + 0.41j, 0, 0, 1.0327567563546134 - 1.6152356449578684j),
    (CTX2, -0.22 + 0.41j, 1, 0, -4.500259229138008 - 3.4562072010120786j),
]

# (ctx, hbar, z, j, k, dtau) -> frozen reference value
PHI_REFERENCE = [
    (CTX1, 0.21 - 0.33j, 0.4 + 0.12j, 0, 0, 0, 1.668311493963769 + 1.9894655813084003j),
    (CTX2, 0.21 - 0.33j, 0.4 + 0.12j, 0, 0, 0, 1.8861881899684774 + 1.9566616948697182j),
    (CTX1, 0.21 - 0.33j, 0.4 + 0.12j, 1, 1, 0, 0.42741039338473935 + 0.7918564702619566j),
    (CTX1, 0.21 - 0.33j, 0.4 + 0.12j, 2, 0, 0, -33.37260761893537 + 9.101639372285657j),
    (CTX1, 0.21 - 0.33j, 0.4 + 0.12j, 0, 0, 1, 0.1260278714614908 - 0.06802447683603279j),
]


def theta_oracle(z, tau, dz=0, dtau=0):
    """Plain unaccelerated sum over a wide symmetric index window."""
    total = 0j
    for n in range(-60, 60):
        half = n + 0.5
        term = cmath.exp(1j * math.pi * tau * half * half + TWO_PI_I * (z + 0.5) * half)
        total += term * (TWO_PI_I * half) ** dz * (1j * math.pi * half * half) ** dtau
    return total


def cell_points(rng, count, tau):
    out = []
    for _ in range(count):
        a, b = rng.uniform(0.1, 0.9, size=2)
        out.append(a + b * tau)
    return out


# -- theta ------------------------------------------------------------------


def test_theta_frozen_reference_values():
    for ctx, z, dz, dtau, want in THETA_REFERENCE:
        got = theta(z, ctx, dz=dz, dtau=dtau)
        assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


def test_theta_matches_plain_sum(rng):
    for ctx in (CTX1, CTX2):
        for z in cell_points(rng, 25, ctx.tau):
            for dz, dtau in ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)):
                want = theta_oracle(z, ctx.tau, dz, dtau)
                got = theta(z, ctx, dz=dz, dtau=dtau)
                assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_theta_is_odd(rng):
    for z in cell_points(rng, 10, TAU1):
        assert abs(theta(z, CTX1) + theta(-z, CTX1)) < 1e-13
    assert abs(theta(0.0, CTX1)) < 1e-14


def test_theta_quasi_periodicity(rng):
    for z in cell_points(rng, 10, TAU1):
        v = theta(z, CTX1)
        assert abs(theta(z + 1, CTX1) + v) <= 1e-12 * abs(v)
        mult = -cmath.exp(-1j * math.pi * TAU1 - TWO_PI_I * z)
        assert abs(theta(z + TAU1, CTX1) - mult * v) <= 1e-12 * abs(mult * v)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.floats(0.1, 0.9),
    st.floats(0.1, 0.9),
)
def test_theta_general_lattice_shift(m, n, a, b):
    z = a + b * TAU1
    v = theta(z, CTX1)
    mult = (-1) ** (m + n) * cmath.exp(-1j * math.pi * TAU1 * n * n - TWO_PI_I * n * z)
    got = theta(z + m + n * TAU1, CTX1)
    assert abs(got - mult * v) <= 1e-11 * max(abs(mult * v), 1.0)


def test_theta_heat_equation(rng):
    # modulus derivative ties to the second argument derivative
    for ctx in (CTX1, CTX2):
        for z in cell_points(rng, 10, ctx.tau):
            lhs = 4j * math.pi * theta(z, ctx, dtau=1)
            rhs = theta(z, ctx, dz=2)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_theta_stack_consistent():
    stack = theta_stack(0.31 + 0.17j, CTX1, max_dz=3)
    for dz in range(4):
        assert stack[dz] == theta(0.31 + 0.17j, CTX1, dz=dz)


# the six moduli of the benchmark's kernel sweep, reduced and not
SWEEP_MODULI = (0.3 + 1.1j, 0.3 + 0.25j, -0.45 + 0.6j, 0.1 + 2.5j, 3.3 + 0.4j, 5 + 0.05j)
# and the modulus whose channel parameters lie far from the real axis (ROADMAP item 1)
GEOMETRY_MODULI = SWEEP_MODULI + (0.3 + 60j,)


def geometry_points(tau):
    """Points for the batch's lattice geometry: reduced ones, the same shifted by up to two periods,
    zeros of either sign, and points whose lattice coordinates or distances meet half-integer ties."""
    rng = np.random.default_rng(41)
    reduced = [lattice_reduce(w, tau)[0] for w in cell_points(rng, 8, tau)] + [0j]
    shifted = [w + int(rng.integers(-2, 3)) + int(rng.integers(-2, 3)) * tau for w in reduced]
    zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    ties = [complex(x, 0.0) for x in (0.5, -0.5, 1.5, 2.5)]
    ties += [complex(x + y * tau.real, y * tau.imag) for x, y in ((0.5, 0.5), (-1.5, 0.5), (2.5, -0.5), (0.5, 1.5))]
    return reduced + shifted + zeros + ties


def summable(z, tau):
    try:
        pair_count(z, tau)
    except SeriesTruncationError:
        return False
    return True


def bits(stack) -> bytes:
    """The bytes of a theta stack, a tuple of Python complex numbers, as a complex array."""
    return np.array(stack, dtype=np.complex128).tobytes()


def theta_stack_reference(z, ctx, max_dz=0, dtau=0):
    """The series loop of theta_stack, on numpy array elements, over pair_count pairs."""
    z = complex(z)
    tau = ctx.tau
    totals = np.zeros(max_dz + 1, dtype=np.complex128)
    for p in range(pair_count(z, tau)):
        n = p + 0.5
        for sgn in (1.0, -1.0):
            f = sgn * n
            base = cmath.exp(1j * math.pi * (tau * f * f + 2.0 * (z + 0.5) * f))
            if dtau:
                base *= (1j * math.pi * f * f) ** dtau
            fac = 1.0 + 0j
            for d in range(max_dz + 1):
                totals[d] += base * fac
                fac *= TWO_PI_I * f
    return totals


def reciprocal_derivs_reference(f):
    """The Leibniz recursion for the derivatives of 1/f, on numpy array elements."""
    r = np.zeros(f.shape, dtype=np.complex128)
    r[0] = 1.0 / f[0]
    for m in range(1, len(f)):
        acc = 0j
        for k in range(1, m + 1):
            acc += comb(m, k) * f[k] * r[m - k]
        r[m] = -r[0] * acc
    return r


def reciprocal_dot_reference(f_dot, r):
    """The modulus-derivative stack of 1/f, -(f_dot r) r, on numpy array elements."""
    g = np.zeros(f_dot.shape, dtype=np.complex128)
    for s in range(len(f_dot)):
        g[s] = sum(comb(s, i) * f_dot[i] * r[s - i] for i in range(s + 1))
    out = np.zeros(f_dot.shape, dtype=np.complex128)
    for p in range(len(f_dot)):
        out[p] = -sum(comb(p, s) * g[s] * r[p - s] for s in range(p + 1))
    return out


def inner_table_reference(hbar, z, ctx, max_j, max_k):
    """The unreduced kernel table's Leibniz sums, on numpy array elements."""
    a = theta_stack_reference(hbar + z, ctx, max_j + max_k)
    u = reciprocal_derivs_reference(theta_stack_reference(hbar, ctx, max_j))
    v = reciprocal_derivs_reference(theta_stack_reference(z, ctx, max_k))
    prime0 = complex(theta_stack_reference(0.0, ctx, 1)[1])
    out = np.zeros((max_j + 1, max_k + 1), dtype=np.complex128)
    for j in range(max_j + 1):
        for k in range(max_k + 1):
            acc = 0j
            for p in range(j + 1):
                for q in range(k + 1):
                    acc += comb(j, p) * comb(k, q) * a[p + q] * u[j - p] * v[k - q]
            out[j, k] = prime0 * acc
    return out


def restored_reference(inner, hbar, z_red, n_z, n_h):
    """The lattice multiplier sums of a reduced table, on numpy array elements."""
    envelope = cmath.exp(-TWO_PI_I * (n_z * hbar + n_h * z_red))
    c_z, c_h = -TWO_PI_I * n_z, -TWO_PI_I * n_h
    out = np.zeros(inner.shape, dtype=np.complex128)
    for j in range(inner.shape[0]):
        for k in range(inner.shape[1]):
            acc = 0j
            for i in range(j + 1):
                for l in range(k + 1):
                    acc += comb(j, i) * c_z ** (j - i) * comb(k, l) * c_h ** (k - l) * inner[i, l]
            out[j, k] = envelope * acc
    return out


def phi_derivs_reference(hbar, z, ctx, max_j, max_k, reduce):
    """phi_derivs' table and lattice multiplier sums, on numpy array elements."""
    if not reduce:
        return inner_table_reference(hbar, z, ctx, max_j, max_k)
    z_red, _, n_z = lattice_reduce(z, ctx.tau)
    h_red, _, n_h = lattice_reduce(hbar, ctx.tau)
    inner = inner_table_reference(h_red, z_red, ctx, max_j, max_k)
    if n_z == 0 and n_h == 0:
        return inner
    return restored_reference(inner, hbar, z_red, n_z, n_h)


def phi_tau_derivs_reference(hbar, z, ctx, max_j, max_k, reduce=False):
    """phi_tau_derivs' Leibniz sums, and where reduce its chain term and lattice multiplier sums, on numpy
    array elements."""
    z_red, _, n_z = lattice_reduce(z, ctx.tau)
    h_red, _, n_h = lattice_reduce(hbar, ctx.tau)
    if reduce and (n_z or n_h):
        inner = phi_tau_derivs_reference(h_red, z_red, ctx, max_j, max_k)
        plain = inner_table_reference(h_red, z_red, ctx, max_j + 1, max_k + 1)
        for j in range(max_j + 1):
            for k in range(max_k + 1):
                inner[j, k] = (inner[j, k] + TWO_PI_I * n_h * n_z * plain[j, k] - n_h * plain[j + 1, k]
                               - n_z * plain[j, k + 1])
        return restored_reference(inner, hbar, z_red, n_z, n_h)
    if reduce:
        hbar, z = h_red, z_red
    top = max_j + max_k
    a, a_dot = (theta_stack_reference(hbar + z, ctx, top, dtau) for dtau in (0, 1))
    u = reciprocal_derivs_reference(theta_stack_reference(hbar, ctx, max_j))
    u_dot = reciprocal_dot_reference(theta_stack_reference(hbar, ctx, max_j, 1), u)
    v = reciprocal_derivs_reference(theta_stack_reference(z, ctx, max_k))
    v_dot = reciprocal_dot_reference(theta_stack_reference(z, ctx, max_k, 1), v)
    prime0, prime0_dot = (complex(theta_stack_reference(0.0, ctx, 1, dtau)[1]) for dtau in (0, 1))
    out = np.zeros((max_j + 1, max_k + 1), dtype=np.complex128)
    for j in range(max_j + 1):
        for k in range(max_k + 1):
            inner = 0j
            dot = 0j
            for p in range(j + 1):
                for q in range(k + 1):
                    c = comb(j, p) * comb(k, q)
                    inner += c * a[p + q] * u[j - p] * v[k - q]
                    dot += c * (a_dot[p + q] * u[j - p] * v[k - q] + a[p + q] * u_dot[j - p] * v[k - q]
                                + a[p + q] * u[j - p] * v_dot[k - q])
            out[j, k] = prime0_dot * inner + prime0 * dot
    return out


@pytest.mark.parametrize("tau", SWEEP_MODULI)
def test_theta_stack_bitwise_equals_reference_loop(tau):
    rng = np.random.default_rng(SWEEP_MODULI.index(tau))
    zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    cell = cell_points(rng, 6, tau)
    # unreduced: shifted by up to two periods either way
    unreduced = [w + int(rng.integers(-2, 3)) + int(rng.integers(-2, 3)) * tau for w in cell]
    ctx = EllipticContext(tau)
    keys = [(complex(z), max_dz, dtau) for z in zeros + cell + unreduced for max_dz in range(6) for dtau in (0, 1)]
    for z, max_dz, dtau in keys:
        want = theta_stack_reference(z, ctx, max_dz, dtau).tobytes()
        # a fresh context sums, the shared one may answer from its memo
        assert bits(theta_stack(z, EllipticContext(tau), max_dz, dtau)) == want
        assert bits(theta_stack(z, ctx, max_dz, dtau)) == want


def table_points(tau):
    """(hbar, z) pairs for the kernel tables: reduced points, the same shifted by up to two periods,
    and points with a zero of either sign in one coordinate."""
    rng = np.random.default_rng(43)
    reduced = [lattice_reduce(w, tau)[0] for w in cell_points(rng, 8, tau)]
    shifted = [w + int(rng.integers(-2, 3)) + int(rng.integers(-2, 3)) * tau for w in reduced]
    zeros = [complex(x, y) for zero in (0.0, -0.0) for x, y in ((zero, 0.4 * tau.imag), (0.3, zero))]
    points = reduced + shifted + zeros
    return list(zip(points, points[3:] + points[:3]))


@pytest.mark.parametrize("tau", GEOMETRY_MODULI + (complex(0.0, 1.1), complex(-0.0, 1.1)))
def test_tables_bitwise_equal_reference_loops(tau):
    # the kernel tables sum on Python numbers what the reference loops sum
    # on numpy array elements, to the bit; the two signed-zero moduli run one
    # after the other, so a constant cached for one cannot serve the other
    ctx = EllipticContext(tau)
    compared = 0
    for h, z in table_points(tau):
        for max_j, max_k in ((0, 0), (1, 1), (2, 1), (3, 3)):
            for reduce in (True, False):
                try:
                    got = phi_derivs(h, z, ctx, max_j, max_k, reduce=reduce)
                except (SeriesTruncationError, PoleProximityError, OverflowError):
                    continue
                assert got.tobytes() == phi_derivs_reference(h, z, ctx, max_j, max_k, reduce).tobytes()
                compared += 1
        for max_j, max_k in ((0, 0), (1, 0), (1, 1)):
            for reduce in (True, False):
                try:
                    got = phi_tau_derivs(h, z, ctx, max_j, max_k, reduce)
                except (SeriesTruncationError, PoleProximityError, OverflowError):
                    continue
                assert got.tobytes() == phi_tau_derivs_reference(h, z, ctx, max_j, max_k, reduce).tobytes()
                compared += 1
    assert compared >= 150
    # the per-frequency constants are cached by tau's bits: this modulus's own, not the other zero's
    theta_stack(0.1 + 0.2j, ctx)
    n = pair_count(0.1 + 0.2j, tau)
    want = [tau * f * f for p in range(n) for f in (p + 0.5, -(p + 0.5))]
    assert np.array(elliptic._squares(tau, math.copysign(1.0, tau.real), n)).tobytes() == np.array(want).tobytes()


def test_pair_count_bounds_the_first_omitted_terms():
    # pair_count's stated bound: for every order up to seven, counting a
    # modulus derivative as two, the first omitted pair lies below the
    # series tolerance times the largest summed term of its order (or one)
    for tau in SWEEP_MODULI + (0.2 + 0.01j, 1.0 + 40j):
        t = tau.imag
        # turnarounds whose largest term stays in the floating-point range
        for u in (x for x in (0.0, 0.3, 0.5, 0.99, 1.0, 2.5, 7.0, 30.0) if math.pi * x * x * t < 700):
            for sign in (1.0, -1.0):
                y = sign * u * t
                n = pair_count(complex(0.1, y), tau)
                assert pair_count(complex(-0.4, y), tau) == n

                def log_term(f, d, dtau):
                    return -math.pi * (t * f * f + 2 * y * f) + d * math.log(2 * math.pi * abs(f)) + dtau * math.log(
                        math.pi * f * f)

                summed = [s * (p + 0.5) for p in range(n) for s in (1, -1)]
                for dtau in (0, 1):
                    for d in range(8 - 2 * dtau):
                        peak = max(0.0, max(log_term(f, d, dtau) for f in summed))
                        omitted = max(log_term(s * (n + 0.5), d, dtau) for s in (1, -1))
                        assert omitted <= math.log(1e-14) + peak, (tau, u, sign, d, dtau)
    assert pair_count(0j, 0.1 + 2.5j) < pair_count(0j, 0.3 + 1.1j) < pair_count(0j, 0.3 + 0.25j)
    assert pair_count(0j, 0.3 + 0.25j) < pair_count(0j, 5 + 0.05j) <= 25
    # the batch's array form gives the same counts, and at the first point that fails raises
    # pair_count's own error there, whatever fails after it
    for tau in GEOMETRY_MODULI:
        points = geometry_points(tau)
        good = [w for w in points if summable(w, tau)]
        assert np.array_equal(batch._pair_counts(np.array(good), tau), [pair_count(w, tau) for w in good])
        for bad in [w for w in points if w not in good] + [complex(0.1, -150.0 * tau.imag), complex(0.2, -1e300)]:
            with pytest.raises(SeriesTruncationError) as want:
                pair_count(bad, tau)
            with pytest.raises(SeriesTruncationError) as got:
                batch._pair_counts(np.array(good[:3] + [bad, complex(0.3, -1e300)] + good), tau)
            assert str(got.value) == str(want.value)
        # every stack that passes is finite up to the top order, modulus derivative included
        for w in good:
            for dtau in (0, 1):
                assert np.isfinite(theta_stack(w, EllipticContext(tau), 7 - 2 * dtau, dtau)).all(), (tau, w, dtau)
    # a largest term within the range whose derivative factors are not: refused on both routes,
    # naming z, before anything is summed; the batch sums at reduced points, where hbar + z of two
    # points of the cell can be such a z
    tau, z = 0.3 + 60j, -1.4 + 120j
    for call in (lambda: pair_count(z, tau), lambda: theta_stack(z, EllipticContext(tau)),
                 lambda: batch._pair_counts(np.array([0.1 + 0.2j, z]), tau)):
        with pytest.raises(SeriesTruncationError, match=re.escape(f"floating-point range (z={z}, tau={tau})")):
            call()
    tau, h, w = 0.3 + 400j, 0.1 + 161.75j, 0.2 + 161.75j
    assert lattice_reduce(h, tau)[0] == h and lattice_reduce(w, tau)[0] == w
    with pytest.raises(SeriesTruncationError, match=re.escape(f"floating-point range (z={h + w}, tau={tau})")):
        elliptic_tables([h], w, EllipticContext(tau), [(0, 0, 1, slice(None))])


def test_stack_entries_do_not_depend_on_the_stack_length():
    # both evaluators sum pair_count pairs for every order: an entry of
    # order d, and a table cell (j, k), are the same bits in every longer
    # stack or larger table, so a small request may read a large one's cells
    rng = np.random.default_rng(11)
    for tau in (TAU1, 3.3 + 0.4j, 5 + 0.05j):
        zs = cell_points(rng, 5, tau) + [0j, complex(-0.0, 0.0), 2.1 - 1.3 * tau]
        pairs = np.array([pair_count(z, tau) for z in zs])
        for dtau in (0, 1):
            batched = batch._theta_sums(np.array(zs), pairs, tau, 5, 5)[dtau]
            for z, n, row in zip(zs, pairs, batched):
                longest = theta_stack(z, EllipticContext(tau), 5, dtau)
                for d in range(6):
                    alone = batch._theta_sums(np.array([z]), np.array([n]), tau, d, d)[dtau][0]
                    assert alone.tobytes() == row[: d + 1].tobytes()
                    assert bits(theta_stack(z, EllipticContext(tau), d, dtau)) == bits(longest[: d + 1])
        ctx = EllipticContext(tau)
        h, z = cell_points(rng, 2, tau)
        hs = [h + (a + b * tau) / 3 for a in range(3) for b in range(3)]
        # reduce applies to the scalar route at both modulus orders; the batch always reduces
        for dtau, reduce, sizes in ((0, True, ((0, 0), (1, 1), (2, 1), (3, 3))), (0, False, ((0, 0), (2, 2))),
                                    (1, True, ((0, 0), (1, 0), (1, 1)))):
            big = sizes[-1]
            full_batch = elliptic_tables(hs, z, ctx, [(*big, dtau, slice(None))])[0]
            full_scalar = [kernel_derivs("elliptic", x, z, ctx, *big, dtau, reduce) for x in hs]
            for mj, mk in sizes:
                small = elliptic_tables(hs, z, ctx, [(mj, mk, dtau, slice(None))])[0]
                assert small.tobytes() == np.ascontiguousarray(full_batch[:, : mj + 1, : mk + 1]).tobytes()
                for x, want in zip(hs, full_scalar):
                    got = kernel_derivs("elliptic", x, z, ctx, mj, mk, dtau, reduce)
                    assert got.tobytes() == np.ascontiguousarray(want[: mj + 1, : mk + 1]).tobytes()


@pytest.mark.parametrize("tau", SWEEP_MODULI)
def test_batched_theta_sums_equal_theta_stack_bitwise(tau):
    # the series layers of the two routes are the same bits: numpy's exp
    # and products of the batch, cmath and Python's of the scalar loop
    rng = np.random.default_rng(41)
    reduced = [lattice_reduce(w, tau)[0] for w in cell_points(rng, 8, tau)] + [0j]
    shifted = [w + int(rng.integers(-2, 3)) + int(rng.integers(-2, 3)) * tau for w in reduced]
    zs = reduced + shifted
    pairs = np.array([pair_count(z, tau) for z in zs])
    for top in range(6):
        rows = batch._theta_sums(np.array(zs), pairs, tau, top, top)
        for dtau in (0, 1):
            for z, row in zip(zs, rows[dtau]):
                assert row.tobytes() == bits(theta_stack(z, EllipticContext(tau), top, dtau)), (z, top, dtau)


def test_batched_stack_does_not_depend_on_its_neighbours():
    # unreduced, the far parameter turns around after 60 pairs, the cell
    # points within one: each point still gets the bytes it gets alone
    tau = 0.3 + 0.05j
    hbars = cell_points(np.random.default_rng(7), 4, tau) + [0.2 + 3.0j]
    z = 0.41 + 0.02j
    got = elliptic_tables(hbars, z, EllipticContext(tau), [(2, 1, 1, slice(None))])[0]
    for h, table in zip(hbars, got):
        alone = elliptic_tables([h], z, EllipticContext(tau), [(2, 1, 1, slice(None))])[0][0]
        assert table.tobytes() == alone.tobytes()


@pytest.mark.parametrize("tau", [TAU1, 3.3 + 0.4j, 5 + 0.05j])
def test_batch_table_does_not_depend_on_the_list(tau):
    # a point's table is the same bits alone, among 12 or among 37 shuffled
    # points, with repeated points and zeros of either sign in its list
    rng = np.random.default_rng(37)
    ctx = EllipticContext(tau)
    hs = cell_points(rng, 30, tau) + [complex(0.3, 0.0), complex(0.3, -0.0), complex(-0.0, 0.4 * tau.imag)]
    zs = cell_points(rng, 4, tau) + [complex(0.2, 0.0), complex(0.2, -0.0)]
    points = [(h, zs[i % len(zs)]) for i, h in enumerate(hs)]
    points += [points[0], points[5], points[-1], (points[3][0] + 2 - tau, points[3][1])]
    assert len(points) == 37
    for max_j, max_k, dtau in ((2, 1, 0), (1, 2, 0), (1, 1, 1), (0, 0, 0)):
        alone = [elliptic_tables([h], [z], ctx, [(max_j, max_k, dtau, slice(None))])[0][0].tobytes() for h, z in points]
        for n in (1, 12, 37):
            for _ in range(3):
                order = rng.permutation(len(points))[:n]
                got = elliptic_tables([points[i][0] for i in order], [points[i][1] for i in order], ctx,
                                      [(max_j, max_k, dtau, slice(None))])[0]
                for i, table in zip(order, got):
                    assert table.tobytes() == alone[i], (n, points[i], max_j, max_k, dtau)


def test_theta_stack_memo_returns_the_same_tuple():
    ctx = EllipticContext(TAU1)
    first = theta_stack(0.31 + 0.17j, ctx, max_dz=2)
    assert theta_stack(0.31 + 0.17j, ctx, max_dz=2) is first
    assert theta_stack(0.31 + 0.17j, ctx, max_dz=2, dtau=1) is not first
    assert isinstance(first, tuple) and all(type(x) is complex for x in first)
    with pytest.raises(TypeError):
        first[0] = 0.0


def test_equal_contexts_keep_separate_memos():
    a = EllipticContext(TAU1)
    b = EllipticContext(TAU1)
    assert a == b and hash(a) == hash(b)
    stack = theta_stack(0.31 + 0.17j, a)
    assert a._stacks and not b._stacks
    assert theta_stack(0.31 + 0.17j, b) is not stack
    assert a == b and hash(a) == hash(b)
    assert "_stacks" not in repr(a)


def test_theta_stack_memo_is_cleared_at_its_bound():
    from superkron.elliptic import _MEMO_LIMIT

    ctx = EllipticContext(0.1 + 2.5j)
    zs = [complex(0.001 * i, 0.1) for i in range(_MEMO_LIMIT)]
    for z in zs:
        theta_stack(z, ctx)
    assert len(ctx._stacks) == _MEMO_LIMIT
    kept = theta_stack(zs[0], ctx)
    assert theta_stack(zs[0], ctx) is kept
    assert len(ctx._stacks) == _MEMO_LIMIT
    theta_stack(0.5 + 0.2j, ctx)
    assert len(ctx._stacks) == 1
    assert theta_stack(zs[0], ctx) is not kept


def test_theta_stack_memo_keeps_the_longest_stack_per_point_and_modulus_order():
    rng = np.random.default_rng(23)
    for tau in (TAU1, 3.3 + 0.4j):
        ctx = EllipticContext(tau)
        for z in cell_points(rng, 3, tau):
            longest = theta_stack(z, ctx, 5, dtau=1)
            # the pass leaves the modulus-order-0 stack of its length
            plain = ctx._stacks[(z, 0)]
            assert len(plain) == 6 and isinstance(plain, tuple)
            assert theta_stack(z, ctx, 5) is plain
            assert bits(plain) == theta_stack_reference(z, ctx, 5).tobytes()
            assert theta_stack(z, ctx, 5, dtau=1) is longest
            for dtau, stack in ((0, plain), (1, longest)):
                for d in range(5):
                    # a slice of the memoized stack, which stays in place
                    prefix = theta_stack(z, ctx, d, dtau)
                    assert bits(prefix) == bits(stack[: d + 1]) and ctx._stacks[(z, dtau)] is stack
                    assert bits(prefix) == bits(theta_stack(z, EllipticContext(tau), d, dtau))
            # a shorter order-1 pass leaves the longer order-0 stack alone
            w = z + 0.1
            first = theta_stack(w, ctx, 4)
            theta_stack(w, ctx, 2, dtau=1)
            assert ctx._stacks[(w, 0)] is first
            # a longer request sums again and replaces the shorter stack
            again = theta_stack(w, ctx, 5)
            assert bits(again[: len(first)]) == bits(first) and ctx._stacks[(w, 0)] is again


def test_theta_stack_rejects_higher_modulus_orders():
    # modulus orders 0 and 1 only, as theta and kernel_derivs; nothing is summed or memoized
    ctx = EllipticContext(TAU1)
    for z in (0.31 + 0.17j, -0.2 + 0.4j, 0j):
        for dtau in (2, 3):
            with pytest.raises(ValueError, match="modulus-derivative order limited to 1"):
                theta_stack(z, ctx, 4, dtau)
    assert not ctx._stacks


def test_theta_stack_refuses_orders_beyond_the_truncation_rule():
    # the rule covers argument order + 2 modulus order <= 7.  Here pair_count
    # accepts the point, every covered order is finite, and order 8, summed
    # past the check with its own factor (2 pi i f)^8, is not; theta_stack and
    # theta refuse it before they sum
    tau, z = 0.3 + 20j, -0.5 + 66.2j
    ctx = EllipticContext(tau)
    n = pair_count(z, tau)
    covered = batch._theta_sums(np.array([z]), np.array([n]), tau, 7)[0][0]
    f = np.array(elliptic._FREQS[: 2 * n])
    with np.errstate(over="ignore", invalid="ignore"):
        order8 = np.array(elliptic._COLUMNS[7][: 2 * n]) * (2j * np.pi * f)
        beyond = np.sum(np.exp(1j * np.pi * (tau * f * f + 2.0 * (z + 0.5) * f)) * order8)
    assert np.isfinite(covered).all() and not np.isfinite(beyond)
    for dtau in (0, 1):
        for call in (theta_stack, theta):
            with pytest.raises(ValueError, match="derivative orders limited to 7"):
                call(z, ctx, 8 - 2 * dtau, dtau)
    assert not ctx._stacks
    assert np.isfinite(theta_stack(z, ctx, 7)).all() and np.isfinite(theta_stack(z, ctx, 5, 1)).all()
    assert theta(z, ctx, 7) == theta_stack(z, ctx, 7)[7]


@pytest.mark.parametrize("max_j, max_k, dtau, message", [
    (-1, 0, 0, "derivative orders must be non-negative"),
    (0, -2, 1, "derivative orders must be non-negative"),
    (0, 0, 2, "modulus-derivative order limited to 1"),
    (0, 0, -1, "modulus-derivative order limited to 1"),
    (4, 4, 0, "derivative orders limited to 7"),
    (3, 3, 1, "derivative orders limited to 7"),
])
def test_table_requests_are_checked_before_anything_runs(max_j, max_k, dtau, message):
    # the batch checks its request as kernel_derivs does, with the same
    # message, before any pair count, pole check or sum: also with no point,
    # and where a point needs more than 200 pairs or sits on a pole
    tau = 0.3 + 1.1j
    ctx = EllipticContext(tau)
    for hbars in ([], [0.31 + 0.2j], [0.31 + 0.2j, 0.1 + 300j], [tau, 0.31 + 0.2j]):
        with pytest.raises(ValueError, match=message):
            elliptic_tables(hbars, 0.44 + 0.1j, ctx, [(max_j, max_k, dtau, slice(None))])[0]
    for kind in KINDS:
        with pytest.raises(ValueError, match=message):
            kernel_derivs(kind, 0.31 + 0.2j, 0.44 + 0.1j, ctx, max_j, max_k, dtau)
    assert not (ctx._tables or ctx._stacks)


def test_failed_checks_are_not_memoized():
    tau = 0.3 + 0.005j
    ctx = EllipticContext(tau)
    good, z = 0.4 + 0.0005j, 0.2 + 0.0007j
    far = 0.1 + 0.95j
    for _ in range(2):
        with pytest.raises(SeriesTruncationError):
            kernel_derivs("elliptic", far, z, ctx, dtau=1, reduce=False)
        # the series of hbar failed: no stack of it
        assert (far, 0) not in ctx._stacks and (far, 1) not in ctx._stacks
        with pytest.raises(PoleProximityError, match="hbar="):
            kernel_derivs("elliptic", tau, z, ctx, dtau=1)
        with pytest.raises(PoleProximityError, match="hbar="):
            elliptic_tables([good, tau], z, ctx, [(0, 0, 1, slice(None))])[0]
    assert not ctx._tables
    kernel_derivs("elliptic", good, z, ctx, dtau=1)
    assert len(ctx._tables) == 1


def test_table_requests_raise_series_errors_before_pole_errors():
    # each scalar request sums its stacks at z, hbar and hbar+z before it
    # checks their poles, and checks the poles before any reciprocal
    tau = 0.3 + 0.005j
    far, z = 0.1 + 0.95j, 0.2 + 0.0007j
    requests = (
        lambda h, w, ctx: phi_derivs(h, w, ctx, 1, 1, reduce=False),
        lambda h, w, ctx: phi_tau_derivs(h, w, ctx, 1, 1),
        lambda h, w, ctx: kernel_derivs("elliptic", h, w, ctx, 1, 1, dtau=1, reduce=False),
    )
    for request in requests:
        # z on a lattice point, hbar's unreduced series too long
        for pole in (0j, tau, 1.0 - tau):
            with pytest.raises(SeriesTruncationError):
                request(far, pole, EllipticContext(tau))
        # hbar on a lattice point, z and hbar+z off it
        for pole in (0j, tau, 1.0 - tau):
            with pytest.raises(PoleProximityError, match="hbar="):
                request(pole, z, EllipticContext(tau))


def test_series_truncation_is_not_memoized():
    # terms at Im tau = 1e-4 decay too slowly to sum in the 200-pair cap
    tight = EllipticContext(0.3 + 1e-4j)
    for _ in range(2):
        with pytest.raises(SeriesTruncationError):
            theta_stack(0.1, tight)
        with pytest.raises(SeriesTruncationError):
            elliptic_tables([0.1, 0.2], 0.3, tight, [(1, 0, 0, slice(None))])[0]
    assert not tight._stacks


@pytest.mark.parametrize(
    "tau, bad, message",
    [
        # at the reduced hbar + z, 0.3 + 0.9 Im(tau) i, the turnaround comes after 200.2 pairs, with every
        # term finite; z and bad themselves need 199.7
        (0.3 + 0.000595j, 0.1 + 0.45 * 0.000595j, "needs more than 200 frequency pairs"),
        # the largest term at hbar + z = 0.3 + 330i is about exp(723)
        (0.3 + 400j, 0.1 + 150j, "exceeds the floating-point range"),
        # the largest term is about exp(-785): every term underflowed, and the stack was (0j, 0j)
        (0.3 + 1000j, 0.3 + 0j, "terms fall below the floating-point range"),
    ],
)
def test_batched_series_errors_name_the_failing_point(tau, bad, message):
    # every point in the cell, so its reduced theta arguments are its own; the second point fails
    ctx = EllipticContext(tau)
    good, z = 0.4 - 0.1 * tau.imag * 1j, 0.2 + 0.45 * tau.imag * 1j
    with pytest.raises(SeriesTruncationError, match=message) as err:
        kernel_derivs("elliptic", bad, z, EllipticContext(tau), 1, 0, 1)
    with pytest.raises(SeriesTruncationError, match=message) as batch_err:
        elliptic_tables([good, bad], z, ctx, [(1, 0, 1, slice(None))])[0]
    assert str(batch_err.value) == str(err.value)
    # decided before any sum: nothing is summed or memoized
    assert not ctx._stacks


def test_batch_raises_series_errors_before_poles():
    # at the first parameter the series of hbar + z, 0.3 + 330i, leaves the
    # floating-point range; the second is a lattice point.  Alone each raises
    # its own error; in a list, either order, every point's series is decided
    # before any pole is checked
    tau = 0.3 + 400j
    first, z = 0.1 + 150j, 0.2 + 180j
    with pytest.raises(SeriesTruncationError):
        kernel_derivs("elliptic", first, z, EllipticContext(tau), dtau=1)
    with pytest.raises(PoleProximityError):
        kernel_derivs("elliptic", tau, z, EllipticContext(tau), dtau=1)
    for hbars in ([first, tau], [tau, first]):
        with pytest.raises(SeriesTruncationError):
            elliptic_tables(hbars, z, EllipticContext(tau), [(0, 0, 1, slice(None))])[0]


def _raised(call):
    """The type and message of what call() raises."""
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("hbars, z, tau, requests, first, later", [
    # an order-0 series error at one point against an order-1 series error at another
    ([0.4 + 0.1j, 0.1 + 0.2j], [0.3 + 0j, 0.2 + 0j], 0.3 + 1000j, [(0, 0, 0, [0]), (0, 0, 1, [1])],
     SeriesTruncationError, SeriesTruncationError),
    # a pole that order 0 checks against an order-1 series error at a point order 0 does not read: the
    # largest term of hbar = 0.1 + 448.9i is about exp(705), while that of z at 0.2 + 0.1i is exp(-705)
    ([0.3 + 898j, 0.1 + 448.9j], 0.2 + 0.1j, 0.3 + 898j, [(0, 0, 0, [0]), (0, 0, 1, [1])],
     PoleProximityError, SeriesTruncationError),
    # an order-0 lattice multiplier beyond the range, about exp(735), against an order-1 series error
    # at another point, whose hbar + z = 0.435 + 362i has a largest term of about exp(745)
    ([0.1 + 1.2 * (0.3 + 500j), 0.1 + 245j], 0.335 + 117j, 0.3 + 500j, [(0, 0, 0, [0]), (0, 0, 1, [1])],
     OverflowError, SeriesTruncationError),
    # a pole at a point that only order 1 asks for is still checked, after the order-1 series
    ([0.4 + 0.1j, TAU1], 0.2 + 0.1j, TAU1, [(1, 0, 0, [0]), (0, 0, 1, [0, 1])],
     PoleProximityError, PoleProximityError),
])
def test_one_call_raises_what_its_requests_raise_one_after_another(hbars, z, tau, requests, first, later):
    # a call with requests at both modulus orders raises what the same
    # requests raise when made one by one, in order, on one context; in the
    # first three cases the order-1 request alone raises something else, so
    # the order of the stages decides the error.  Both orders read the same
    # reduced arguments, so the second and third cases put the order-1 error
    # at a point that order 0 does not read
    def sequential():
        ctx = EllipticContext(tau)
        for r in requests:
            elliptic_tables(hbars, z, ctx, [r])

    want = _raised(sequential)
    assert want[0] is first
    assert _raised(lambda: elliptic_tables(hbars, z, EllipticContext(tau), requests)) == want
    assert _raised(lambda: elliptic_tables(hbars, z, EllipticContext(tau), requests[1:]))[0] is later


def test_context_validation():
    with pytest.raises(ValueError):
        EllipticContext(0.3 - 1.1j)
    with pytest.raises(ValueError):
        EllipticContext(0.5)
    # from 2**53 on tau + 1 == tau, and the unit lattice shift vanishes
    EllipticContext(1e15 + 1.1j)
    for re in (1e16, 1e17, -1e17):
        with pytest.raises(ValueError, match="rounds to tau"):
            EllipticContext(complex(re, 1.1))


def test_series_truncation_guard():
    tight = EllipticContext(0.3 + 1e-4j)
    with pytest.raises(SeriesTruncationError, match="needs more than 200 frequency pairs"):
        theta(0.1, tight)
    # below the smallest normal Im tau the count is infinite: it is compared
    # with the cap before it is rounded up, so the same error, no OverflowError
    for im in (1e-300, 5e-324):
        ctx = EllipticContext(complex(0.3, im))
        for z in (0j, complex(0.4, 0.5 * im), complex(0.1, 1.0)):
            with pytest.raises(SeriesTruncationError, match="needs more than 200 frequency pairs"):
                pair_count(z, ctx.tau)
        with pytest.raises(SeriesTruncationError, match="needs more than 200 frequency pairs"):
            phi_derivs(0.21 + 0.5 * im * 1j, 0.4 + 0.3 * im * 1j, ctx)
        with pytest.raises(SeriesTruncationError, match="needs more than 200 frequency pairs"):
            elliptic_tables([0.21, 0.4], 0.3, ctx, [(1, 1, 1, slice(None))])[0]


# -- lattice helpers ---------------------------------------------------------


def test_lattice_reduce_properties(rng):
    from superkron.elliptic import lattice_coords

    for _ in range(50):
        w = complex(rng.normal(scale=3), rng.normal(scale=3))
        red, m, n = lattice_reduce(w, TAU1)
        assert abs(red + m + n * TAU1 - w) < 1e-12 * max(abs(w), 1.0)
        # reduced representative lies in the cell centered at the origin
        x, y = lattice_coords(red, TAU1)
        assert -0.5 - 1e-9 <= x <= 0.5 + 1e-9
        assert -0.5 - 1e-9 <= y <= 0.5 + 1e-9
    # the batch's array form is bit for bit the scalar function, half-integer ties and zero signs
    # included, and a point whose coordinates leave the floating-point range raises its error
    for tau in GEOMETRY_MODULI:
        points = geometry_points(tau)
        ties = [w for w in points if 0.5 in map(abs, lattice_coords(w, tau))]
        assert ties, tau
        got = batch._lattice_reduce(np.array(points), tau)
        for i, w in enumerate(points):
            red, m, n = lattice_reduce(w, tau)
            assert np.complex128(red).tobytes() == got[0][i].tobytes() and (m, n) == (got[1][i], got[2][i]), (tau, w)
        bad = (complex(math.inf, 0.2), complex(math.nan, 0.2))
        for first, then in (bad, bad[::-1]):
            with pytest.raises((OverflowError, ValueError)) as want:
                lattice_reduce(first, tau)
            with pytest.raises(want.type, match=re.escape(str(want.value))):
                batch._lattice_reduce(np.array(points[:2] + [first, then] + points), tau)


def test_lattice_distance_vanishes_on_lattice():
    assert lattice_distance(0.0, TAU1) == pytest.approx(0.0, abs=1e-12)
    assert lattice_distance(2 - 3 * TAU1, TAU1) == pytest.approx(0.0, abs=1e-10)
    assert lattice_distance(0.5, TAU1) > 0.3


@pytest.mark.parametrize("tau", [5 + 0.05j, 3.3 + 0.4j, -0.45 + 0.6j, 0.3 + 1.1j, 0.3 + 0.25j, 0.1 + 2.5j, 0.3 + 60j])
def test_lattice_distance_matches_brute_force(tau):
    # unreduced moduli included: the nearest lattice point may lie far from
    # the neighbours of the reduced representative.  The batch's array form
    # is bit for bit the scalar function
    m, n = np.meshgrid(np.arange(-250, 251), np.arange(-80, 81))
    lattice = (m + n * tau).ravel()
    rng = np.random.default_rng(17)
    points = [complex(x, y) for x, y in rng.uniform(-1.5, 1.5, size=(40, 2))]
    points += [3 - 2 * tau + 0.01 * cmath.exp(1j * t) for t in rng.uniform(0, 2 * math.pi, 5)]
    points += geometry_points(tau)
    got, failed = batch._lattice_distances(np.array(points), tau)
    assert not failed.any()
    for w, dist in zip(points, got):
        want = np.abs(lattice - w).min()
        assert lattice_distance(w, tau) == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert np.float64(lattice_distance(w, tau)).tobytes() == dist.tobytes(), w
    # where the scalar function's round() raises, the array form marks the point
    bad = [complex(math.nan, 0.1), complex(0.1, math.inf), complex(math.inf, 0.1)]
    for w in bad:
        with pytest.raises((OverflowError, ValueError)):
            lattice_distance(w, tau)
    assert batch._lattice_distances(np.array(points[:3] + bad), tau)[1].tolist() == [False] * 3 + [True] * 3


# -- two-variable kernel -----------------------------------------------------


def test_phi_frozen_reference_values():
    for ctx, h, z, j, k, dtau, want in PHI_REFERENCE:
        if dtau:
            got = phi_tau_derivs(h, z, ctx)[0, 0]
        else:
            got = phi_derivs(h, z, ctx, j, k)[j, k]
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_phi_matches_theta_ratio(rng):
    tp0 = theta(0.0, CTX1, dz=1)
    for _ in range(20):
        h, z = cell_points(rng, 2, TAU1)
        want = tp0 * theta(h + z, CTX1) / (theta(h, CTX1) * theta(z, CTX1))
        assert abs(phi(h, z, CTX1) - want) <= 1e-12 * max(abs(want), 1.0)


def test_phi_symmetry_and_skew(rng):
    for _ in range(10):
        h, z = cell_points(rng, 2, TAU1)
        v = phi(h, z, CTX1)
        assert abs(v - phi(z, h, CTX1)) <= 1e-12 * abs(v)
        assert abs(v + phi(-h, -z, CTX1)) <= 1e-12 * abs(v)


def test_phi_residue_at_origin():
    h = 0.21 - 0.33j
    loose = EllipticContext(TAU1, pole_radius=1e-6)
    for eps in (1e-3, 1e-4):
        val = phi(h, eps, loose, reduce=False)
        assert abs(val * eps - 1.0) < 50 * eps


def test_phi_quasi_periodicity(rng):
    for _ in range(10):
        h, z = cell_points(rng, 2, TAU1)
        v = phi(h, z, CTX1)
        assert abs(phi(h, z + 1, CTX1, reduce=False) - v) <= 1e-11 * abs(v)
        w = cmath.exp(-TWO_PI_I * h) * v
        assert abs(phi(h, z + TAU1, CTX1, reduce=False) - w) <= 1e-11 * abs(w)
        # same multipliers on the first argument, by symmetry
        w2 = cmath.exp(-TWO_PI_I * z) * v
        assert abs(phi(h + TAU1, z, CTX1, reduce=False) - w2) <= 1e-11 * abs(w2)


@settings(max_examples=25, deadline=None)
@given(st.integers(-2, 2), st.integers(-2, 2))
def test_phi_lattice_shift_multiplier(m, n):
    h, z = 0.21 - 0.33j, 0.4 + 0.12j
    v = phi(h, z, CTX1)
    want = cmath.exp(-TWO_PI_I * h * n) * v
    got = phi(h, z + m + n * TAU1, CTX1, reduce=False)
    assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)


def test_phi_reduction_envelope_matches_direct(rng):
    # reduce=True must agree with the unreduced series inside the cell
    for _ in range(10):
        h, z = cell_points(rng, 2, TAU1)
        a = phi_derivs(h + 2 - TAU1, z - 1 + 2 * TAU1, CTX1, 2, 2, reduce=True)
        b = phi_derivs(h + 2 - TAU1, z - 1 + 2 * TAU1, CTX1, 2, 2, reduce=False)
        assert np.abs(a - b).max() <= 1e-9 * max(np.abs(b).max(), 1.0)


def test_phi_pole_guards():
    with pytest.raises(PoleProximityError):
        phi(0.21 - 0.33j, 1e-9, CTX1)
    with pytest.raises(PoleProximityError):
        phi(1e-9, 0.4, CTX1)
    with pytest.raises(PoleProximityError):
        phi(0.3, -0.3 + 1e-9, CTX1)  # first+second argument on the lattice
    with pytest.raises(PoleProximityError):
        phi(0.3, 1.0 + 1e-9, CTX1)  # reduction maps near a lattice point
    # a batch fails if any of its parameters does, naming the point that its
    # scalar table names: a non-first hbar, an hbar+z, and z; with two
    # failing parameters, the first one's
    for hbars, z in (([0.3, 1.0 + TAU1], 0.4), ([0.3, 0.2], -0.2 + 1e-9), ([0.3], TAU1),
                     ([0.3, 1.0 + TAU1, 2.0 - TAU1], 0.4), ([0.3, 2.0 - TAU1, 1.0 + TAU1], 0.4)):
        with pytest.raises(PoleProximityError) as batched:
            elliptic_tables(hbars, z, CTX1, [(0, 0, 0, slice(None))])[0]
        with pytest.raises(PoleProximityError) as scalar:
            phi_derivs(hbars[min(len(hbars) - 1, 1)], z, CTX1)
        assert str(batched.value) == str(scalar.value)


def test_multiplier_overflow_raises():
    # z reduces in place, hbar by one period, and the multiplier
    # exp(2 pi Im z) exceeds the floating-point range
    tau = 0.3 + 260j
    ctx = EllipticContext(tau)
    hbar, z = 0.1 + 1.2 * tau, 0.2 + 0.45 * tau
    with pytest.raises(OverflowError):
        kernel_derivs("elliptic", hbar, z, ctx)
    with pytest.raises(OverflowError):
        elliptic_tables([0.1 + 0.2 * tau, hbar], z, ctx, [(0, 0, 0, slice(None))])[0]


# the batch and the scalar routes round differently; over the points of
# test_batched_tables_equal_per_point_tables they differ by at most 5.6e-15
# of the table's largest entry (or one), and this bound is ten times that
ROUTE_TOL = 6e-14


def route_gap(table, want):
    return np.abs(table - want).max() / max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("N", [2, 3, 6])
def test_batched_tables_equal_per_point_tables(N):
    # the channel parameters of an N-channel operator; z reduces by up to a
    # period, and at 3.3+0.4i the parameters cross lattice cells.  Equal to
    # ROUTE_TOL: the batch and the single-point tables are separate routes
    rng = np.random.default_rng(N)
    for tau in (TAU1, 3.3 + 0.4j):
        h, z1, z2 = cell_points(rng, 3, tau)
        hbars = [h + (a1 + a2 * tau) / N for a1 in range(N) for a2 in range(N)]
        for max_j, max_k, dtau in ((0, 0, 0), (2, 1, 0), (4, 0, 0), (0, 4, 0), (2, 2, 0), (1, 0, 1), (1, 1, 1)):
            got = elliptic_tables(hbars, z1 - z2, EllipticContext(tau), [(max_j, max_k, dtau, slice(None))])[0]
            assert got.shape == (N * N, max_j + 1, max_k + 1)
            for hbar, table in zip(hbars, got):
                want = kernel_derivs("elliptic", hbar, z1 - z2, EllipticContext(tau), max_j, max_k, dtau)
                assert route_gap(table, want) <= ROUTE_TOL, (tau, hbar, max_j, max_k, dtau)


def test_kernel_derivs_takes_one_z_per_parameter():
    # points with their own z, some sharing one, and two z that differ only
    # in the sign of a zero imaginary part: each table is bit for bit the
    # batch table of its point alone, and its single-point table to ROUTE_TOL
    rng = np.random.default_rng(7)
    for tau in (TAU1, 3.3 + 0.4j):
        ctx = EllipticContext(tau)
        hs = list(cell_points(rng, 14, tau))
        zs = list(cell_points(rng, 4, tau)) + [0.3 + 0j, complex(0.3, -0.0)]
        zs = [zs[i % len(zs)] for i in range(len(hs))]
        for n in (11, 14):
            for max_j, max_k, dtau in ((2, 1, 0), (1, 2, 0), (1, 0, 1)):
                got = elliptic_tables(hs[:n], zs[:n], ctx, [(max_j, max_k, dtau, slice(None))])[0]
                for h, z, table in zip(hs, zs, got):
                    alone = elliptic_tables([h], [z], ctx, [(max_j, max_k, dtau, slice(None))])[0][0]
                    assert table.tobytes() == alone.tobytes(), (tau, n, h, z, max_j, max_k, dtau)
                    want = kernel_derivs("elliptic", h, z, ctx, max_j, max_k, dtau)
                    assert route_gap(table, want) <= ROUTE_TOL
    assert elliptic_tables([], [], CTX1, [(2, 1, 0, slice(None))])[0].shape == (0, 3, 2)
    with pytest.raises(ValueError):
        elliptic_tables(hs[:3], zs[:2], CTX1, [(0, 0, 0, slice(None))])[0]


def test_kernel_derivs_empty_list():
    assert elliptic_tables([], 0.4, CTX1, [(2, 1, 0, slice(None))])[0].shape == (0, 3, 2)
    with pytest.raises(ValueError, match="kind must be one of"):
        kernel_derivs("bogus", 0.3, 0.4, CTX1)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dtau", [0, 1])
@pytest.mark.parametrize("max_j, max_k", [(-1, 0), (0, -1), (-1, 1), (2, -3)])
def test_kernel_derivs_rejects_negative_orders(kind, dtau, max_j, max_k):
    # for every kind and modulus order, the degenerate kinds' zero modulus
    # tables included; nothing is summed, checked or stored
    ctx = EllipticContext(0.3 + 1.1j)
    with pytest.raises(ValueError, match="derivative orders must be non-negative"):
        kernel_derivs(kind, 0.31 + 0.2j, 0.44 + 0.1j, ctx, max_j, max_k, dtau)
    assert not (ctx._tables or ctx._stacks)


# -- the per-context kernel-table memo ----------------------------------------


def _forbid_tabulation(monkeypatch):
    """Make theta_stack and every table function of elliptic raise when called."""

    def tabulated(*args, **kwargs):
        raise AssertionError("a memoized table was made again")

    for name in ("theta_stack", "_table", "phi_derivs", "phi_tau_derivs", "phi_trig", "phi_rat"):
        monkeypatch.setattr(elliptic, name, tabulated)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dtau, reduce", [(0, True), (0, False), (1, True)])
def test_kernel_table_memo_serves_repeated_and_smaller_requests(kind, dtau, reduce, monkeypatch):
    # a repeat returns the stored table, a request no larger in either order
    # its leading cells: nothing is summed, and every cell is the one a
    # fresh context gives.  The parameter lies a period outside the cell
    sizes = ((0, 0), (1, 2), (2, 0), (2, 1), (2, 2))
    rng = np.random.default_rng(29)
    for tau in (TAU1, 3.3 + 0.4j):
        h, z = cell_points(rng, 2, tau)
        h += 1.0 - tau
        ctx = EllipticContext(tau)
        fresh = {size: kernel_derivs(kind, h, z, EllipticContext(tau), *size, dtau, reduce) for size in sizes}
        stored = kernel_derivs(kind, h, z, ctx, 2, 2, dtau, reduce)
        with monkeypatch.context() as m:
            _forbid_tabulation(m)
            assert kernel_derivs(kind, h, z, ctx, 2, 2, dtau, reduce) is stored
            for size in sizes:
                got = kernel_derivs(kind, h, z, ctx, *size, dtau, reduce)
                assert got.shape == (size[0] + 1, size[1] + 1)
                assert got.tobytes() == fresh[size].tobytes(), size
        assert list(ctx._tables.values()) == [stored]


def test_kernel_table_memo_replaces_a_smaller_table():
    # a request larger in either order tabulates the larger size of both in
    # each order and replaces the stored table, whose cells stay the same
    ctx = EllipticContext(TAU1)
    h, z = 0.31 + 0.17j, 1.2 + 0.4j
    first = kernel_derivs("elliptic", h, z, ctx, 2, 0)
    wider = kernel_derivs("elliptic", h, z, ctx, 0, 1)
    (stored,) = ctx._tables.values()
    assert stored.shape == (3, 2) and wider.base is stored
    assert stored.tobytes() == kernel_derivs("elliptic", h, z, EllipticContext(TAU1), 2, 1).tobytes()
    assert np.ascontiguousarray(stored[:, :1]).tobytes() == first.tobytes()
    assert kernel_derivs("elliptic", h, z, ctx, 1, 1).base is stored


def test_kernel_tables_are_read_only_and_kept_per_context():
    a, b = EllipticContext(TAU1), EllipticContext(TAU1)
    h, z = 0.31 + 0.17j, 0.2 + 0.4j
    for kind in KINDS:
        for dtau in (0, 1):
            for size in ((1, 1), (0, 0)):
                table = kernel_derivs(kind, h, z, a, *size, dtau)
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0, 0] = 1.0
    # per kind and modulus order; a second, equal context keeps its own
    assert len(a._tables) == 6 and not b._tables
    assert kernel_derivs("elliptic", h, z, b, 1, 1) is not kernel_derivs("elliptic", h, z, a, 1, 1)
    assert a == b and hash(a) == hash(b) and "_tables" not in repr(a)


def test_failed_kernel_requests_store_nothing():
    # each request raises its series errors before its pole errors,
    # whatever was asked before, and stores no table
    tau = 0.3 + 0.005j
    ctx = EllipticContext(tau)
    z = 0.4 + 0.0005j
    # unreduced, the lattice point 190 tau needs more than 200 pairs; reduced, it is a pole
    for _ in range(2):
        for dtau in (0, 1):
            with pytest.raises(SeriesTruncationError):
                kernel_derivs("elliptic", 190 * tau, z, ctx, dtau=dtau, reduce=False)
            with pytest.raises(PoleProximityError, match="hbar="):
                kernel_derivs("elliptic", 190 * tau, z, ctx, dtau=dtau)
        with pytest.raises(PoleProximityError):
            kernel_derivs("trig", 1e-5j, z, ctx)
        with pytest.raises(PoleProximityError):
            kernel_derivs("rational", 0.3, 1e-5, ctx, 1, 1)
    assert not ctx._tables


# (order-0 size, order-1 size) of one joint request: order 0 smaller than, equal to and larger than order 1
# one order further in each variable, and last one whose plain stacks outgrow the order-1 pass's cover
JOINT_SIZES = (((0, 1), (1, 1)), ((2, 0), (0, 0)), ((2, 2), (1, 1)), ((1, 3), (0, 2)), ((3, 2), (1, 1)),
               ((4, 3), (1, 1)))


@pytest.mark.parametrize("tau", SWEEP_MODULI)
def test_joint_tables_equal_separate_tables_bitwise(tau):
    # both modulus orders made in one pass get the bits each gets alone, on
    # a fresh context, reduced or not, at points in the centred cell and
    # shifted by up to two periods in each argument
    rng = np.random.default_rng(SWEEP_MODULI.index(tau) + 70)
    shifts = [(0, 0, 0, 0)] + [tuple(int(n) for n in rng.integers(-2, 3, 4)) for _ in range(3)]
    shifted = 0
    for w_h, w_z in zip(cell_points(rng, 3, tau), cell_points(rng, 3, tau)):
        h0, z0 = lattice_reduce(w_h, tau)[0], lattice_reduce(w_z, tau)[0]
        for m_h, n_h, m_z, n_z in shifts:
            h, z = h0 + m_h + n_h * tau, z0 + m_z + n_z * tau
            shifted += bool(n_h or n_z)
            for reduce in (True, False):
                for size0, size1 in JOINT_SIZES:
                    got = elliptic._kernel_tables("elliptic", h, z, EllipticContext(tau), size0, size1, reduce)
                    want = (phi_derivs(h, z, EllipticContext(tau), *size0, reduce),
                            phi_tau_derivs(h, z, EllipticContext(tau), *size1, reduce))
                    for table, alone in zip(got, want):
                        assert table.tobytes() == alone.tobytes(), (h, z, reduce, size0, size1)
    assert shifted >= 6


def test_joint_requests_raise_before_they_store():
    # an order-1 size _check_orders refuses raises before anything is summed
    # or stored, whatever the order-0 size; a pole stores neither order
    ctx = EllipticContext(TAU1)
    h, z = 0.31 + 0.17j, 0.2 + 0.4j
    for kind in KINDS:
        for size1, message in (((3, 3), "limited to 7"), ((0, -1), "non-negative")):
            with pytest.raises(ValueError, match=message):
                elliptic._kernel_tables(kind, h, z, ctx, (1, 1), size1, True)
    assert not (ctx._tables or ctx._stacks)
    for reduce in (True, False):
        with pytest.raises(PoleProximityError, match="hbar="):
            elliptic._kernel_tables("elliptic", TAU1 + 1.0, z, ctx, (2, 1), (1, 0), reduce)
    for kind, pole in (("trig", 1e-5j), ("rational", 1e-5)):
        with pytest.raises(PoleProximityError):
            elliptic._kernel_tables(kind, pole, z, ctx, (2, 1), (1, 0), True)
    assert not ctx._tables


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_table_memo_tells_signed_zeros_apart(kind):
    # points that differ only in the sign of a zero part, requested in turn
    # under one context, get the bits fresh contexts give them
    ctx = EllipticContext(TAU1)
    for dtau, reduce in ((0, True), (0, False), (1, True)):
        for h0, z0 in ((0.3, 0.45j), (1.3 + 0.37j, -0.7), (0.45j, 0.2 + 0.21j)):
            for sh in (1.0, -1.0):
                for sz in (1.0, -1.0):
                    h = complex(h0.real or sh * 0.0, h0.imag or sh * 0.0)
                    z = complex(z0.real or sz * 0.0, z0.imag or sz * 0.0)
                    got = kernel_derivs(kind, h, z, ctx, 2, 1, dtau, reduce)
                    want = kernel_derivs(kind, h, z, EllipticContext(TAU1), 2, 1, dtau, reduce)
                    assert got.tobytes() == want.tobytes(), (dtau, reduce, h, z)


def test_scalar_three_term_identity(rng):
    # elliptic, with randomized points
    for _ in range(10):
        h1, h2, z1, z2, z3 = cell_points(rng, 5, TAU1)
        s = (
            phi(h1, z1 - z2, CTX1) * phi(h2, z2 - z3, CTX1)
            + phi(-h2, z3 - z1, CTX1) * phi(h1 - h2, z1 - z2, CTX1)
            + phi(h2 - h1, z2 - z3, CTX1) * phi(-h1, z3 - z1, CTX1)
        )
        scale = abs(phi(h1, z1 - z2, CTX1) * phi(h2, z2 - z3, CTX1))
        assert abs(s) <= 1e-11 * max(scale, 1.0)


@pytest.mark.parametrize("table", [phi_trig, phi_rat])
def test_scalar_three_term_identity_degenerate(table, rng):
    def kernel(h, z):
        return table(h, z, CTX1)[0, 0]

    for _ in range(10):
        vals = rng.normal(scale=0.8, size=5) + 1j * rng.normal(scale=0.4, size=5)
        h1, h2, z1, z2, z3 = vals
        s = (
            kernel(h1, z1 - z2) * kernel(h2, z2 - z3)
            + kernel(-h2, z3 - z1) * kernel(h1 - h2, z1 - z2)
            + kernel(h2 - h1, z2 - z3) * kernel(-h1, z3 - z1)
        )
        scale = abs(kernel(h1, z1 - z2) * kernel(h2, z2 - z3))
        assert abs(s) <= 1e-10 * max(scale, 1.0)


def test_modulus_derivative_two_routes(rng):
    # direct modulus-differentiated series vs the mixed-derivative route
    for _ in range(10):
        h, z = cell_points(rng, 2, TAU1)
        direct = phi_tau_derivs(h, z, CTX1)[0, 0]
        mixed = phi_derivs(h, z, CTX1, 1, 1)[1, 1] / TWO_PI_I
        assert abs(direct - mixed) <= 1e-10 * max(abs(direct), 1.0)
        assert mixed == pytest.approx(direct, rel=1e-10)


def test_phi_tau_derivs_higher_orders(rng):
    # modulus derivative commutes with argument derivatives
    h, z = 0.21 - 0.33j, 0.4 + 0.12j
    tab = phi_tau_derivs(h, z, CTX1, max_j=1, max_k=1)
    step = 1e-6
    for (j, k) in ((0, 0), (1, 0), (0, 1), (1, 1)):
        up = phi_derivs(h, z, EllipticContext(TAU1 + step), j, k, reduce=False)[j, k]
        dn = phi_derivs(h, z, EllipticContext(TAU1 - step), j, k, reduce=False)[j, k]
        fd = (up - dn) / (2 * step)
        assert abs(tab[j, k] - fd) <= 1e-7 * max(abs(fd), 1.0)


@pytest.mark.parametrize("tau", [0.3 + 1.1j, 0.3 + 60j])
def test_reduced_modulus_derivative_tables_follow_the_flow_identity(tau):
    # 2 pi i d_tau phi = d_hbar d_z phi, which neither route uses: at points
    # shifted by up to two periods both routes sum the modulus derivative at
    # the reduced points and restore its lattice multiplier with the chain
    # term; at Im tau = 60 the series summed at the given points lose up to
    # all digits of these cells (ROADMAP item 1)
    rng = np.random.default_rng(59)
    ctx = EllipticContext(tau)
    hs, zs, plains = [], [], []
    for h, z in zip(cell_points(rng, 16, tau), cell_points(rng, 16, tau)):
        h += int(rng.integers(-2, 3)) + int(rng.integers(-2, 3)) * tau
        z += int(rng.integers(-2, 3)) + int(rng.integers(-2, 3)) * tau
        try:
            plains.append(kernel_derivs("elliptic", h, z, ctx, 2, 2))
        except OverflowError:
            continue
        hs.append(h)
        zs.append(z)
    assert len(hs) >= 8 and sum(lattice_reduce(w, tau)[2] != 0 for w in hs + zs) >= 8
    batched = elliptic_tables(hs, zs, EllipticContext(tau), [(1, 1, 1, slice(None))])[0]
    for h, z, plain, table in zip(hs, zs, plains, batched):
        flow = plain[1:, 1:] / TWO_PI_I
        for got in (kernel_derivs("elliptic", h, z, ctx, 1, 1, 1), table):
            assert np.abs(got - flow).max() <= 1e-12 * np.abs(plain).max(), (h, z)


@pytest.mark.parametrize("im", [500, 600, 700])
def test_modulus_derivative_table_is_finite_where_the_reciprocal_square_overflows(im):
    # |theta| is about 1e-171 to 1e-239 at these arguments, so 1/theta^2
    # would overflow; the reciprocal's modulus derivative is
    # -(theta_dot / theta) / theta instead, whose factors stay in range
    ctx = EllipticContext(complex(0.3, im))
    got = kernel_derivs("elliptic", 0.1 + 0.05j, 0.2 + 0.03j, ctx, 1, 0, 1)
    plain = kernel_derivs("elliptic", 0.1 + 0.05j, 0.2 + 0.03j, ctx, 2, 1)
    assert np.isfinite(got).all()
    assert np.abs(got - plain[1:, 1:] / TWO_PI_I).max() <= 1e-12 * np.abs(plain).max()


# -- degenerate kernels ------------------------------------------------------


def test_trig_kernel_closed_form():
    h, z = 0.37 + 0.21j, -0.52 + 0.33j
    tab = phi_trig(h, z, CTX1, 1, 2)
    want = 1 / cmath.tanh(h) + 1 / cmath.tanh(z)
    assert tab[0, 0] == pytest.approx(want, rel=1e-14)
    d_h = -1 / cmath.sinh(h) ** 2
    assert tab[1, 0] == pytest.approx(d_h, rel=1e-13)
    d_z2 = 2 * cmath.cosh(z) / cmath.sinh(z) ** 3
    assert tab[0, 2] == pytest.approx(d_z2, rel=1e-13)


def coth_derivs_reference(x, n_max):
    """The square polynomial chain of coth's derivatives, its coefficients rebuilt on every call."""
    c = 1.0 / cmath.tanh(x)
    coeffs = [0.0, 1.0]
    out = np.zeros(n_max + 1, dtype=np.complex128)
    out[0] = c
    for n in range(1, n_max + 1):
        deriv = [coeffs[i] * i for i in range(1, len(coeffs))]
        coeffs = deriv + [0.0, 0.0]
        for i, d in enumerate(deriv):
            coeffs[i + 2] -= d
        out[n] = sum(coeffs[i] * c**i for i in range(len(coeffs)))
    return out


def test_coth_chain_is_built_once_per_order(rng):
    from superkron.elliptic import _coth_derivs, _coth_poly

    assert _coth_poly(4) is _coth_poly(4) and _coth_poly(2) == (0.0, -2.0, 0.0, 2.0)
    for x in [complex(*rng.uniform(-3, 3, size=2)) for _ in range(40)] + [0.3, complex(-0.0, 0.4), 2.5 - 0.0j]:
        for n_max in range(7):
            assert _coth_derivs(x, n_max, 1e-3).tobytes() == coth_derivs_reference(x, n_max).tobytes()


def test_rational_kernel_closed_form():
    assert phi_rat(1.0, 2.0, CTX1)[0, 0] == pytest.approx(1.5)
    assert phi_rat(0.5, 2.0, CTX1, 1)[1, 0] == pytest.approx(-4.0)
    assert phi_rat(0.5, 0.5, CTX1, 0, 2)[0, 2] == pytest.approx(16.0)
    assert phi_rat(0.5, 0.25, CTX1, 2, 0)[2, 0] == pytest.approx(16.0)


@pytest.mark.parametrize("kernel", [phi_trig, phi_rat])
def test_degenerate_mixed_derivatives_vanish(kernel):
    tab = kernel(0.4, 0.7, CTX1, 2, 1)
    assert tab[1, 1] == 0j
    assert tab[2, 1] == 0j


@pytest.mark.parametrize("kernel", [phi_trig, phi_rat])
def test_degenerate_pole_and_order_guards(kernel):
    with pytest.raises(PoleProximityError):
        kernel(1e-9, 0.4, CTX1)
    with pytest.raises(ValueError):
        kernel(0.3, 0.4, CTX1, -1, 0)


def test_trig_kernel_pole_lattice():
    # poles sit on i*pi times integers, not on the unit lattice
    with pytest.raises(PoleProximityError):
        phi_trig(0.2, 1j * math.pi + 1e-9, CTX1)
    assert abs(phi_trig(0.2, 1.0, CTX1)[0, 0]) < 20.0


# -- independent high-precision oracle ---------------------------------------


def mp_theta(mp, z, tau, dz=0):
    """theta(z) = -e^(i pi tau/4) / q^(1/4) * theta_1(pi z, q), q = e^(i pi tau), via mpmath.

    mpmath takes the principal branch of q^(1/4); dividing e^(i pi tau/4)
    by it restores the branch the series uses.
    """
    q = mp.exp(1j * mp.pi * tau)
    norm = -mp.exp(1j * mp.pi * tau / 4) / q ** mp.mpf(0.25)
    return norm * mp.pi**dz * mp.jtheta(1, mp.pi * z, q, dz)


# at 5+0.05i the series cancels: about four digits are lost (ROADMAP item 2, open)
MPMATH_MODULI = [tau for tau in SWEEP_MODULI if tau != 5 + 0.05j] + [
    pytest.param(5 + 0.05j, marks=pytest.mark.xfail(strict=True, reason="series cancellation")),
]


@pytest.mark.parametrize("tau", MPMATH_MODULI)
def test_theta_and_kernel_match_mpmath(tau):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(SWEEP_MODULI.index(tau))
    ctx = EllipticContext(tau)
    with mpmath.workdps(30):
        t = mpmath.mpc(tau)
        for _ in range(6):
            z, h = (complex(w) for w in cell_points(rng, 2, tau))
            mz, mh = mpmath.mpc(z), mpmath.mpc(h)
            pairs = [
                (theta(z, ctx), mp_theta(mpmath, mz, t)),
                (theta(z, ctx, dz=1), mp_theta(mpmath, mz, t, 1)),
                (
                    phi(h, z, ctx),
                    mp_theta(mpmath, 0, t, 1) * mp_theta(mpmath, mh + mz, t)
                    / (mp_theta(mpmath, mh, t) * mp_theta(mpmath, mz, t)),
                ),
            ]
            for got, want in pairs:
                assert abs(got - complex(want)) <= 1e-13 * abs(complex(want))
