"""Algebraic laws of the finite Grassmann algebra backend.

Coefficients in the property tests are small Gaussian integers so every
identity is exact in floating point; no tolerance juggling is needed.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import isclose
from superkron.grassmann import (
    DEFAULT_GENERATOR_NAMES,
    GeneratorSet,
    GrassmannElement,
    default_generators,
    grassmann_exp,
)

GENS = default_generators()
N_GEN = GENS.n_generators


def elem(terms):
    return GrassmannElement(terms)


small_coeff = st.builds(
    complex,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)

elements = st.builds(
    elem,
    st.dictionaries(st.integers(min_value=0, max_value=GENS.dim - 1), small_coeff, max_size=5),
)


def homogeneous(parity_bit):
    masks = [m for m in range(GENS.dim) if bin(m).count("1") % 2 == parity_bit]
    return st.builds(
        elem,
        st.dictionaries(st.sampled_from(masks), small_coeff, min_size=1, max_size=4),
    )


# -- fixtures with hand-computed answers -----------------------------------


def test_generator_square_vanishes():
    for name in DEFAULT_GENERATOR_NAMES:
        g = GENS.generator(name)
        assert (g * g).is_zero()


def test_two_generator_product():
    z1 = GENS.generator("ζ1")
    z2 = GENS.generator("ζ2")
    # (z1 + 2 z2)(3 z1 - z2) = -z1 z2 + 6 z2 z1 = -7 z1 z2
    got = (z1 + z2 * 2) * (z1 * 3 - z2)
    assert got == z1 * z2 * (-7)


def test_even_element_inverse_pair():
    z1z2 = GENS.generator("ζ1") * GENS.generator("ζ2")
    assert (GENS.one() + z1z2) * (GENS.one() - z1z2) == GENS.one()


def test_nilpotent_soul_powers():
    s = GENS.generator("ζ1") + GENS.generator("ζ2") * GENS.generator("ζ3") * 2
    s2 = s * s
    want = GENS.generator("ζ1") * GENS.generator("ζ2") * GENS.generator("ζ3") * 4
    assert s2 == want
    assert (s2 * s).is_zero()


def test_body_soul_split():
    e = GENS.scalar(2.5) + GENS.generator("ω") * 3
    assert e.body == 2.5 + 0j
    assert e.soul() == GENS.generator("ω") * 3
    assert GENS.scalar(0).is_zero()


def test_left_derivative_hand_values():
    z1 = GENS.generator("ζ1")
    z2 = GENS.generator("ζ2")
    e = GENS.one() + z1 * z2 * 2
    assert e.left_derivative("ζ1") == z2 * 2
    assert e.left_derivative("ζ2") == z1 * (-2)
    assert e.left_derivative("ζ3").is_zero()


def test_parity_classification():
    z1 = GENS.generator("ζ1")
    z2 = GENS.generator("ζ2")
    assert z1.parity() == "odd"
    assert (z1 * z2).parity() == "even"
    assert (GENS.one() + z1).parity() == "mixed"
    assert GENS.zero().parity() == "even"


def test_mask_label_round_trip():
    for mask in range(GENS.dim):
        label = GENS.monomial_label(mask)
        assert GENS.mask_of(label) == mask


def test_mask_of_rejects_repeats():
    with pytest.raises(ValueError):
        GENS.mask_of(["ζ1", "ζ1"])


def test_scalar_division():
    e = GENS.generator("ζ1") * 4
    assert e / 2 == GENS.generator("ζ1") * 2


def test_isclose_tolerance():
    a = GENS.generator("ζ1")
    b = a + GENS.generator("ζ2") * 1e-15
    assert isclose(a, b)
    assert not isclose(a, b, tol=1e-16)
    # the scale is the larger magnitude, never below 1
    assert isclose(a * 1e3, a * (1e3 + 1e-10))
    assert isclose(a * 1e-13, a * 2e-13)


def test_max_abs():
    e = GENS.scalar(1) + GENS.generator("ω") * (3 + 4j)
    assert e.max_abs() == pytest.approx(5.0)
    assert GrassmannElement({}).max_abs() == 0.0
    # a NaN coefficient reads NaN wherever it stands
    for terms in ({1: 1.0, 2: math.nan}, {2: math.nan, 1: 1.0}):
        assert math.isnan(GrassmannElement(terms).max_abs())


def test_equal_elements_hash_equal():
    a = GrassmannElement({0: 2, GENS.mask_of("μ1"): 1 - 1j})
    b = GENS.scalar(2) + GENS.generator("μ1") * (1 - 1j)
    assert a == b
    assert hash(a) == hash(b)


# -- property tests ----------------------------------------------------------


@given(elements, elements, elements)
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(elements, elements, elements)
def test_distributive_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(st.integers(0, 1), st.integers(0, 1), st.data())
def test_graded_commutativity(pa, pb, data):
    a = data.draw(homogeneous(pa))
    b = data.draw(homogeneous(pb))
    sign = -1 if (pa and pb) else 1
    assert a * b == b * a * sign


@given(st.integers(0, 1), st.sampled_from(DEFAULT_GENERATOR_NAMES), st.data())
def test_left_derivative_graded_leibniz(pa, name, data):
    a = data.draw(homogeneous(pa))
    b = data.draw(elements)
    sign = -1 if pa else 1
    lhs = (a * b).left_derivative(name)
    rhs = a.left_derivative(name) * b + a * b.left_derivative(name) * sign
    assert lhs == rhs


@given(
    elements,
    st.sampled_from(DEFAULT_GENERATOR_NAMES),
    st.sampled_from(DEFAULT_GENERATOR_NAMES),
)
def test_left_derivatives_anticommute(a, g, h):
    lhs = a.left_derivative(g).left_derivative(h)
    rhs = a.left_derivative(h).left_derivative(g)
    assert lhs == rhs * (-1)
    if g == h:
        assert lhs.is_zero()


@given(elements)
def test_neg_and_sub(a):
    assert (a - a).is_zero()
    assert a * (-1) + a == GENS.zero()


def brute_sign(s, t):
    """(-1) to the number of pairs i in S, j in T with i > j, by direct count."""
    n = max(s, t).bit_length()
    crossings = sum(1 for i in range(n) for j in range(n) if s >> i & 1 and t >> j & 1 and i > j)
    return -1 if crossings % 2 else 1


def test_sign_matches_pair_count():
    pairs = [(s, t) for s in range(GENS.dim) for t in range(GENS.dim) if not s & t]
    assert len(pairs) == 3**N_GEN
    for s, t in pairs:
        assert GENS.sign(s, t) == brute_sign(s, t)
    # ten generators: random disjoint pairs
    wide = GeneratorSet([f"g{i}" for i in range(10)])
    rng = random.Random(1910)
    for _ in range(500):
        s = rng.randrange(wide.dim)
        t = rng.randrange(wide.dim) & ~s
        assert wide.sign(s, t) == brute_sign(s, t)


# -- analytic helpers --------------------------------------------------------


def test_exp_of_two_generator_block():
    z1z2 = GENS.generator("ζ1") * GENS.generator("ζ2")
    c = 0.7 - 0.2j
    assert grassmann_exp(z1z2 * c) == GENS.one() + z1z2 * c


def test_exp_inverse():
    x = GENS.scalar(0.3) + GENS.generator("μ1") * GENS.generator("ω") * (1 + 2j)
    prod = grassmann_exp(x) * grassmann_exp(x * (-1))
    assert isclose(prod, GENS.one())


def test_exp_additivity_for_commuting_arguments():
    a = GENS.generator("ζ1") * GENS.generator("ζ2") * 0.4
    b = GENS.generator("μ1") * GENS.generator("ω") * (0.2 - 0.9j) + GENS.scalar(0.1)
    lhs = grassmann_exp(a + b)
    rhs = grassmann_exp(a) * grassmann_exp(b)
    assert isclose(lhs, rhs)


def test_exp_scalar_matches_cmath():
    got = grassmann_exp(GENS.scalar(0.25 + 1.5j))
    assert got.coefficient(0) == pytest.approx(math.e ** 0.25 * complex(math.cos(1.5), math.sin(1.5)))
    assert [m for m, _ in got.items()] == [0]
