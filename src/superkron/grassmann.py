"""Finite Grassmann (exterior) algebra with complex coefficients.

The algebra is generated by one fixed, ordered set of anticommuting symbols,
DEFAULT_GENERATOR_NAMES, held by default_generators().  A basis monomial is
a subset of generators encoded as a bitmask over that order; an element is
a sparse map from bitmask to coefficient.  Signs come from counting
transpositions needed to bring concatenated monomials into canonical order,
so products, left derivatives and exponentials are exact up to
floating-point rounding of the coefficients.
"""

from __future__ import annotations

import cmath
import functools
from typing import Iterable, Iterator, Mapping

__all__ = [
    "GeneratorSet",
    "GrassmannElement",
    "parity",
    "nilpotent_powers",
    "grassmann_exp",
    "DEFAULT_GENERATOR_NAMES",
    "default_generators",
]

# Canonical generator order used throughout the verification suites: three
# odd point coordinates, two odd deformation parameters, one global odd unit.
DEFAULT_GENERATOR_NAMES = ("ζ1", "ζ2", "ζ3", "μ1", "μ2", "ω")

_ScalarTypes = (int, float, complex)


def parity(masks: Iterable[int]) -> str:
    """'even', 'odd' or 'mixed' for the monomials named by masks; none counts as even."""
    parities = {m.bit_count() & 1 for m in masks}
    if len(parities) > 1:
        return "mixed"
    return "odd" if parities == {1} else "even"


class GeneratorSet:
    """Fixed, ordered collection of anticommuting generator labels.

    The order is significant: it defines the canonical form of every
    monomial and therefore every sign in the algebra.  Instances hold no
    tables: signs are computed from the two masks on each call.  Elements
    carry no set: they are read over default_generators(), the one set of
    the algebra, whose element constructors and label helpers build and
    name them.
    """

    def __init__(self, names: Iterable[str]) -> None:
        names = tuple(names)
        if not names:
            raise ValueError("at least one generator is required")
        if len(set(names)) != len(names):
            raise ValueError("generator labels must be unique")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.dim = 1 << len(names)

    # -- basics ---------------------------------------------------------

    @property
    def n_generators(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"GeneratorSet({', '.join(self.names)})"

    def index_of(self, g: int | str) -> int:
        if isinstance(g, str):
            try:
                return self.index[g]
            except KeyError:
                raise KeyError(f"unknown generator {g!r}") from None
        if not 0 <= g < self.n_generators:
            raise IndexError(f"generator index {g} out of range")
        return g

    def sign(self, s: int, t: int) -> int:
        """Reordering sign of e_S * e_T for disjoint masks.

        (-1) to the number of pairs (i, j) with i in S, j in T and i > j.
        """
        sign = 1
        while t:
            low = t & -t
            if (s >> low.bit_length()).bit_count() & 1:
                sign = -sign
            t ^= low
        return sign

    def products(self, left, right) -> Iterator[tuple[int, int, object, object]]:
        """The graded product rule over two mask-keyed collections.

        left and right are anything whose items() yields (mask, value):
        dicts, elements.  Yields (s | t, sign(s, t), a, b) for every pair of
        disjoint masks, left outer and right inner, each in item order.
        Callers combine a and b; overlapping masks contribute nothing.
        """
        sign = self.sign
        right = list(right.items())
        for s, a in left.items():
            for t, b in right:
                if not s & t:
                    yield s | t, sign(s, t), a, b

    def left_derivative(self, g: int | str, terms) -> Iterator[tuple[int, int, object]]:
        """The left-derivative rule over a mask-keyed collection (see products).

        For each (mask, value) whose monomial contains generator g, yields
        (mask without g, sign, value): g is moved to the front, one sign per
        generator standing before it, and removed.  Other monomials are
        annihilated and yield nothing.
        """
        bit = 1 << self.index_of(g)
        below = bit - 1
        for m, value in terms.items():
            if m & bit:
                yield m ^ bit, -1 if (m & below).bit_count() & 1 else 1, value

    # -- element constructors --------------------------------------------

    def zero(self) -> "GrassmannElement":
        return GrassmannElement({})

    def one(self) -> "GrassmannElement":
        return GrassmannElement({0: 1.0 + 0j})

    def scalar(self, c: complex) -> "GrassmannElement":
        return GrassmannElement({0: complex(c)})

    def generator(self, g: int | str) -> "GrassmannElement":
        return GrassmannElement({1 << self.index_of(g): 1.0 + 0j})

    def mask_of(self, labels: Iterable[str] | str) -> int:
        """Bitmask of a monomial given as labels or as a concatenated string."""
        if isinstance(labels, str):
            labels = self._split_monomial(labels)
        mask = 0
        for lab in labels:
            bit = 1 << self.index_of(lab)
            if mask & bit:
                raise ValueError(f"repeated generator {lab!r} in monomial")
            mask |= bit
        return mask

    def monomial_label(self, mask: int) -> str:
        return "".join(self.names[i] for i in range(self.n_generators) if mask >> i & 1)

    def _split_monomial(self, text: str) -> list[str]:
        # greedy longest-match so multi-character labels survive concatenation
        by_len = sorted(self.names, key=len, reverse=True)
        out: list[str] = []
        pos = 0
        while pos < len(text):
            for name in by_len:
                if text.startswith(name, pos):
                    out.append(name)
                    pos += len(name)
                    break
            else:
                raise ValueError(f"cannot read generator at {text[pos:]!r}")
        return out


@functools.cache
def default_generators() -> GeneratorSet:
    """The generator set of the algebra, over DEFAULT_GENERATOR_NAMES.

    Built once and shared; every GrassmannElement, SuperFunction and
    SuperMatrix is read over it, so values carry no set of their own.
    """
    return GeneratorSet(DEFAULT_GENERATOR_NAMES)


class GrassmannElement:
    """Sparse element of the Grassmann algebra over default_generators().

    terms maps a monomial bitmask to its coefficient.  Instances behave as
    immutable values: every operation returns a new element, zero
    coefficients are pruned on construction.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, complex]) -> None:
        self._terms = {m: complex(c) for m, c in terms.items() if c != 0}

    # -- inspection -------------------------------------------------------

    def items(self) -> Iterator[tuple[int, complex]]:
        return iter(self._terms.items())

    def coefficient(self, mono: int | str | Iterable[str]) -> complex:
        mask = mono if isinstance(mono, int) else default_generators().mask_of(mono)
        return self._terms.get(mask, 0j)

    @property
    def body(self) -> complex:
        return self._terms.get(0, 0j)

    def soul(self) -> "GrassmannElement":
        return GrassmannElement({m: c for m, c in self._terms.items() if m})

    def is_zero(self) -> bool:
        return not self._terms

    def parity(self) -> str:
        """'even', 'odd' or 'mixed'; the zero element counts as even."""
        return parity(self._terms)

    def max_abs(self) -> float:
        values = list(map(abs, self._terms.values()))
        total = sum(values)  # NaN exactly when a modulus is; max drops a NaN that does not come first
        return total if total != total else max(values, default=0.0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _ScalarTypes):
            other = GrassmannElement({0: complex(other)})
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0j) + c
        return GrassmannElement(terms)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _ScalarTypes):
            other = GrassmannElement({0: complex(other)})
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return GrassmannElement({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, _ScalarTypes):
            c = complex(other)
            return GrassmannElement({m: a * c for m, a in self._terms.items()})
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        terms: dict[int, complex] = {}
        for u, sign, a, b in default_generators().products(self._terms, other._terms):
            terms[u] = terms.get(u, 0j) + sign * a * b
        return GrassmannElement(terms)

    def __rmul__(self, other):
        if isinstance(other, _ScalarTypes):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _ScalarTypes):
            return self * (1.0 / complex(other))
        return NotImplemented

    def left_derivative(self, g: int | str) -> "GrassmannElement":
        """Left derivative with respect to one generator (see GeneratorSet.left_derivative)."""
        terms: dict[int, complex] = {}
        for nm, sign, c in default_generators().left_derivative(g, self._terms):
            terms[nm] = terms.get(nm, 0j) + sign * c
        return GrassmannElement(terms)

    # -- comparison and rendering -----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ScalarTypes):
            other = GrassmannElement({0: complex(other)})
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items(), key=lambda kv: kv[0])))

    def __str__(self) -> str:
        if not self._terms:
            return "(0+0j)"
        parts = []
        for m in sorted(self._terms, key=lambda m: (m.bit_count(), m)):
            c = self._terms[m]
            coeff = f"({c.real:.17g}{c.imag:+.17g}j)"
            parts.append(coeff if m == 0 else f"{coeff}·{default_generators().monomial_label(m)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<GrassmannElement {self}>"


def nilpotent_powers(x: GrassmannElement) -> list[GrassmannElement]:
    """[1, x, x^2, ...] up to the last nonzero power of x.

    x must have no scalar part: each power then needs more generators than
    the one before, so the list ends after at most n_generators + 1 entries.
    """
    if x.body != 0:
        raise ValueError("a nilpotent element must have no scalar part")
    out = [default_generators().one()]
    power = x
    while not power.is_zero():
        out.append(power)
        power = power * x
    return out


def grassmann_exp(x: GrassmannElement) -> GrassmannElement:
    """Exponential of an even element: exp(body) times the finite soul series."""
    if x.parity() != "even":
        raise ValueError("exponent must be an even element")
    out = default_generators().one()
    factorial = 1.0
    for k, power in enumerate(nilpotent_powers(x.soul())[1:], 1):
        factorial *= k
        out = out + power * (1.0 / factorial)
    return out * cmath.exp(x.body)
