"""Grassmann-valued extension of the elliptic kernel and its identity checkers.

A SuperFunction is a finite sum of (Grassmann monomial) x (derivative
descriptor) pairs.  A descriptor names one entry of a closed catalog of
analytic coefficient functions: mixed parameter/argument derivatives of the
two-variable kernel up to total order four, plus its modulus derivative with
at most one extra parameter derivative.  Super-differential operators act
symbolically on this representation; numbers appear only at evaluation time,
which turns the whole object into a GrassmannElement.

Modulus descriptors are evaluated through the direct modulus-differentiated
series, never through the flow identity that the operators use for
rewriting, so heat-equation residuals compare two independent routes.
Evaluation reads one table per modulus order from elliptic.kernel_derivs,
for every kernel family: elliptic, trigonometric or rational.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from itertools import chain
from math import comb
from typing import NamedTuple, Sequence

from .elliptic import KINDS, EllipticContext, kernel_derivs
from .grassmann import GrassmannElement, default_generators, grassmann_exp, nilpotent_powers

__all__ = [
    "Descriptor",
    "CatalogOverflowError",
    "SuperPoint",
    "SuperFunction",
    "super_phi",
    "super_phi_truncated",
    "super_phi_degenerate",
    "three_term",
    "three_term_specs",
    "fay_residual",
    "heat_residual",
    "periodicity_residual",
    "transition_factor",
]

_TWO_PI_I = 2j * math.pi

# super_phi's terms and SuperFunction.plan's rows by structure (_memo_key, _remember)
_MEMO_LIMIT = 1024
_PHI_TERMS: dict = {}
_PLANS: dict = {}


def _memo_key(x):
    """x as part of a memo key: an element by its exact terms in order, else by its repr (both keep a zero's sign)."""
    return tuple(map(repr, x.items())) if isinstance(x, GrassmannElement) else repr(x)


def _remember(memo: dict, key, value):
    """value, stored in memo under key; a memo that holds _MEMO_LIMIT entries is cleared first."""
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = value
    return value


def _dressing(c: complex, z12: complex) -> complex:
    """The exponential dressing exp(c z12); its OverflowError names c and z12."""
    try:
        return cmath.exp(c * z12)
    except OverflowError:
        raise OverflowError(f"exponential dressing exceeds the floating-point range (c={c}, z12={z12})") from None


class CatalogOverflowError(ValueError):
    """An operator requested a coefficient derivative outside the catalog."""


class Descriptor(NamedTuple):
    """Catalog key: dtau modulus derivatives, j parameter, k argument ones.

    Stored descriptors are canonical: either dtau = 0 with j + k <= 4, or
    dtau = 1 with j <= 1, k = 0.  Everything else is rewritten on insertion
    by trading one modulus derivative for one parameter plus one argument
    derivative over two pi i.
    """

    dtau: int
    j: int
    k: int


def _canonical(dtau: int, j: int, k: int, coeff: complex) -> tuple[Descriptor, complex]:
    while dtau and (dtau > 1 or j > 1 or k > 0):
        dtau -= 1
        j += 1
        k += 1
        coeff = coeff / _TWO_PI_I
    if dtau == 0 and j + k > 4:
        raise CatalogOverflowError(
            f"coefficient derivative of order ({j},{k}) exceeds the catalog"
        )
    return Descriptor(dtau, j, k), coeff


def _as_element(spec) -> GrassmannElement:
    if isinstance(spec, GrassmannElement):
        return spec
    return default_generators().generator(spec)


def _odd_element(spec, label: str) -> GrassmannElement:
    elem = _as_element(spec)
    if not elem.is_zero() and elem.parity() != "odd":
        raise ValueError(f"{label} must be parity-odd")
    return elem


def _plain_mask(elem: GrassmannElement) -> int:
    """Bitmask of the generator elem is, when elem is one plain generator; else 0."""
    support = list(elem.items())
    if len(support) == 1 and support[0][0].bit_count() == 1 and support[0][1] == 1:
        return support[0][0]
    return 0


def _generator_index(elem: GrassmannElement, label: str) -> int:
    mask = _plain_mask(elem)
    if not mask:
        raise ValueError(f"{label} is not a single generator")
    return mask.bit_length() - 1


@dataclass(frozen=True)
class SuperPoint:
    """One point of the (1|1)-dimensional space: even coordinate plus odd partner.

    zeta may be a generator label/index or an odd GrassmannElement.
    """

    z: complex
    zeta: object

    def resolve(self) -> GrassmannElement:
        return _odd_element(self.zeta, "zeta")


class SuperFunction:
    """Symbolic Grassmann-coefficient combination of kernel derivatives.

    terms maps a basis-monomial bitmask to {Descriptor: complex}.  The
    analytic part of every stored pair is
    exp(exp_coeff * z12) * d^{j,k,dtau} kernel(hbar, z12), z12 = z1 - z2,
    and the monomials are those of default_generators().  No term depends
    on hbar, so a plan combines with tables at any parameter.  Change
    terms only through add_term.
    Every operator maps the stored rows into a new function with the same
    analytic metadata.
    """

    __slots__ = ("ctx", "hbar", "kind", "exp_coeff", "terms")

    def __init__(
        self,
        ctx: EllipticContext,
        hbar: complex,
        kind: str = "elliptic",
        exp_coeff: complex = 0.0,
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        self.ctx = ctx
        self.hbar = complex(hbar)
        self.kind = kind
        self.exp_coeff = complex(exp_coeff)
        self.terms: dict[int, dict[Descriptor, complex]] = {}

    # -- construction helpers ----------------------------------------------

    def add_term(self, mask: int, dtau: int, j: int, k: int, coeff: complex) -> None:
        desc, coeff = _canonical(dtau, j, k, complex(coeff))
        if coeff == 0:
            return
        row = self.terms.setdefault(mask, {})
        new = row.get(desc, 0j) + coeff
        if new == 0:
            row.pop(desc, None)
            if not row:
                self.terms.pop(mask, None)
        else:
            row[desc] = new

    def add_element_term(self, elem: GrassmannElement, dtau: int, j: int, k: int, coeff: complex = 1.0) -> None:
        """One catalog entry with a Grassmann-element prefactor."""
        for mask, c in elem.items():
            self.add_term(mask, dtau, j, k, c * coeff)

    def _rows(self):
        """(mask, descriptor, coeff) for every stored term."""
        for mask, row in self.terms.items():
            for desc, coeff in row.items():
                yield mask, desc, coeff

    def _derived(self, rows) -> "SuperFunction":
        """A function with the same analytic metadata, built from (mask, (dtau, j, k), coeff) rows."""
        out = SuperFunction(self.ctx, self.hbar, self.kind, self.exp_coeff)
        for mask, desc, coeff in rows:
            out.add_term(mask, *desc, coeff)
        return out

    def _check_compatible(self, other: "SuperFunction") -> None:
        same = (
            self.ctx == other.ctx
            and self.hbar == other.hbar
            and self.kind == other.kind
            and self.exp_coeff == other.exp_coeff
        )
        if not same:
            raise ValueError("functions carry different analytic metadata")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "SuperFunction") -> "SuperFunction":
        if not isinstance(other, SuperFunction):
            return NotImplemented
        self._check_compatible(other)
        return self._derived(chain(self._rows(), other._rows()))

    def __sub__(self, other: "SuperFunction") -> "SuperFunction":
        if not isinstance(other, SuperFunction):
            return NotImplemented
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "SuperFunction":
        return self._derived((mask, desc, coeff * c) for mask, desc, coeff in self._rows())

    # -- super-differential operators ---------------------------------------

    def d_hbar(self) -> "SuperFunction":
        return self._derived((mask, (dtau, j + 1, k), coeff) for mask, (dtau, j, k), coeff in self._rows())

    def d_z1(self) -> "SuperFunction":
        def rows():
            # chain rule through the exponential dressing in z12
            for mask, (dtau, j, k), coeff in self._rows():
                yield mask, (dtau, j, k + 1), coeff
                if self.exp_coeff != 0:
                    yield mask, (dtau, j, k), coeff * self.exp_coeff

        return self._derived(rows())

    def d_tau(self) -> "SuperFunction":
        """Modulus derivative at fixed hbar.

        A parameter that moves with the modulus at rate r has the total
        derivative d_tau() + d_hbar().scale(r).
        """
        return self._derived((mask, (dtau + 1, j, k), coeff) for mask, (dtau, j, k), coeff in self._rows())

    def d_generator(self, g) -> "SuperFunction":
        """Left derivative with respect to one odd generator."""
        return self._derived(
            (nm, desc, sign * coeff)
            for nm, sign, row in default_generators().left_derivative(g, self.terms)
            for desc, coeff in row.items()
        )

    def lmul(self, elem) -> "SuperFunction":
        """Left multiplication by a Grassmann element (or scalar)."""
        if isinstance(elem, (int, float, complex)):
            return self.scale(elem)
        return self._derived(
            (nm, desc, sign * ecoeff * coeff)
            for nm, sign, ecoeff, row in default_generators().products(_as_element(elem), self.terms)
            for desc, coeff in row.items()
        )

    # -- evaluation ----------------------------------------------------------

    def evaluate(
        self,
        z1: complex,
        z2: complex,
        soul: GrassmannElement | None = None,
        reduce: bool = True,
    ) -> GrassmannElement:
        """Numeric value at (z1, z2) as a GrassmannElement.

        soul, if given, is an even nilpotent element added to z12; the
        coefficient functions are extended to it by their finite Taylor
        expansion, with derivatives skipped whenever the accompanying
        Grassmann product already vanished.  Evaluation is plan (memoized),
        one kernel_derivs table per modulus order, then combine; the R-matrix
        channel sums compile plan's rows once into a dense matrix and
        contract it with the tables of many channels at once
        (rmatrix.channel_sums).
        """
        z12 = complex(z1) - complex(z2)
        rows, sizes = self.plan(soul)
        tables = {
            dtau: kernel_derivs(self.kind, self.hbar, z12, self.ctx, mj, mk, dtau, reduce)
            for dtau, (mj, mk) in sizes.items()
        }
        return self.combine(rows, tables, z12)

    def plan(self, soul: GrassmannElement | None = None):
        """Rows (monomial, dtau, j, k, scalar) as a tuple and the table sizes {dtau: (max j, max k)} they read.

        Memoized by content, the same for any hbar, ctx and kind: exp_coeff,
        the stored rows in order and the soul's terms in order.  The rows
        are a shared tuple, the sizes a fresh dict.
        """
        key = (_memo_key(self.exp_coeff), tuple((m, d, repr(c)) for m, d, c in self._rows()), _memo_key(soul))
        planned = _PLANS.get(key) or _remember(_PLANS, key, self._plan_rows(soul))
        return planned[0], dict(planned[1])

    def _plan_rows(self, soul: GrassmannElement | None):
        """plan's rows and sizes as tuples, built from the current terms."""
        if soul is None:
            powers = [default_generators().one()]
        elif soul.parity() != "even":
            raise ValueError("soul must be an even element")
        else:
            powers = nilpotent_powers(soul)
        rows: list[tuple[int, int, int, int, complex]] = []
        sizes: dict[int, tuple[int, int]] = {}
        for mask, row in self.terms.items():
            base = GrassmannElement({mask: 1.0})
            factorial = 1.0
            for m, power in enumerate(powers):
                if m:
                    factorial *= m
                pre = base * power if m else base
                if pre.is_zero():
                    break
                for desc, coeff in row.items():
                    for i in range(m + 1):
                        weight = self.exp_coeff ** (m - i)
                        if weight == 0:
                            continue
                        scalar = coeff * comb(m, i) * weight / factorial
                        k = desc.k + i
                        for pmask, pcoeff in pre.items():
                            rows.append((pmask, desc.dtau, desc.j, k, pcoeff * scalar))
                        mj, mk = sizes.get(desc.dtau, (0, 0))
                        sizes[desc.dtau] = (max(mj, desc.j), max(mk, k))
        return tuple(rows), tuple(sizes.items())

    def combine(self, rows, tables: dict, z12: complex) -> GrassmannElement:
        """The value from a plan's rows and the tables {dtau: table} they read, at z12."""
        acc: dict[int, complex] = {}
        for mask, dtau, j, k, scalar in rows:
            value = tables[dtau][j, k]
            if value == 0:
                continue
            acc[mask] = acc.get(mask, 0j) + scalar * value
        envelope = _dressing(self.exp_coeff, z12) if self.exp_coeff != 0 else 1.0
        return GrassmannElement({m: c * envelope for m, c in acc.items()})

    def __repr__(self) -> str:
        n = sum(len(r) for r in self.terms.values())
        return f"<SuperFunction kind={self.kind} hbar={self.hbar} terms={n}>"


# -- constructors -------------------------------------------------------------


def super_phi(
    hbar: complex,
    mu,
    p1: SuperPoint,
    p2: SuperPoint,
    omega,
    ctx: EllipticContext,
    kind: str = "elliptic",
    exp_coeff: complex = 0.0,
    hbar_tau_rate: complex = 0.0,
    tau_term: str = "dtau",
) -> SuperFunction:
    """Odd Grassmann-valued extension of the elliptic kernel.

    Five terms: (zeta1 - zeta2) times the kernel, omega times its parameter
    derivative, 2 pi i zeta1 zeta2 omega times its modulus derivative,
    zeta1 zeta2 mu times the parameter derivative, and half
    (zeta1 + zeta2) mu omega times the second parameter derivative.
    mu = None drops the two mu-terms (the truncated variant).

    tau_term selects the representation of the third term: "dtau" keeps the
    modulus descriptor, plus hbar_tau_rate times a parameter derivative
    when the rate is nonzero (the total modulus derivative of a parameter
    that moves with the modulus); "heat" replaces it by the mixed-derivative
    form of the flow identity, including the chain term through the
    exponential dressing, and ignores the rate.

    Two slots that each hold one plain generator (a single generator with
    coefficient one) must hold different ones, else ValueError.  Slots that
    hold a combination, such as a shifted odd coordinate, are not checked.
    The terms are memoized by all but hbar, ctx and even coordinates; slots are checked on every call.
    """
    if tau_term not in ("dtau", "heat"):
        raise ValueError("tau_term must be 'dtau' or 'heat'")
    zeta1 = p1.resolve()
    zeta2 = p2.resolve()
    omega_e = _odd_element(omega, "omega")
    mu_e = None if mu is None else _odd_element(mu, "mu")
    combined = 0
    for label, elem in (("zeta1", zeta1), ("zeta2", zeta2), ("omega", omega_e), ("mu", mu_e)):
        m = 0 if elem is None else _plain_mask(elem)
        if m & combined:
            raise ValueError(f"generator collision: {label} reuses another slot's generator")
        combined |= m

    f = SuperFunction(ctx, hbar, kind=kind, exp_coeff=exp_coeff)
    key = tuple(map(_memo_key, (kind, exp_coeff, hbar_tau_rate, tau_term, p1.zeta, p2.zeta, omega, mu)))
    terms = _PHI_TERMS.get(key)
    if terms is None:
        zz = zeta1 * zeta2
        f.add_element_term(zeta1 - zeta2, 0, 0, 0)
        f.add_element_term(omega_e, 0, 1, 0)
        zzw = zz * omega_e
        if tau_term == "dtau":
            f.add_element_term(zzw, 1, 0, 0, _TWO_PI_I)
            if hbar_tau_rate != 0:
                f.add_element_term(zzw, 0, 1, 0, _TWO_PI_I * hbar_tau_rate)
        else:
            f.add_element_term(zzw, 0, 1, 1)
            if exp_coeff != 0:
                f.add_element_term(zzw, 0, 1, 0, exp_coeff)
        if mu_e is not None:
            f.add_element_term(zz * mu_e, 0, 1, 0)
            f.add_element_term((zeta1 + zeta2) * mu_e * omega_e, 0, 2, 0, 0.5)
        terms = _remember(_PHI_TERMS, key, tuple((m, tuple(row.items())) for m, row in f.terms.items()))
    # fresh rows, so that add_term on f cannot reach the memo
    f.terms = {m: dict(row) for m, row in terms}
    return f


def super_phi_truncated(
    hbar: complex,
    p1: SuperPoint,
    p2: SuperPoint,
    omega,
    ctx: EllipticContext,
    kind: str = "elliptic",
    exp_coeff: complex = 0.0,
    hbar_tau_rate: complex = 0.0,
    tau_term: str = "dtau",
) -> SuperFunction:
    """The three-term variant: full function with the odd parameter dropped."""
    return super_phi(hbar, None, p1, p2, omega, ctx, kind, exp_coeff, hbar_tau_rate, tau_term)


def super_phi_degenerate(
    kind: str,
    hbar: complex,
    mu,
    p1: SuperPoint,
    p2: SuperPoint,
    omega,
    ctx: EllipticContext,
) -> GrassmannElement:
    """Closed-form value of the degenerate function, bypassing descriptors.

    Hyperbolic: (z1-z2 odd difference) (coth h + coth z12)
    - (omega + z1 z2 mu)/sinh^2 h + (z1+z2) mu omega cosh h / sinh^3 h,
    with the odd partners in place of the shorthand; rational replaces the
    three parameter profiles by 1/h, 1/h^2, 1/h^3.  ctx supplies the pole
    radius only.
    """
    if kind not in ("trig", "rational"):
        raise ValueError("degenerate kinds are 'trig' and 'rational'")
    zeta1 = p1.resolve()
    zeta2 = p2.resolve()
    omega_e = _odd_element(omega, "omega")
    mu_e = None if mu is None else _odd_element(mu, "mu")
    z12 = complex(p1.z) - complex(p2.z)
    base, d1, d2 = kernel_derivs(kind, hbar, z12, ctx, max_j=2)[:, 0]
    out = (zeta1 - zeta2) * base + omega_e * d1
    if mu_e is not None:
        out = out + zeta1 * zeta2 * mu_e * d1
        out = out + (zeta1 + zeta2) * mu_e * omega_e * (0.5 * d2)
    return out


# -- residual checkers ---------------------------------------------------------


def three_term_specs(x1, x2) -> tuple:
    """three_term's six (x, a, b) factor specs in its order; x negates and subtracts entrywise, None staying None."""

    def neg(x):
        return tuple(None if v is None else -v for v in x)

    def sub(x, y):
        return tuple(None if u is None else u - v for u, v in zip(x, y))

    return (x1, 0, 1), (x2, 1, 2), (neg(x2), 2, 0), (sub(x1, x2), 0, 1), (sub(x2, x1), 1, 2), (neg(x1), 2, 0)


def three_term(factor, x1, x2, mul=operator.mul, size=abs):
    """The three-term quadratic relation behind the Fay and associative checks.

    Forms f(x1)_12 f(x2)_23 + f(-x2)_31 f(x1-x2)_12 + f(x2-x1)_23 f(-x1)_31,
    where factor(x, a, b) builds the factor with parameter tuple x between
    points a and b (indices 0, 1, 2), called once per spec of
    three_term_specs, in its order.  Products are taken left to right with mul.
    Returns the sum and the largest size of the three products, the scale
    the residual is measured against; the exact relation makes the sum vanish.
    The third product is added in place, where the type allows, into the
    fresh sum of the first two; the products themselves are left unchanged.
    """
    f = [factor(*spec) for spec in three_term_specs(x1, x2)]
    p1, p2, p3 = mul(f[0], f[1]), mul(f[2], f[3]), mul(f[4], f[5])
    total = p1 + p2
    total += p3
    return total, max(size(p1), size(p2), size(p3))


def fay_residual(
    hbars: Sequence[complex],
    mus,
    points: Sequence[SuperPoint],
    omega,
    ctx: EllipticContext,
    kind: str = "elliptic",
):
    """(residual, scale) of the genus-one addition identity, see three_term.

    Products are taken inside the Grassmann algebra.  mus = None checks the
    truncated function (odd parameter absent).
    """
    h1, h2 = (complex(h) for h in hbars)
    if mus is None:
        mu1 = mu2 = None
    else:
        mu1 = _odd_element(mus[0], "mu1")
        mu2 = _odd_element(mus[1], "mu2")

    def factor(x, a, b):
        pa, pb = points[a], points[b]
        return super_phi(x[0], x[1], pa, pb, omega, ctx, kind=kind).evaluate(pa.z, pb.z)

    return three_term(factor, (h1, mu1), (h2, mu2), size=GrassmannElement.max_abs)


def heat_residual(
    hbar: complex,
    mu,
    p1: SuperPoint,
    p2: SuperPoint,
    omega,
    ctx: EllipticContext,
):
    """(residual, scale): left minus right of the odd heat relation at the points.

    Left: (d_omega + 2 pi i (zeta1 + zeta2) d_tau).  Right:
    (d_zeta1 + zeta1 d_z1 - mu d_hbar / 2) d_hbar, with the mu term absent
    for the truncated variant (mu = None).  Modulus descriptors evaluate via
    the direct modulus series while the right side uses only
    parameter/argument derivatives, so the residual genuinely tests the
    relation.  zeta1 and omega must each be one plain generator.
    """
    f = super_phi(hbar, mu, p1, p2, omega, ctx)
    zeta1 = p1.resolve()
    zeta2 = p2.resolve()
    lhs = f.d_generator(_generator_index(_as_element(omega), "omega"))
    lhs = lhs + f.d_tau().lmul(zeta1 + zeta2).scale(_TWO_PI_I)
    dh = f.d_hbar()
    rhs = dh.d_generator(_generator_index(zeta1, "zeta1")) + dh.d_z1().lmul(zeta1)
    if mu is not None:
        rhs = rhs - dh.d_hbar().lmul(_as_element(mu)).scale(0.5)
    lval = lhs.evaluate(p1.z, p2.z)
    rval = rhs.evaluate(p1.z, p2.z)
    return lval - rval, max(lval.max_abs(), rval.max_abs(), 1e-300)


def transition_factor(hbar: complex, mu, zeta, omega, slot: int) -> GrassmannElement:
    """Multiplier acquired under the modulus-direction supertranslation.

    Slot 1 carries exp(-2 pi i (hbar - mu zeta1 - pi i mu omega)), slot 2
    the reciprocal sign pattern with zeta2.  mu = None gives the plain
    exp(-/+ 2 pi i hbar) of the truncated variant.
    """
    gens = default_generators()
    sign = -1.0 if slot == 1 else 1.0
    exponent = gens.scalar(sign * _TWO_PI_I * complex(hbar))
    if mu is not None:
        mu_e = _odd_element(mu, "mu")
        zeta_e = _odd_element(zeta, "zeta")
        omega_e = _odd_element(omega, "omega")
        inner = mu_e * zeta_e + (mu_e * omega_e) * (1j * math.pi)
        exponent = exponent + inner * (-sign * _TWO_PI_I)
    return grassmann_exp(exponent)


def periodicity_residual(
    direction,
    slot: int,
    hbar: complex,
    mu,
    p1: SuperPoint,
    p2: SuperPoint,
    omega,
    ctx: EllipticContext,
):
    """(residual, scale): shifted value minus multiplier times value.

    direction 1 shifts the chosen even coordinate by one (multiplier one);
    direction "tau" applies the full supertranslation: even coordinate
    gains the modulus plus 2 pi i zeta omega, the odd partner gains
    2 pi i omega, and the reference side is scaled by the transition
    factor.  Both sides evaluate without lattice reduction, otherwise the
    check would assume what it verifies.  mu = None checks the truncated
    function.
    """
    if slot not in (1, 2):
        raise ValueError("slot must be 1 or 2")

    base = super_phi(hbar, mu, p1, p2, omega, ctx)
    base_val = base.evaluate(p1.z, p2.z, reduce=False)
    zs = [p1.z, p2.z]
    if direction in (1, "1"):
        zs[slot - 1] += 1.0
        shifted = base.evaluate(*zs, reduce=False)
        reference = base_val
    elif direction == "tau":
        omega_e = _odd_element(omega, "omega")
        points = [p1, p2]
        zeta_old = points[slot - 1].resolve()
        points[slot - 1] = SuperPoint(zs[slot - 1], zeta_old + omega_e * _TWO_PI_I)
        shifted_fn = super_phi(hbar, mu, *points, omega, ctx)
        # a soul on z2 enters z12 = z1 - z2 with a minus sign
        soul = (zeta_old * omega_e) * (_TWO_PI_I if slot == 1 else -_TWO_PI_I)
        zs[slot - 1] += ctx.tau
        shifted = shifted_fn.evaluate(*zs, soul=soul, reduce=False)
        reference = transition_factor(hbar, mu, zeta_old, omega_e, slot) * base_val
    else:
        raise ValueError("direction must be 1 or 'tau'")
    return shifted - reference, max(shifted.max_abs(), reference.max_abs(), 1e-300)
