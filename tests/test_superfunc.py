"""Checks for the Grassmann-extended kernel and its identity residuals."""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import residual_bits
from helpers import isclose, phi
from superkron import elliptic, rmatrix, suites, superfunc
from superkron.elliptic import KINDS, EllipticContext, PoleProximityError, kernel_derivs, phi_derivs, phi_rat, phi_trig
from superkron.grassmann import GrassmannElement, default_generators, grassmann_exp, parity
from superkron.superfunc import (
    CatalogOverflowError,
    Descriptor,
    SuperFunction,
    SuperPoint,
    fay_residual,
    heat_residual,
    periodicity_residual,
    super_phi,
    super_phi_degenerate,
    super_phi_truncated,
    three_term,
    transition_factor,
)

GENS = default_generators()
CTX = EllipticContext(0.3 + 1.1j)
TPI = 2j * math.pi

H1 = 0.31 + 0.12j
H2 = -0.22 + 0.27j
P1 = SuperPoint(0.22 + 0.41j, "ζ1")
P2 = SuperPoint(-0.17 + 0.09j, "ζ2")
P3 = SuperPoint(0.53 - 0.21j, "ζ3")
Z12 = P1.z - P2.z

Z1E = GENS.generator("ζ1")
Z2E = GENS.generator("ζ2")
MUE = GENS.generator("μ1")
OME = GENS.generator("ω")


def rel(err, scale):
    return err / max(scale, 1.0)


# -- evaluation ------------------------------------------------------------------


def test_evaluate_makes_both_modulus_orders_in_one_pass(monkeypatch):
    # at a shifted point one evaluate checks its poles once and runs two
    # Leibniz passes, plain and dots; each order's own request then reads
    # the stored table and makes nothing
    calls = {}
    for name in ("_check_poles", "_leibniz"):
        def counting(*args, _name=name, _original=getattr(elliptic, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(elliptic, name, counting)
    ctx = EllipticContext(CTX.tau)
    hbar = H1 + 1.0 - CTX.tau
    f = super_phi(hbar, "μ1", P1, P2, "ω", ctx)
    f.evaluate(P1.z, P2.z)
    assert calls == {"_check_poles": 1, "_leibniz": 2}
    sizes = f.plan()[1]
    stored = list(ctx._tables.values())
    assert sorted(sizes) == [0, 1] and len(stored) == 2
    for dtau, table in enumerate(stored):
        assert kernel_derivs("elliptic", hbar, Z12, ctx, *sizes[dtau], dtau) is table
    assert calls == {"_check_poles": 1, "_leibniz": 2}


# -- structure of the five-term template --------------------------------------


def test_template_matches_hand_assembly():
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX)
    val = f.evaluate(P1.z, P2.z)
    hand = (
        (Z1E - Z2E) * phi(H1, Z12, CTX)
        + OME * phi(H1, Z12, CTX, j=1)
        + (Z1E * Z2E * OME) * phi_derivs(H1, Z12, CTX, 1, 1)[1, 1]
        + (Z1E * Z2E * MUE) * phi(H1, Z12, CTX, j=1)
        + ((Z1E + Z2E) * MUE * OME) * (0.5 * phi(H1, Z12, CTX, j=2))
    )
    assert (val - hand).max_abs() < 1e-12


def test_template_matches_operator_assembly():
    # same object rebuilt by applying multiplication/derivative operators
    # to a bare kernel seed
    seed = SuperFunction(CTX, H1)
    seed.add_element_term(GENS.one(), 0, 0, 0, 1.0)
    assembled = (
        seed.lmul(Z1E - Z2E)
        + seed.d_hbar().lmul(OME)
        + seed.d_tau().lmul(Z1E * Z2E * OME).scale(TPI)
        + seed.d_hbar().lmul(Z1E * Z2E * MUE)
        + seed.d_hbar().d_hbar().lmul((Z1E + Z2E) * MUE * OME).scale(0.5)
    )
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX)
    got = assembled.evaluate(P1.z, P2.z)
    want = f.evaluate(P1.z, P2.z)
    assert (got - want).max_abs() <= 1e-13 * max(want.max_abs(), 1.0)


def test_truncated_equals_mu_none():
    a = super_phi(H1, None, P1, P2, "ω", CTX).evaluate(P1.z, P2.z)
    b = super_phi_truncated(H1, P1, P2, "ω", CTX).evaluate(P1.z, P2.z)
    assert a == b


def test_parity_is_odd():
    assert parity(super_phi(H1, "μ1", P1, P2, "ω", CTX).terms) == "odd"
    assert parity(super_phi_truncated(H1, P1, P2, "ω", CTX).terms) == "odd"


def test_monomial_coefficients():
    val = super_phi(H1, "μ1", P1, P2, "ω", CTX).evaluate(P1.z, P2.z)
    base = phi(H1, Z12, CTX)
    dh = phi(H1, Z12, CTX, j=1)
    assert val.coefficient("ζ1") == pytest.approx(base, rel=1e-13)
    assert val.coefficient("ζ2") == pytest.approx(-base, rel=1e-13)
    assert val.coefficient("ω") == pytest.approx(dh, rel=1e-13)
    assert val.coefficient("ζ1ζ2μ1") == pytest.approx(dh, rel=1e-13)
    assert val.coefficient("ζ1ζ2ω") == pytest.approx(phi_derivs(H1, Z12, CTX, 1, 1)[1, 1], rel=1e-12)
    half_dh2 = 0.5 * phi(H1, Z12, CTX, j=2)
    assert val.coefficient("ζ1μ1ω") == pytest.approx(half_dh2, rel=1e-13)
    assert val.coefficient("ζ2μ1ω") == pytest.approx(half_dh2, rel=1e-13)


def test_symmetry_under_argument_swap():
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX).evaluate(P1.z, P2.z)
    g = super_phi(-H1, MUE * (-1), P2, P1, "ω", CTX).evaluate(P2.z, P1.z)
    assert (f - g).max_abs() <= 1e-13 * max(f.max_abs(), 1.0)


def test_residue_at_coincident_points():
    # eps * value approximates the difference of the two odd coordinates
    for eps, bound in ((1e-2, 0.5), (1e-3, 0.05)):
        v = super_phi(H1, "μ1", SuperPoint(P2.z + eps, "ζ1"), P2, "ω", CTX).evaluate(
            P2.z + eps, P2.z
        )
        assert (v * eps - (Z1E - Z2E)).max_abs() < bound


def test_degenerate_closed_forms():
    for kind in ("trig", "rational"):
        templ = super_phi(H1, "μ1", P1, P2, "ω", CTX, kind=kind).evaluate(P1.z, P2.z)
        closed = super_phi_degenerate(kind, H1, "μ1", P1, P2, "ω", CTX)
        assert (templ - closed).max_abs() <= 1e-13 * max(closed.max_abs(), 1.0)
        templ_tr = super_phi_truncated(H1, P1, P2, "ω", CTX, kind=kind).evaluate(P1.z, P2.z)
        closed_tr = super_phi_degenerate(kind, H1, None, P1, P2, "ω", CTX)
        assert (templ_tr - closed_tr).max_abs() <= 1e-13 * max(closed_tr.max_abs(), 1.0)


def test_degenerate_trig_leading_sector():
    got = super_phi_degenerate("trig", H1, "μ1", P1, P2, "ω", CTX)
    assert got.coefficient("ζ1") == pytest.approx(phi_trig(H1, Z12, CTX)[0, 0], rel=1e-13)
    assert got.coefficient("ζ1ζ2ω") == 0j  # no modulus dependence left


# -- input validation ----------------------------------------------------------


def test_slot_collision_rejected():
    # two slots that hold the same plain generator
    with pytest.raises(ValueError):
        super_phi(H1, "μ1", P1, SuperPoint(P2.z, "ζ1"), "ω", CTX)
    with pytest.raises(ValueError):
        super_phi(H1, "ζ2", P1, P2, "ω", CTX)
    # a slot that holds a combination is not a reuse: the shifted odd
    # coordinate of the modulus supertranslation, and the truncated
    # function's parameter displaced by c omega
    shifted = SuperPoint(P1.z, Z1E + OME * TPI)
    super_phi(H1, "μ1", shifted, P2, "ω", CTX)
    super_phi(H1, OME * (TPI / 3), P1, P2, "ω", CTX)


def test_even_odd_parameter_rejected():
    with pytest.raises(ValueError):
        super_phi(H1, GENS.one(), P1, P2, "ω", CTX)
    with pytest.raises(ValueError):
        super_phi(H1, "μ1", SuperPoint(P1.z, Z1E * Z2E), P2, "ω", CTX)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        super_phi(H1, "μ1", P1, P2, "ω", CTX, kind="parabolic")
    with pytest.raises(ValueError):
        SuperFunction(CTX, H1, kind="parabolic")


# -- derivative catalog ---------------------------------------------------------


def test_descriptor_rewrite_flow():
    # on the bare kernel two modulus derivatives rewrite into argument
    # derivatives and stay inside the catalog; a third overflows
    seed = SuperFunction(CTX, H1)
    seed.add_element_term(GENS.one(), 0, 0, 0, 1.0)
    seed.d_tau().d_tau()
    with pytest.raises(CatalogOverflowError):
        seed.d_tau().d_tau().d_tau()
    # the full template already stores a first-order argument derivative,
    # so it survives only one modulus derivative
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX)
    f.d_tau()
    with pytest.raises(CatalogOverflowError):
        f.d_tau().d_tau()


def test_argument_derivative_overflow():
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX)
    f.d_hbar().d_hbar()  # reaches fourth order on the half term
    with pytest.raises(CatalogOverflowError):
        f.d_hbar().d_hbar().d_hbar()


def test_d_z1_matches_central_difference_in_z2():
    # the function depends on z1 - z2 only, so its z2-derivative is -d_z1;
    # a five-point stencil of evaluate checks the symbolic rewrite, including
    # the chain term through the exponential dressing
    step = 1e-3
    for c in (0.0, 0.4 - 0.7j):
        f = super_phi(H1, "μ1", P1, P2, "ω", CTX, exp_coeff=c)

        def at(k):
            return f.evaluate(P1.z, P2.z + k * step)

        central = (at(-2) - at(2) + (at(1) - at(-1)) * 8) / (12 * step)
        want = f.d_z1().evaluate(P1.z, P2.z) * -1.0
        assert (central - want).max_abs() < 1e-9 * max(want.max_abs(), 1.0)


def test_covariant_square_equals_z_derivative():
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX)

    def cov(q):
        return q.d_generator("ζ1") + q.d_z1().lmul(Z1E)

    lhs = cov(cov(f)).evaluate(P1.z, P2.z)
    rhs = f.d_z1().evaluate(P1.z, P2.z)
    assert (lhs - rhs).max_abs() <= 1e-12 * max(rhs.max_abs(), 1.0)


def test_modulus_derivative_matches_finite_difference():
    c, rate, step = 0.37 - 0.21j, 0.5, 1e-6
    # the parameter moves with the modulus at the given rate
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX, exp_coeff=c)
    dt = (f.d_tau() + f.d_hbar().scale(rate)).evaluate(P1.z, P2.z)
    vals = []
    for s in (+1, -1):
        ctx_s = EllipticContext(CTX.tau + s * step)
        fs = super_phi(H1 + rate * s * step, "μ1", P1, P2, "ω", ctx_s, exp_coeff=c)
        vals.append(fs.evaluate(P1.z, P2.z))
    fd = (vals[0] - vals[1]) / (2 * step)
    assert (dt - fd).max_abs() <= 1e-7 * max(dt.max_abs(), 1.0)


def test_tau_term_representations_agree():
    ref = super_phi(H1, "μ1", P1, P2, "ω", CTX).evaluate(P1.z, P2.z)
    heat = super_phi(H1, "μ1", P1, P2, "ω", CTX, tau_term="heat").evaluate(P1.z, P2.z)
    assert (heat - ref).max_abs() <= 1e-13 * max(ref.max_abs(), 1.0)
    # a parameter that moves with the modulus adds the rate term
    rate = 0.5
    moving = super_phi(H1, "μ1", P1, P2, "ω", CTX, hbar_tau_rate=rate).evaluate(P1.z, P2.z)
    want = ref + (Z1E * Z2E * OME) * (TPI * rate * phi(H1, Z12, CTX, j=1))
    assert (moving - want).max_abs() <= 1e-13 * max(want.max_abs(), 1.0)
    with pytest.raises(ValueError):
        super_phi(H1, "μ1", P1, P2, "ω", CTX, tau_term="full")


def test_evaluate_soul_first_order():
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX)
    soul = GENS.generator("ζ3") * GENS.generator("ω") * (0.4 - 0.1j)
    shifted = f.evaluate(P1.z, P2.z, soul=soul)
    # the soul squares to zero so the expansion stops after one derivative
    want = f.evaluate(P1.z, P2.z) + f.d_z1().evaluate(P1.z, P2.z) * soul
    assert (shifted - want).max_abs() <= 1e-12 * max(want.max_abs(), 1.0)


def test_descriptor_canonical_form():
    assert Descriptor(0, 2, 1) == Descriptor(dtau=0, j=2, k=1)
    seed = SuperFunction(CTX, H1)
    seed.add_term(0, 2, 0, 0, 1.0)  # two modulus slots rewrite downward
    descs = seed.terms[0]
    assert set(descs) == {Descriptor(0, 2, 2)}
    assert descs[Descriptor(0, 2, 2)] == pytest.approx((1.0 / TPI) ** 2)


# -- identity residuals ----------------------------------------------------------


@pytest.mark.parametrize("kind", ["elliptic", "trig", "rational"])
def test_three_term_identity(kind):
    res, scale = fay_residual((H1, H2), ("μ1", "μ2"), (P1, P2, P3), "ω", CTX, kind=kind)
    assert rel(res.max_abs(), scale) < 1e-12


def test_three_term_identity_truncated():
    res, scale = fay_residual((H1, H2), None, (P1, P2, P3), "ω", CTX)
    assert rel(res.max_abs(), scale) < 1e-12


def test_three_term_relation_can_fail():
    # a slip in three_term's signs or placements that made the terms cancel
    # trivially would pass the residual tests above; a wrong factor must not
    zs = (P1.z, P2.z, P3.z)

    def kernel(x, a, b):
        return phi(x[0], zs[a] - zs[b], CTX)

    def wrong(x, a, b):
        # a shifted parameter: f(-x) is no longer the reflection of f(x)
        return phi(x[0] + 0.01, zs[a] - zs[b], CTX)

    s, scale = three_term(kernel, (H1,), (H2,))
    assert abs(s) < 1e-10 * scale
    s, scale = three_term(wrong, (H1,), (H2,))
    assert abs(s) > 1e-3 * scale


def test_first_product_sector_cross_checks():
    f1 = super_phi(H1, "μ1", P1, P2, "ω", CTX).evaluate(P1.z, P2.z)
    f2 = super_phi(H2, "μ2", P2, P3, "ω", CTX).evaluate(P2.z, P3.z)
    prod = f1 * f2
    pp = phi(H1, P1.z - P2.z, CTX) * phi(H2, P2.z - P3.z, CTX)
    assert prod.coefficient("ζ1ζ2") == pytest.approx(pp, rel=1e-12)
    assert prod.coefficient("ζ2ζ3") == pytest.approx(pp, rel=1e-12)
    assert prod.coefficient("ζ1ζ3") == pytest.approx(-pp, rel=1e-12)
    mixed = phi(H1, P1.z - P2.z, CTX) * phi(H2, P2.z - P3.z, CTX, j=1)
    assert prod.coefficient("ζ1ω") == pytest.approx(mixed, rel=1e-12)


def test_heat_identity():
    res, scale = heat_residual(H1, "μ1", P1, P2, "ω", CTX)
    assert rel(res.max_abs(), scale) < 1e-12


def test_heat_identity_truncated():
    res, scale = heat_residual(H1, None, P1, P2, "ω", CTX)
    assert rel(res.max_abs(), scale) < 1e-12


# periodicity_residual's pairs run (1, slot 1), (1, slot 2), ("tau", slot 1), ("tau", slot 2)
@pytest.mark.parametrize("direction", [1, "tau"])
@pytest.mark.parametrize("slot", [1, 2])
def test_translation_covariance(direction, slot):
    res, scale = periodicity_residual(H1, "μ1", P1, P2, "ω", CTX)[(direction == "tau") * 2 + slot - 1]
    assert rel(res.max_abs(), scale) < 1e-12


@pytest.mark.parametrize("slot", [1, 2])
def test_translation_covariance_truncated(slot):
    res, scale = periodicity_residual(H1, None, P1, P2, "ω", CTX)[slot + 1]
    assert rel(res.max_abs(), scale) < 1e-12


@pytest.mark.parametrize("truncated", [False, True])
def test_periodicity_sample_evaluates_the_unshifted_function_once(truncated, monkeypatch):
    # one evaluation of the unshifted function and one per shift: 5, not 8
    calls = []
    evaluate = SuperFunction.evaluate

    def counted(self, *args, **kwargs):
        calls.append(args)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(SuperFunction, "evaluate", counted)
    inputs = {"hbar": suites._pair(H1), "z1": suites._pair(P1.z), "z2": suites._pair(P2.z)}
    assert suites.replay_sample("periodicity", inputs, suites.VerifyConfig(truncated=truncated)) < 1e-12
    assert len(calls) == 5


def _bits(elem):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in elem.items()]


@pytest.mark.parametrize("kind", ["elliptic", "trig", "rational"])
def test_evaluate_at_another_parameter_equals_fresh_build(kind):
    # the terms do not depend on the parameter, so one function's plan,
    # combined with tables at another parameter, is bit for bit the
    # evaluation of a function built at that parameter
    opts = dict(kind=kind, exp_coeff=0.3 - 0.8j, hbar_tau_rate=0.5)
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX, **opts)
    own = f.evaluate(P1.z, P2.z)
    rows, sizes = f.plan()
    z12 = P1.z - P2.z
    for h in (H2, H1 + 2.0 - CTX.tau, H1):
        tables = {dtau: kernel_derivs(kind, h, z12, CTX, mj, mk, dtau) for dtau, (mj, mk) in sizes.items()}
        got = f.combine(rows, tables, z12)
        fresh = super_phi(h, "μ1", P1, P2, "ω", CTX, **opts).evaluate(P1.z, P2.z)
        assert _bits(got) == _bits(fresh)
    assert _bits(f.evaluate(P1.z, P2.z)) == _bits(own)
    assert f.hbar == H1


def test_add_term_after_evaluate_changes_the_next_result():
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX)
    before = f.evaluate(P1.z, P2.z)
    # an evaluation with a soul leaves the next evaluation without one as it was
    f.evaluate(P1.z, P2.z, soul=(Z1E * OME) * TPI)
    assert _bits(f.evaluate(P1.z, P2.z)) == _bits(before)
    f.add_term(GENS.mask_of("ζ1ζ2"), 0, 2, 1, 0.75)
    after = f.evaluate(P1.z, P2.z)
    assert after.coefficient("ζ1ζ2") != 0 and before.coefficient("ζ1ζ2") == 0
    want = before + Z1E * Z2E * (0.75 * phi(H1, Z12, CTX, j=2, k=1))
    assert (after - want).max_abs() < 1e-12 * want.max_abs()
    # removing the term again restores the first value exactly
    f.add_term(GENS.mask_of("ζ1ζ2"), 0, 2, 1, -0.75)
    assert _bits(f.evaluate(P1.z, P2.z)) == _bits(before)


def test_pole_guard_propagates():
    with pytest.raises(PoleProximityError):
        super_phi(H1, "μ1", P1, SuperPoint(P1.z + 1e-9, "ζ2"), "ω", CTX).evaluate(
            P1.z, P1.z + 1e-9
        )


def test_dressing_overflow_names_its_point():
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX, exp_coeff=2000.0)
    with pytest.raises(OverflowError, match=r"exponential dressing .*c=\(2000\+0j\), z12="):
        f.evaluate(P1.z, P2.z)


# -- memoized symbolic work ---------------------------------------------------------


@pytest.fixture
def cold_memos(monkeypatch):
    monkeypatch.setattr(superfunc, "_PHI_TERMS", {})


def _row_bits(f):
    return [(m, d, c.real.hex(), c.imag.hex()) for m, d, c in f._rows()]


def _plan_bits(planned):
    rows, sizes = planned
    return [(*r[:4], r[4].real.hex(), r[4].imag.hex()) for r in rows], sizes


def _memo_cases():
    # mu as a sum in either order, with either sign of a zero, and the
    # shifted odd coordinate zeta1 + 2 pi i omega of the periodicity check
    m1, m2 = GENS.mask_of("μ1"), GENS.mask_of("μ2")
    mus = [
        GrassmannElement({m1: 1.0, m2: 1.0}),
        GrassmannElement({m2: 1.0, m1: 1.0}),
        GrassmannElement({m1: complex(1.0, 0.0)}),
        GrassmannElement({m1: complex(1.0, -0.0)}),
        "μ1",
        None,
    ]
    firsts = (P1, SuperPoint(P1.z, Z1E + OME * TPI))
    dressings = ({}, {"exp_coeff": TPI * 2 / 3, "hbar_tau_rate": 2 / 3}, {"exp_coeff": -TPI / 3})
    return [
        (mu, p1, {"tau_term": tau_term, **opts})
        for mu in mus for p1 in firsts for tau_term in ("dtau", "heat") for opts in dressings
    ]


def test_memo_hits_equal_fresh_builds(cold_memos):
    # every case gets its own entry, and a hit gives the rows, plans and
    # evaluation bits of a build with the memo cleared
    souls = (None, (Z1E * OME) * TPI)
    cases = _memo_cases()

    def built(case):
        mu, p1, opts = case
        f = super_phi(H1, mu, p1, P2, "ω", CTX, **opts)
        return _row_bits(f), [_plan_bits(f.plan(s)) for s in souls], [_bits(f.evaluate(p1.z, P2.z, s)) for s in souls]

    for case in cases:
        built(case)
    assert len(superfunc._PHI_TERMS) == len(cases)
    hits = [built(case) for case in cases]
    assert len(superfunc._PHI_TERMS) == len(cases)
    for case, hit in zip(cases, hits):
        superfunc._PHI_TERMS.clear()
        assert hit == built(case), case
    # mu as mu1 + mu2 and as mu2 + mu1 (the first case of each): the sum's
    # terms follow the slot's order
    assert hits[0][0] != hits[len(cases) // 6][0]


def test_memoized_function_is_a_fresh_copy(cold_memos):
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX)
    want = _row_bits(f)
    f.add_term(GENS.mask_of("ζ1ζ2"), 0, 2, 1, 0.75)
    f.add_term(GENS.mask_of("ω"), 0, 1, 0, 1.0)
    g = super_phi(H2, "μ1", P1, P2, "ω", CTX)
    assert _row_bits(g) == want and _row_bits(f) != want
    rows, sizes = g.plan()
    sizes[0] = (9, 9)
    assert g.plan()[1] != sizes
    assert isinstance(rows, tuple)


def test_slot_checks_run_on_every_call(cold_memos):
    super_phi(H1, "μ1", P1, P2, "ω", CTX)
    for _ in range(2):
        with pytest.raises(ValueError, match="generator collision"):
            super_phi(H1, "ζ1", P1, P2, "ω", CTX)
        with pytest.raises(ValueError, match="mu must be parity-odd"):
            super_phi(H1, Z1E * Z2E, P1, P2, "ω", CTX)
        with pytest.raises(ValueError, match="tau_term"):
            super_phi(H1, "μ1", P1, P2, "ω", CTX, tau_term="full")
        with pytest.raises(ValueError, match="soul must be an even element"):
            super_phi(H1, "μ1", P1, P2, "ω", CTX).plan(Z1E)


def test_warm_call_checks_no_slot(cold_memos, monkeypatch):
    # a memo hit repeats inputs that already passed the checks: counted, not timed
    labels = []
    odd_element = superfunc._odd_element

    def counting(spec, label):
        labels.append(label)
        return odd_element(spec, label)

    monkeypatch.setattr(superfunc, "_odd_element", counting)
    cold = super_phi(H1, "μ1", P1, P2, "ω", CTX)
    assert labels == ["zeta", "zeta", "omega", "mu"]
    labels.clear()
    warm = super_phi(H2, "μ1", P1, P2, "ω", CTX)
    assert labels == [] and _row_bits(warm) == _row_bits(cold)


def test_memos_are_cleared_at_their_bound(cold_memos):
    for i in range(elliptic._MEMO_LIMIT):
        super_phi(H1, "μ1", P1, P2, "ω", CTX, exp_coeff=complex(i)).plan()
    assert len(superfunc._PHI_TERMS) == elliptic._MEMO_LIMIT == 1024
    super_phi(H1, "μ1", P1, P2, "ω", CTX, exp_coeff=-1.0).plan()
    assert len(superfunc._PHI_TERMS) == 1


def test_second_graded_sample_builds_no_function(cold_memos, monkeypatch):
    # the terms and plans depend on the slots and dressings only, so a
    # second sample of each graded suite (basis: at the same channels)
    # builds no terms (every memo miss builds through _five_terms) and plans
    # no function fresh from a memo entry; derived functions plan from their
    # terms on every call; counted, not timed
    five_terms, mul, plan_rows = superfunc._five_terms, GrassmannElement.__mul__, SuperFunction._plan_rows
    inside, muls, plans = [False], [], []

    def counting_five_terms(*args, **kwargs):
        inside[0] = True
        try:
            return five_terms(*args, **kwargs)
        finally:
            inside[0] = False

    def counting_mul(self, other):
        if inside[0]:
            muls.append(other)
        return mul(self, other)

    def counting_plan_rows(self, soul):
        if self._plans is not None:
            plans.append(soul)
        return plan_rows(self, soul)

    for module in (superfunc, rmatrix):
        monkeypatch.setattr(module, "_five_terms", counting_five_terms)
    monkeypatch.setattr(GrassmannElement, "__mul__", counting_mul)
    monkeypatch.setattr(SuperFunction, "_plan_rows", counting_plan_rows)
    rng = np.random.default_rng(7)
    for suite in ("fay", "heat", "periodicity", "basis", "degenerations"):
        for truncated in (False, True):
            cfg = suites.VerifyConfig(n=2, truncated=truncated)
            sample, _ = suites._SUITES[suite]
            first, second = sample(rng, cfg), sample(rng, cfg)
            if suite == "basis":
                second.update(alpha=first["alpha"], beta=first["beta"])
            suites.replay_sample(suite, first, cfg)
            if (suite, truncated) == ("fay", False):
                assert muls and plans  # the counters see the cold memos' work
            muls.clear()
            plans.clear()
            suites.replay_sample(suite, second, cfg)
            assert (muls, plans) == ([], []), (suite, truncated)


def test_fresh_functions_carry_their_entry_plans(cold_memos):
    # functions fresh from one super_phi key read one plan per soul from
    # their shared entry
    soul = (Z1E * OME) * TPI
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX)
    rows, sizes = f.plan()
    souled = f.plan(soul)[0]
    g = super_phi(H2, "μ1", P1, P2, "ω", CTX)
    assert g.plan()[0] is rows and g.plan()[1] == sizes and g.plan(soul)[0] is souled is not rows
    # derived functions plan from their terms
    assert g.scale(1.0).plan()[0] == rows
    # add_term and add_element_term drop the carried plans
    g.add_term(GENS.mask_of("ζ1ζ2"), 0, 2, 1, 0.75)
    assert g._plans is None and g.plan()[0] != rows
    h = super_phi(H2, "μ1", P1, P2, "ω", CTX)
    h.add_element_term(Z1E * OME, 0, 1, 0, 0.0)
    assert h._plans is None and h.plan()[0] == rows
    # emptying _PHI_TERMS empties the carried plans with it
    superfunc._PHI_TERMS.clear()
    assert super_phi(H1, "μ1", P1, P2, "ω", CTX)._plans == {}


def test_derived_functions_plan_from_their_terms(cold_memos):
    # heat's operator-built right side with a dressing: its soul-free plan
    # rows are its stored terms, bit for bit, and planning it, with or
    # without a soul, stores nothing in any module-level dict
    f = super_phi(H1, "μ1", P1, P2, "ω", CTX, exp_coeff=-TPI / 3)
    dh = f.d_hbar()
    g = dh.d_generator(GENS.index["ζ1"]) + dh.d_z1().lmul(Z1E) - dh.d_hbar().lmul(MUE).scale(0.5)
    want = tuple((m, *d, c) for m, d, c in g._rows())

    def memos():
        # superfunc._PHI_TERMS among them
        modules = (superfunc, rmatrix, elliptic)
        return [dict(v) for m in modules for name, v in vars(m).items() if isinstance(v, dict) and name[:2] != "__"]

    before = memos()
    for _ in range(2):
        assert _plan_bits(g.plan())[0] == _plan_bits((want, None))[0]
        g.plan((Z1E * OME) * TPI)
    assert g._plans is None and memos() == before


def _heat_keys():
    return [key for key in superfunc._PHI_TERMS if key[0] == "heat_residual"]


def test_heat_sides_from_their_entry_keep_every_bit(cold_memos):
    # full and truncated, mu as a label and as an element, at a point and one shifted by a period: the
    # residual and its scale from the memo that every case filled have the bits of a build with the memo
    # emptied
    mu_e = MUE * (0.3 + 0.7j) - GENS.generator("μ2")
    cases = [(mu, p1) for mu in ("μ1", mu_e, None) for p1 in (P1, SuperPoint(P1.z + 1.0 + CTX.tau, "ζ1"))]

    def heat_bits(mu, p1):
        res, scale = heat_residual(H1, mu, p1, P2, "ω", CTX)
        return _bits(res), scale.hex()

    cold = []
    for case in cases:
        superfunc._PHI_TERMS.clear()
        cold.append(heat_bits(*case))
    warm = [heat_bits(*case) for case in cases for _ in range(2)][1::2]
    assert len(_heat_keys()) == 3 and warm == cold


def test_heat_entries_are_checked_on_a_miss_and_bounded(cold_memos):
    # an omega or zeta1 that is not one plain generator raises as before, on every call, and stores
    # nothing; a miss stores its own entry only, and the entries stay within the memo's bound
    failing = [(P1, 2.0 * OME, "omega is not a single generator"),
               (SuperPoint(P1.z, Z1E + OME * TPI), "ω", "zeta1 is not a single generator"),
               (P1, "ζ1", "generator collision")]
    for _ in range(2):
        for p1, omega, match in failing:
            with pytest.raises(ValueError, match=match):
                heat_residual(H1, "μ1", p1, P2, omega, CTX)
            assert superfunc._PHI_TERMS == {}, match
    m1 = GENS.mask_of("μ1")
    for i in range(elliptic._MEMO_LIMIT + 1):
        heat_residual(H1, GrassmannElement({m1: complex(1.0, i)}), P1, P2, "ω", CTX)
        # one heat entry per call, the last call's stored after a clearing
        assert len(superfunc._PHI_TERMS) == len(_heat_keys()) == i % elliptic._MEMO_LIMIT + 1


# In a fresh process, one cold sample at N = 2 of each suite that builds graded functions, every cache emptied
# before it; printed as JSON: per suite, the builders that lead the keys its sample leaves in _PHI_TERMS
_BUILDERS_SCRIPT = """
import json
import numpy as np
import residual_bits
from superkron import suites, superfunc

rng, out = np.random.default_rng(11), {}
for suite in ("fay", "heat", "periodicity", "degenerations", "basis", "aybe", "cybe"):
    cfg = suites.VerifyConfig(n=2)
    inputs = suites._SUITES[suite][0](rng, cfg)
    residual_bits.empty_caches()
    suites.replay_sample(suite, inputs, cfg)
    out[suite] = sorted({key[0] for key in superfunc._PHI_TERMS})
print(json.dumps(out))
"""


def test_cold_sample_stores_only_the_entries_of_the_builders_it_calls(tmp_path):
    # a miss builds through bodies that store nothing, so no sample leaves an entry that only another
    # entry's miss used: the Yang-Baxter suites keep compiled templates only, basis its channel
    # functions only and heat its sides only; periodicity adds its shifted slots and transition series,
    # degenerations its closed form's prefactors
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _BUILDERS_SCRIPT], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "fay": ["super_phi"], "heat": ["heat_residual"],
        "periodicity": ["periodicity_residual", "super_phi", "transition_factor"],
        "degenerations": ["super_phi", "super_phi_degenerate"], "basis": ["super_basis_phi"],
        "aybe": ["_templates"], "cybe": ["_templates"],
    }


@pytest.mark.parametrize("truncated", [False, True])
def test_warm_graded_sample_builds_nothing_symbolic(truncated, monkeypatch):
    # once a basis and a heat sample have run, a second of each, at new points and parameters (basis: at
    # the same channels), neither calls super_phi or _five_terms, through which every miss builds, nor
    # derives, multiplies or plans a function
    calls = []

    def spying(owner, name):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    for owner in (superfunc, suites):
        spying(owner, "super_phi")
    for owner in (superfunc, rmatrix):
        spying(owner, "_five_terms")
    for name in ("lmul", "_derived", "_plan_rows"):
        spying(SuperFunction, name)
    rng = np.random.default_rng(3)
    cfg = suites.VerifyConfig(n=2, truncated=truncated)
    for suite in ("basis", "heat"):
        sample, _ = suites._SUITES[suite]
        first, second = sample(rng, cfg), sample(rng, cfg)
        if suite == "basis":
            second.update(alpha=first["alpha"], beta=first["beta"])
        superfunc._PHI_TERMS.clear()
        calls.clear()
        suites.replay_sample(suite, first, cfg)
        assert {"_five_terms", "_plan_rows"} <= set(calls), suite  # the spies see a cold sample
        calls.clear()
        suites.replay_sample(suite, second, cfg)
        assert calls == [], suite


@pytest.mark.parametrize("truncated", [False, True])
@pytest.mark.parametrize("suite, kind", [("heat", "elliptic"), ("fay", "elliptic"), ("fay", "trig"),
                                         ("fay", "rational"), ("periodicity", "elliptic"),
                                         ("degenerations", "elliptic"), ("basis", "elliptic")])
def test_graded_sample_makes_each_kernel_table_once(suite, kind, truncated, monkeypatch):
    # a sample stores each (kind, hbar, z, modulus order, reduce) table once:
    # no table is made again or grown, since the larger requests at a point
    # come first.  Each seed is one sample in its own context; basis covers
    # both of its index branches
    stored = []
    remember = elliptic._remember

    def counting(memo, key, value, *limit):
        if isinstance(key, tuple) and key[0] in KINDS:
            stored.append(key)
        return remember(memo, key, value, *limit)

    monkeypatch.setattr(elliptic, "_remember", counting)
    for seed in range(6):
        stored.clear()
        cfg = suites.VerifyConfig(suites=(suite,), samples=1, seed=seed, kind=kind, truncated=truncated)
        assert suites.run_suites(cfg)[0].redraws == 0
        assert stored and len(set(stored)) == len(stored), (seed, stored)


# -- transition factors -----------------------------------------------------------


def test_transition_factor_first_slot_expansion():
    g1 = transition_factor(H1, MUE, Z1E, OME, 1)
    exponent = GENS.scalar(-TPI * H1) + (MUE * Z1E) * TPI - (MUE * OME) * (2 * math.pi**2)
    assert isclose(g1, grassmann_exp(exponent))
    lead = cmath.exp(-TPI * H1)
    assert g1.coefficient(0) == pytest.approx(lead, rel=1e-14)
    assert g1.coefficient("ζ1μ1") == pytest.approx(-TPI * lead, rel=1e-13)
    assert g1.coefficient("μ1ω") == pytest.approx(-2 * math.pi**2 * lead, rel=1e-13)


def test_transition_factor_second_slot_expansion():
    g2 = transition_factor(H1, MUE, Z2E, OME, 2)
    exponent = GENS.scalar(TPI * H1) - (MUE * Z2E) * TPI + (MUE * OME) * (2 * math.pi**2)
    assert isclose(g2, grassmann_exp(exponent))


def test_transition_factor_truncated_is_plain_exponential():
    for slot, sign in ((1, -1), (2, 1)):
        g = transition_factor(H1, None, Z1E, OME, slot)
        assert [m for m, _ in g.items()] == [0]
        assert g.coefficient(0) == pytest.approx(cmath.exp(sign * TPI * H1), rel=1e-14)


def test_truncated_modulus_shift_multiplier():
    # shifting the first even coordinate by the modulus scales the whole
    # truncated function by exp(-2 pi i hbar)
    base = super_phi_truncated(H1, P1, P2, "ω", CTX).evaluate(P1.z, P2.z, reduce=False)
    zeta1_shift = Z1E + OME * TPI
    shifted = super_phi(H1, None, SuperPoint(P1.z, zeta1_shift), P2, "ω", CTX).evaluate(
        P1.z + CTX.tau, P2.z, soul=(Z1E * OME) * TPI, reduce=False
    )
    want = base * cmath.exp(-TPI * H1)
    assert (shifted - want).max_abs() <= 1e-12 * max(want.max_abs(), 1.0)


# -- label-only elements of the periodicity and degeneration checks ---------------------------------------


def _keys(builder):
    return [key for key in superfunc._PHI_TERMS if key[0] == builder]


def _warm_bits_are_cold_bits(cases, bits_of):
    # each case built cold, every cache of the package emptied before it, then each twice after all of them,
    # the second time from the memo that every case filled
    cold = []
    for case in cases:
        residual_bits.empty_caches()
        cold.append(bits_of(*case))
    warm = [bits_of(*case) for case in cases for _ in range(2)][1::2]
    assert warm == cold
    return cold


# hbar with signed-zero parts, where a zero's sign reaches exp(-/+ 2 pi i hbar); the last makes no body at all
_SIGNED_ZERO_HBARS = (H1, complex(0.25, -0.0), complex(-0.0, 0.7), complex(-0.0, -0.3), complex(0.0, -0.0))


def _transition_reference(hbar, mu, zeta, slot):
    # the whole exponent as one element, exponentiated with no memo
    sign = -1.0 if slot == 1 else 1.0
    exponent = GENS.scalar(sign * TPI * complex(hbar))
    if mu is not None:
        mu_e, zeta_e = superfunc._as_element(mu), superfunc._as_element(zeta)
        exponent = exponent + (mu_e * zeta_e + (mu_e * OME) * (1j * math.pi)) * (-sign * TPI)
    return grassmann_exp(exponent)


def test_transition_series_from_its_entry_keeps_every_bit(cold_memos):
    # both slots, mu as None, a label and an element with a signed zero, zeta as a label and as the shifted
    # zeta + 2 pi i omega of the periodicity check: one entry per (mu, zeta, omega, slot), not per hbar, and
    # the bits of grassmann_exp of the whole exponent
    mu_e = GrassmannElement({GENS.mask_of("μ1"): complex(0.5, -0.0), GENS.mask_of("μ2"): -1.25 + 0.5j})
    cases = [(h, mu, zeta, OME, slot) for slot in (1, 2) for mu in (None, "μ1", mu_e)
             for zeta in ("ζ1", Z1E + OME * TPI) for h in _SIGNED_ZERO_HBARS]
    cold = _warm_bits_are_cold_bits(cases, lambda *case: _bits(transition_factor(*case)))
    assert len(_keys("transition_factor")) == 12 and len(superfunc._PHI_TERMS) == 12
    for (h, mu, zeta, _, slot), got in zip(cases, cold):
        assert got == _bits(_transition_reference(h, mu, zeta, slot)), (h, mu, zeta, slot)


def test_degenerate_prefactors_from_their_entry_keep_every_bit(cold_memos):
    # both kinds, mu as None and as a label: one entry per set of slots, shared by both kinds, and the bits of
    # the closed form written out
    cases = [(kind, h, mu, P1, P2, "ω", CTX) for kind in ("trig", "rational") for mu in (None, "μ1") for h in (H1, H2)]
    cold = _warm_bits_are_cold_bits(cases, lambda *case: _bits(super_phi_degenerate(*case)))
    assert len(_keys("super_phi_degenerate")) == 2 and len(superfunc._PHI_TERMS) == 2
    for (kind, h, mu, *_), got in zip(cases, cold):
        base, d1, d2 = kernel_derivs(kind, h, Z12, CTX, max_j=2)[:, 0]
        want = (Z1E - Z2E) * base + OME * d1
        if mu is not None:
            want = want + Z1E * Z2E * MUE * d1
            want = want + (Z1E + Z2E) * MUE * OME * (0.5 * d2)
        assert got == _bits(want), (kind, mu)


def test_periodicity_residuals_from_their_entries_keep_every_bit(cold_memos):
    # plain and truncated, each residual and its scale, also with one combination in both slots, whose
    # shifted slots differ in the sign of their soul: one shifted-slot entry per slot, every residual small
    def residual_bits_of(*case):
        out = periodicity_residual(*case)
        assert max(rel(res.max_abs(), scale) for res, scale in out) < 1e-12
        return [(_bits(res), scale.hex()) for res, scale in out]

    mix = Z1E + Z2E * 0.5
    slots = ((P1, P2), (SuperPoint(P1.z, mix), SuperPoint(P2.z, mix)))
    cases = [(h, mu, *pts, "ω", CTX) for pts in slots for mu in ("μ1", None) for h in (H1, H2)]
    _warm_bits_are_cold_bits(cases, residual_bits_of)
    assert len(_keys("periodicity_residual")) == 4 and len(_keys("transition_factor")) == 8


def test_label_only_entries_are_checked_on_a_miss(cold_memos):
    # an even zeta or omega, an unknown label or a bad kind raises its error on every call and stores nothing
    even, shifted = Z1E * Z2E, SuperPoint(P1.z, Z1E * Z2E)
    failing = [
        (ValueError, "^zeta must be parity-odd$", lambda: transition_factor(H1, "μ1", even, "ω", 1)),
        (ValueError, "^omega must be parity-odd$", lambda: transition_factor(H1, "μ1", "ζ1", even, 2)),
        (KeyError, "unknown generator 'μ9'", lambda: transition_factor(H1, "μ9", "ζ1", "ω", 1)),
        (ValueError, "^degenerate kinds are 'trig' and 'rational'$",
         lambda: super_phi_degenerate("elliptic", H1, "μ1", P1, P2, "ω", CTX)),
        (ValueError, "^zeta must be parity-odd$", lambda: super_phi_degenerate("trig", H1, "μ1", shifted, P2, "ω", CTX)),
        (ValueError, "^omega must be parity-odd$", lambda: super_phi_degenerate("trig", H1, None, P1, P2, even, CTX)),
        (KeyError, "unknown generator 'μ9'", lambda: super_phi_degenerate("rational", H1, "μ9", P1, P2, "ω", CTX)),
        (ValueError, "^zeta must be parity-odd$", lambda: periodicity_residual(H1, "μ1", shifted, P2, "ω", CTX)),
        (ValueError, "^omega must be parity-odd$", lambda: periodicity_residual(H1, None, P1, P2, even, CTX)),
        (KeyError, "unknown generator 'ζ9'", lambda: periodicity_residual(H1, "μ1", SuperPoint(P1.z, "ζ9"), P2, "ω", CTX)),
    ]
    for _ in range(2):
        for error, match, call in failing:
            with pytest.raises(error, match=match):
                call()
            assert superfunc._PHI_TERMS == {}, match
    # an overflowing exp(-/+ 2 pi i hbar) raises after the series is kept, on a miss and on a hit
    for slot, hbar in ((1, 1e3j), (2, -1e3j)):
        for _ in range(2):
            with pytest.raises(OverflowError, match="math range error"):
                transition_factor(hbar, "μ1", "ζ1", "ω", slot)
    assert len(_keys("transition_factor")) == 2


def test_label_only_entries_stay_within_the_bound(cold_memos):
    # each transition_factor or super_phi_degenerate miss stores its own entry only, the memo is cleared at
    # its bound, and a periodicity sample at a full memo leaves the entries of a cold one
    m1 = GENS.mask_of("μ1")
    for builder, call in (("transition_factor", lambda mu: transition_factor(H1, mu, "ζ1", "ω", 1)),
                          ("super_phi_degenerate", lambda mu: super_phi_degenerate("trig", H1, mu, P1, P2, "ω", CTX))):
        superfunc._PHI_TERMS.clear()
        for i in range(elliptic._MEMO_LIMIT + 1):
            call(GrassmannElement({m1: complex(1.0, i)}))
            assert len(superfunc._PHI_TERMS) == len(_keys(builder)) == i % elliptic._MEMO_LIMIT + 1
    superfunc._PHI_TERMS.clear()
    periodicity_residual(H1, "μ1", P1, P2, "ω", CTX)
    cold = list(superfunc._PHI_TERMS)
    superfunc._PHI_TERMS.clear()
    for i in range(elliptic._MEMO_LIMIT):
        transition_factor(H1, GrassmannElement({m1: complex(1.0, i)}), "ζ1", "ω", 1)
    periodicity_residual(H1, "μ1", P1, P2, "ω", CTX)
    assert list(superfunc._PHI_TERMS) == cold
