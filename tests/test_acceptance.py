"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and
sample count, and emits a single PASS/FAIL line on the real stdout so the
verdicts stay visible regardless of capture settings.
"""

import cmath
import math
import time
from itertools import product

import numpy as np
from helpers import aybe_factors, cybe_factors, kappa

from superkron.elliptic import (
    EllipticContext,
    PoleProximityError,
    phi_derivs,
    phi_tau_derivs,
)
from superkron.grassmann import default_generators
from superkron.rmatrix import (
    HeisenbergBasis,
    MultiIndex,
    aybe_residual,
    build_R,
    cybe_residual,
    super_basis_phi,
)
from superkron.suites import VerifyConfig, run_suites
from superkron.superfunc import (
    SuperFunction,
    SuperPoint,
    super_phi,
    transition_factor,
)

GENS = default_generators()
TAU = 0.3 + 1.1j
CTX = EllipticContext(TAU)
TPI = 2j * math.pi

MAX_REDRAWS = 64


def emit(capsys, number, label, worst, tol, ok, seconds):
    status = "PASS" if ok else "FAIL"
    line = (
        f"{status} criterion {number:>2}: {label} "
        f"(worst {worst:.3e}, tol {tol:.0e}, {seconds:.1f}s)"
    )
    with capsys.disabled():
        print(line, flush=True)
    return ok


def suite_worst(reports):
    return max(r.max_residual for r in reports)


def cell_point(rng):
    a, b = rng.uniform(0.1, 0.9, size=2)
    return complex(a + b * TAU)


def draw(rng, sampler):
    for _ in range(MAX_REDRAWS):
        try:
            return sampler(rng)
        except PoleProximityError:
            continue
    raise RuntimeError("sampler kept hitting poles")


def test_criterion_01_foundation_heat_and_periodicity(capsys):
    start = time.perf_counter()
    cfg = VerifyConfig(samples=200, tol_relative=1e-10, suites=("theta", "kronecker"))
    reports = run_suites(cfg)
    seconds = time.perf_counter() - start
    worst = suite_worst(reports)
    ok = all(r.passed for r in reports) and seconds < 5.0
    assert emit(capsys, 1, "kernel heat equations and quasi-periodicity", worst, 1e-10, ok, seconds)


def test_criterion_02_scalar_and_channel_three_term_identities(capsys):
    start = time.perf_counter()
    reports = list(
        run_suites(VerifyConfig(samples=200, tol_relative=1e-10, suites=("fay",)))
    )
    for n in (2, 3):
        reports += run_suites(
            VerifyConfig(n=n, samples=200, tol_relative=1e-10, suites=("basis",))
        )
    seconds = time.perf_counter() - start
    worst = suite_worst(reports)
    ok = all(r.passed for r in reports)
    assert emit(capsys, 2, "three-term identities, scalar and channel bases", worst, 1e-10, ok, seconds)


def test_criterion_03_super_three_term_all_variants(capsys):
    start = time.perf_counter()
    reports = []
    for kwargs in (
        {"kind": "elliptic"},
        {"kind": "elliptic", "truncated": True},
        {"kind": "trig"},
        {"kind": "rational"},
    ):
        reports += run_suites(
            VerifyConfig(samples=200, tol_relative=1e-10, suites=("fay",), **kwargs)
        )
    seconds = time.perf_counter() - start
    worst = suite_worst(reports)
    ok = all(r.passed for r in reports) and seconds < 30.0
    assert emit(capsys, 3, "graded three-term identity, 4 variants x 200 samples", worst, 1e-10, ok, seconds)


def test_criterion_04_super_heat_equation(capsys):
    start = time.perf_counter()
    reports = run_suites(VerifyConfig(samples=200, tol_relative=1e-9, suites=("heat",)))
    reports += run_suites(
        VerifyConfig(samples=200, tol_relative=1e-9, suites=("heat",), truncated=True)
    )
    seconds = time.perf_counter() - start
    worst = suite_worst(reports)
    ok = all(r.passed for r in reports)
    assert emit(capsys, 4, "graded heat equation, full and truncated", worst, 1e-9, ok, seconds)


def test_criterion_05_supertranslation_covariance(capsys):
    start = time.perf_counter()
    reports = run_suites(
        VerifyConfig(samples=200, tol_relative=1e-9, suites=("periodicity",))
    )
    reports += run_suites(
        VerifyConfig(samples=200, tol_relative=1e-9, suites=("periodicity",), truncated=True)
    )
    worst = suite_worst(reports)
    # the truncated transition factor must be the bare exponential
    mult_err = 0.0
    rng = np.random.default_rng(5)
    for _ in range(50):
        h = cell_point(rng)
        for slot, sign in ((1, -1), (2, 1)):
            g = transition_factor(h, None, GENS.generator("ζ1"), GENS.generator("ω"), slot)
            pure = [m for m, _ in g.items()] == [0]
            mult_err = max(
                mult_err, abs(g.coefficient(0) - cmath.exp(sign * TPI * h))
            )
            if not pure:
                mult_err = max(mult_err, 1.0)
    seconds = time.perf_counter() - start
    worst = max(worst, mult_err)
    ok = all(r.passed for r in reports) and mult_err < 1e-12
    assert emit(capsys, 5, "translation covariance, all direction/slot pairs", worst, 1e-9, ok, seconds)


def test_criterion_06_finite_heisenberg_algebra_exhaustive(capsys):
    start = time.perf_counter()
    worst = 0.0
    for N in (2, 3, 4):
        b = HeisenbergBasis(N)
        eye = np.eye(N)
        worst = max(worst, np.abs(np.linalg.matrix_power(b.q_power(1), N) - eye).max())
        worst = max(worst, np.abs(np.linalg.matrix_power(b.lam_power(1), N) - eye).max())
        clock = np.diag([cmath.exp(TPI * k / N) for k in range(1, N + 1)])
        shift = np.zeros((N, N), dtype=complex)
        for k in range(N):
            shift[k, (k + 1) % N] = 1.0
        worst = max(worst, np.abs(b.q_power(1) - clock).max(), np.abs(b.lam_power(1) - shift).max())
        for a1, a2 in product(range(-N, N + 1), repeat=2):
            lhs = cmath.exp(TPI * a1 * a2 / N) * b.q_power(a1) @ b.lam_power(a2)
            worst = max(worst, np.abs(lhs - b.lam_power(a2) @ b.q_power(a1)).max())
        idx = [MultiIndex(i, j) for i, j in product(range(N), repeat=2)]
        for al in idx:
            for be in idx:
                prod_err = np.abs(b.t(al) @ b.t(be) - kappa(al, be, N) * b.t(al + be)).max()
                vals = (
                    kappa(be, al, N),
                    kappa(-al, be, N),
                    kappa(be, al - be, N),
                    kappa(al - be, -al, N),
                )
                four_way = max(abs(v - vals[0]) for v in vals)
                worst = max(worst, prod_err, four_way)
    seconds = time.perf_counter() - start
    ok = worst < 1e-13
    assert emit(capsys, 6, "finite Heisenberg relations, exhaustive N=2,3,4", worst, 1e-13, ok, seconds)


def _three_point_sample(rng):
    pts = (
        SuperPoint(cell_point(rng), "ζ1"),
        SuperPoint(cell_point(rng), "ζ2"),
        SuperPoint(cell_point(rng), "ζ3"),
    )
    hbars = (cell_point(rng), cell_point(rng))
    return hbars, pts


def test_criterion_07_ordinary_yang_baxter_equations(capsys):
    start = time.perf_counter()
    worst = 0.0
    for N in (2, 3):
        b = HeisenbergBasis(N)
        rng = np.random.default_rng([7, N])

        def one_sample(r):
            hbars, pts = _three_point_sample(r)
            res, scale = aybe_residual(aybe_factors(hbars, None, pts, b, CTX))
            out = res.max_abs() / max(scale, 1.0)
            res2, scale2 = cybe_residual(cybe_factors(pts, b, CTX))
            return max(out, res2.max_abs() / max(scale2, 1.0))

        for _ in range(100):
            worst = max(worst, draw(rng, one_sample))
    seconds = time.perf_counter() - start
    ok = worst < 1e-10 and seconds < 60.0
    assert emit(capsys, 7, "ordinary associative/classical Yang-Baxter, N=2,3", worst, 1e-10, ok, seconds)


def test_criterion_08_super_yang_baxter_equations(capsys):
    start = time.perf_counter()
    worst = 0.0
    for N, count in ((2, 100), (3, 25)):
        b = HeisenbergBasis(N)
        rng = np.random.default_rng([8, N])

        def one_sample(r):
            hbars, pts = _three_point_sample(r)
            res, scale = aybe_residual(aybe_factors(hbars, ("μ1", "μ2"), pts, b, CTX, odd=True))
            out = res.max_abs() / max(scale, 1.0)
            res2, scale2 = cybe_residual(cybe_factors(pts, b, CTX, odd=True))
            return max(out, res2.max_abs() / max(scale2, 1.0))

        for _ in range(count):
            worst = max(worst, draw(rng, one_sample))
    seconds = time.perf_counter() - start
    ok = worst < 1e-9 and seconds < 300.0
    assert emit(capsys, 8, "graded associative/classical Yang-Baxter", worst, 1e-9, ok, seconds)


def test_channel_suites_far_from_the_real_axis():
    # at Im tau = 60 and N = 6 the channel parameters hbar + (a1 + a2 tau)/N
    # lie up to 50 off the real axis, and the modulus-derivative tables are
    # summed at the reduced points (ROADMAP item 1); the tolerances are
    # criterion 2's for basis and criterion 8's for aybe
    for suite, tol in (("basis", 1e-10), ("aybe", 1e-9)):
        reports = run_suites(VerifyConfig(n=6, tau=0.3 + 60j, samples=20, tol_relative=tol, suites=(suite,)))
        assert all(r.passed for r in reports), (suite, suite_worst(reports))


def test_criterion_09_cross_representation_assemblies(capsys):
    start = time.perf_counter()
    worst = 0.0
    z1e, z2e = GENS.generator("ζ1"), GENS.generator("ζ2")
    mue, ome = GENS.generator("μ1"), GENS.generator("ω")

    # five-term template vs explicit operator assembly on a bare seed
    rng = np.random.default_rng(91)

    def template_sample(r):
        h = cell_point(r)
        pa = SuperPoint(cell_point(r), "ζ1")
        pb = SuperPoint(cell_point(r), "ζ2")
        seed = SuperFunction(CTX, h)
        seed.add_element_term(GENS.one(), 0, 0, 0, 1.0)
        assembled = (
            seed.lmul(z1e - z2e)
            + seed.d_hbar().lmul(ome)
            + seed.d_tau().lmul(z1e * z2e * ome).scale(TPI)
            + seed.d_hbar().lmul(z1e * z2e * mue)
            + seed.d_hbar().d_hbar().lmul((z1e + z2e) * mue * ome).scale(0.5)
        )
        want = super_phi(h, "μ1", pa, pb, "ω", CTX).evaluate(pa.z, pb.z)
        got = assembled.evaluate(pa.z, pb.z)
        return (got - want).max_abs() / max(want.max_abs(), 1.0)

    for _ in range(100):
        worst = max(worst, draw(rng, template_sample))

    # channel function: dressed shift vs soul shift vs modulus-derivative forms
    rng = np.random.default_rng(92)
    N = 2

    def channel_sample(r):
        al = MultiIndex(int(r.integers(0, N)), int(r.integers(0, N)))
        h = cell_point(r)
        pa = SuperPoint(cell_point(r), "ζ1")
        pb = SuperPoint(cell_point(r), "ζ2")
        ref = super_basis_phi(al, h, "μ1", pa, pb, "ω", CTX, N, form="shift").evaluate(pa.z, pb.z)
        out = 0.0
        for form in ("mu-shift", "basis", "heat"):
            v = super_basis_phi(al, h, "μ1", pa, pb, "ω", CTX, N, form=form).evaluate(pa.z, pb.z)
            out = max(out, (v - ref).max_abs() / max(ref.max_abs(), 1.0))
        return out

    for _ in range(100):
        worst = max(worst, draw(rng, channel_sample))

    # assembled two-site operator under the three equivalent channel forms
    rng = np.random.default_rng(93)
    basis = HeisenbergBasis(N)

    def operator_sample(r):
        h = cell_point(r)
        pa = SuperPoint(cell_point(r), "ζ1")
        pb = SuperPoint(cell_point(r), "ζ2")
        ref = build_R(h, "μ1", pa, pb, "ω", basis, CTX, super=True, form="shift")
        out = 0.0
        for form in ("basis", "heat"):
            v = build_R(h, "μ1", pa, pb, "ω", basis, CTX, super=True, form=form)
            out = max(out, (v - ref).max_abs() / max(ref.max_abs(), 1.0))
        return out

    for _ in range(20):
        worst = max(worst, draw(rng, operator_sample))

    seconds = time.perf_counter() - start
    ok = worst < 1e-11
    assert emit(capsys, 9, "cross-representation assembly agreement", worst, 1e-11, ok, seconds)


def test_criterion_10_derivative_catalog_finite_differences(capsys):
    start = time.perf_counter()
    step = 1e-5
    worst = 0.0
    stored = [(j, k) for j in range(5) for k in range(5 - j)]

    def sample_pair(r):
        h = cell_point(r)
        z = cell_point(r)
        return h, z

    # argument-direction chains within the stored table
    for (j, k) in stored:
        for direction in ("hbar", "z"):
            if direction == "hbar" and j == 0:
                continue
            if direction == "z" and k == 0:
                continue
            rng = np.random.default_rng([10, j, k, 0 if direction == "hbar" else 1])
            for _ in range(100):
                h, z = draw(rng, sample_pair)
                target = phi_derivs(h, z, CTX, j, k, reduce=False)[j, k]
                if direction == "hbar":
                    up = phi_derivs(h + step, z, CTX, j - 1, k, reduce=False)[j - 1, k]
                    dn = phi_derivs(h - step, z, CTX, j - 1, k, reduce=False)[j - 1, k]
                else:
                    up = phi_derivs(h, z + step, CTX, j, k - 1, reduce=False)[j, k - 1]
                    dn = phi_derivs(h, z - step, CTX, j, k - 1, reduce=False)[j, k - 1]
                fd = (up - dn) / (2 * step)
                worst = max(worst, abs(target - fd) / max(abs(target), 1.0))

    # modulus-direction entries
    for j in (0, 1):
        rng = np.random.default_rng([10, 7, j])
        for _ in range(100):
            h, z = draw(rng, sample_pair)
            target = phi_tau_derivs(h, z, CTX, max_j=j)[j, 0]
            up = phi_derivs(h, z, EllipticContext(TAU + step), j, 0, reduce=False)[j, 0]
            dn = phi_derivs(h, z, EllipticContext(TAU - step), j, 0, reduce=False)[j, 0]
            fd = (up - dn) / (2 * step)
            worst = max(worst, abs(target - fd) / max(abs(target), 1.0))

    seconds = time.perf_counter() - start
    ok = worst < 1e-6
    assert emit(capsys, 10, "derivative catalog vs central finite differences", worst, 1e-6, ok, seconds)
