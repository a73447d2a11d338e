"""Randomized verification suites with deterministic sampling and replay.

Each suite pairs a sampler (drawing inputs from the fundamental cell, scaled
away from the edges) with a pure compute function returning the worst
relative residual for that sample.  Samplers use a per-suite generator
seeded from (seed, crc32(suite name)), so reports are reproducible and
independent of which other suites run.  Samples that land inside a pole
exclusion zone are redrawn a bounded number of times.  A residual that is
not finite counts as infinite, so its sample fails the suite.
"""

from __future__ import annotations

import cmath
import math
import zlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from .elliptic import (
    KINDS,
    EllipticContext,
    PoleProximityError,
    kernel_derivs,
    phi_derivs,
    phi_tau_derivs,
    theta,
    theta_stack,
)
from .grassmann import GrassmannElement, default_generators
from .rmatrix import (
    HeisenbergBasis,
    MultiIndex,
    aybe_ops,
    aybe_residual,
    basis_phi,
    channel_sums,
    cybe_ops,
    cybe_residual,
    super_basis_phi,
)
from .superfunc import (
    SuperPoint,
    fay_residual,
    heat_residual,
    periodicity_residual,
    super_phi,
    super_phi_degenerate,
    three_term,
)

__all__ = ["SUITE_NAMES", "SamplingError", "VerifyConfig", "SuiteReport", "run_suites", "replay_sample"]

_TWO_PI_I = 2j * math.pi

SUITE_NAMES = (
    "theta",
    "kronecker",
    "fay",
    "heat",
    "periodicity",
    "basis",
    "cybe",
    "aybe",
    "degenerations",
)

OUTPUT_CHOICES = ("text", "structured")

_MAX_REDRAWS = 64


class SamplingError(ValueError):
    """No pole-free sample within the redraw budget: the pole radius leaves no room."""


@dataclass(frozen=True)
class VerifyConfig:
    """Bundle of knobs shared by every suite run."""

    n: int = 2
    tau: complex = 0.3 + 1.1j
    samples: int = 200
    tol_relative: float = 1e-9
    seed: int = 42
    pole_radius: float = 1e-3
    suites: tuple = ("all",)
    kind: str = "elliptic"
    output: str = "text"
    truncated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tau", complex(self.tau))
        self.context()  # rejects a bad modulus or pole radius before any suite runs
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if not (math.isfinite(self.tol_relative) and self.tol_relative > 2.3e-16):
            raise ValueError("tolerance must be finite and exceed machine epsilon")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.output not in OUTPUT_CHOICES:
            raise ValueError(f"output must be one of {OUTPUT_CHOICES}")
        names = tuple(self.suites)
        for s in names:
            if s != "all" and s not in SUITE_NAMES:
                raise ValueError(f"unknown suite {s!r}")
        object.__setattr__(self, "suites", names)

    def selected(self) -> tuple:
        if "all" in self.suites:
            return SUITE_NAMES
        # preserve canonical order, drop duplicates
        return tuple(s for s in SUITE_NAMES if s in self.suites)

    def context(self) -> EllipticContext:
        return EllipticContext(self.tau, pole_radius=self.pole_radius)


@dataclass
class SuiteReport:
    """One suite's result; redraws counts the draws discarded inside the pole radius."""

    suite: str
    samples: int
    max_residual: float
    worst_inputs: dict
    passed: bool
    seconds: float
    redraws: int

    def to_dict(self) -> dict:
        """Record of the structured report; an infinite max_residual is the string "inf"."""
        r = self.max_residual
        return {
            "suite": self.suite,
            "samples": self.samples,
            "max_residual": r if math.isfinite(r) else repr(r),
            "worst_inputs": self.worst_inputs,
            "pass": self.passed,
            "seconds": self.seconds,
            "redraws": self.redraws,
        }


# -- sampling helpers ----------------------------------------------------------


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _unpair(v) -> complex:
    return complex(v[0], v[1])


def _cells(*names: str) -> Callable:
    """Sampler of one cell point per name, uniform over [0.1, 0.9]^2 in (1, tau) coordinates: one draw of
    both coordinates of every name, x before y, in the order given."""

    def sample(rng, cfg):
        u = rng.uniform(0.1, 0.9, size=2 * len(names)).tolist()
        return {name: _pair(x + y * cfg.tau) for name, x, y in zip(names, u[::2], u[1::2])}

    return sample


def _rel(residual: float, scale: float) -> float:
    """residual / max(scale, 1); infinite when either is not finite, so max() keeps it."""
    if not (math.isfinite(residual) and math.isfinite(scale)):
        return math.inf
    return residual / max(scale, 1.0)


def _scalar_relation(f, zs, x1, x2) -> float:
    """Relative three_term residual of a scalar kernel f(*x, z) at the even points zs."""
    s, scale = three_term(lambda x, a, b: f(*x, zs[a] - zs[b]), x1, x2)
    return _rel(abs(s), scale)


def _kernel_relation(kind: str, ctx: EllipticContext, zs, h1: complex, h2: complex) -> float:
    """_scalar_relation of the plain kernel of the given family."""
    return _scalar_relation(lambda h, z: kernel_derivs(kind, h, z, ctx)[0, 0], zs, (h1,), (h2,))


# -- suite: theta --------------------------------------------------------------


def _compute_theta(inputs, cfg) -> float:
    ctx = cfg.context()
    tau = cfg.tau
    z = _unpair(inputs["z"])
    dt = complex(theta_stack(z, ctx, 2, dtau=1)[0])
    th = theta(z, ctx)
    d2 = theta(z, ctx, dz=2)
    lhs = 4j * math.pi * dt
    rel = _rel(abs(lhs - d2), max(abs(lhs), abs(d2)))
    shifted1 = theta(z + 1.0, ctx)
    rel = max(rel, _rel(abs(shifted1 + th), max(abs(shifted1), abs(th))))
    # the series first, so a point too far out raises the series error that names it
    shiftedt = theta(z + tau, ctx)
    fac = -cmath.exp(-1j * math.pi * tau - _TWO_PI_I * z)
    rel = max(rel, _rel(abs(shiftedt - fac * th), max(abs(shiftedt), abs(fac * th))))
    return rel


# -- suite: kronecker ----------------------------------------------------------


def _compute_kronecker(inputs, cfg) -> float:
    ctx = cfg.context()
    h = _unpair(inputs["hbar"])
    z = _unpair(inputs["z"])
    tab = phi_derivs(h, z, ctx, 1, 1)
    base = tab[0, 0]
    # flow identity via the independent modulus-differentiated series
    lhs = _TWO_PI_I * phi_tau_derivs(h, z, ctx, 0, 0)[0, 0]
    rhs = tab[1, 1]
    rel = _rel(abs(lhs - rhs), max(abs(lhs), abs(rhs)))
    shifted1 = phi_derivs(h, z + 1.0, ctx, 0, 0, reduce=False)[0, 0]
    rel = max(rel, _rel(abs(shifted1 - base), abs(base)))
    fac = cmath.exp(-_TWO_PI_I * h)
    shiftedt = phi_derivs(h, z + cfg.tau, ctx, 0, 0, reduce=False)[0, 0]
    rel = max(rel, _rel(abs(shiftedt - fac * base), max(abs(shiftedt), abs(fac * base))))
    rel = max(rel, _rel(abs(phi_derivs(z, h, ctx)[0, 0] - base), abs(base)))
    rel = max(rel, _rel(abs(phi_derivs(-h, -z, ctx)[0, 0] + base), abs(base)))
    return rel


# -- suite: fay ----------------------------------------------------------------


_sample_three_points = _cells("hbar1", "hbar2", "z1", "z2", "z3")


def _points(inputs) -> tuple:
    return (
        SuperPoint(_unpair(inputs["z1"]), "ζ1"),
        SuperPoint(_unpair(inputs["z2"]), "ζ2"),
        SuperPoint(_unpair(inputs["z3"]), "ζ3"),
    )


def _compute_fay(inputs, cfg) -> float:
    ctx = cfg.context()
    h1 = _unpair(inputs["hbar1"])
    h2 = _unpair(inputs["hbar2"])
    zs = [_unpair(inputs[k]) for k in ("z1", "z2", "z3")]
    mus = None if cfg.truncated else ("μ1", "μ2")
    # graded first: the scalar relation then reads cell (0, 0) of its tables
    res, scale = fay_residual((h1, h2), mus, _points(inputs), "ω", ctx, kind=cfg.kind)
    return max(_kernel_relation(cfg.kind, ctx, zs, h1, h2), _rel(res.max_abs(), scale))


# -- suite: heat ---------------------------------------------------------------


def _compute_heat(inputs, cfg) -> float:
    ctx = cfg.context()
    h = _unpair(inputs["hbar"])
    p1 = SuperPoint(_unpair(inputs["z1"]), "ζ1")
    p2 = SuperPoint(_unpair(inputs["z2"]), "ζ2")
    mu = None if cfg.truncated else "μ1"
    res, scale = heat_residual(h, mu, p1, p2, "ω", ctx)
    return _rel(res.max_abs(), scale)


# -- suite: periodicity --------------------------------------------------------


def _compute_periodicity(inputs, cfg) -> float:
    ctx = cfg.context()
    h = _unpair(inputs["hbar"])
    p1 = SuperPoint(_unpair(inputs["z1"]), "ζ1")
    p2 = SuperPoint(_unpair(inputs["z2"]), "ζ2")
    mu = None if cfg.truncated else "μ1"
    return max(_rel(res.max_abs(), scale) for res, scale in periodicity_residual(h, mu, p1, p2, "ω", ctx))


# -- suite: basis --------------------------------------------------------------


def _sample_basis(rng, cfg) -> dict:
    s = _sample_three_points(rng, cfg)
    s["alpha"] = [int(v) for v in rng.integers(0, cfg.n, size=2)]
    s["beta"] = [int(v) for v in rng.integers(0, cfg.n, size=2)]
    return s


def _compute_basis(inputs, cfg) -> float:
    ctx = cfg.context()
    N = cfg.n
    gens = default_generators()
    h1 = _unpair(inputs["hbar1"])
    h2 = _unpair(inputs["hbar2"])
    zs = [_unpair(inputs[k]) for k in ("z1", "z2", "z3")]
    al = MultiIndex(*inputs["alpha"])
    be = MultiIndex(*inputs["beta"])
    pts = _points(inputs)
    mu1 = gens.generator("μ1")
    mu2 = gens.generator("μ2")

    def bp(alpha, h, z):
        return basis_phi(alpha, h, z, ctx, N)

    def sbp(x, a, b, form="shift"):
        pa, pb = pts[a], pts[b]
        return super_basis_phi(x[0], x[1], x[2], pa, pb, "ω", ctx, N, form=form).evaluate(pa.z, pb.z)

    # graded before plain, so that each kernel table is made once, at the largest size read at its point:
    # first all four assembly forms of the same channel function agree: two table passes, in any order, but
    # with the heat form first its pass makes order 0 at (2, 1), the largest read, and the next one order 1
    forms = {form: sbp((al, h1, mu1), 0, 1, form=form) for form in ("heat", "shift", "mu-shift", "basis")}
    ref = forms.pop("shift")
    rel = max(_rel((v - ref).max_abs(), ref.max_abs()) for v in forms.values())
    # then the channel identity at the sampled parameters, and at zero parameter when all three channels
    # are nonzero; graded, then plain
    nonzero_triple = not (al.is_zero() or be.is_zero() or (al - be).is_zero())
    s, scale = three_term(sbp, (al, h1, mu1), (be, h2, mu2), size=GrassmannElement.max_abs)
    rel = max(rel, _rel(s.max_abs(), scale))
    if nonzero_triple:
        s, scale = three_term(sbp, (al, 0.0, None), (be, 0.0, None), size=GrassmannElement.max_abs)
        rel = max(rel, _rel(s.max_abs(), scale))
    rel = max(rel, _scalar_relation(bp, zs, (al, h1), (be, h2)))
    if nonzero_triple:
        rel = max(rel, _scalar_relation(bp, zs, (al, 0.0), (be, 0.0)))
    return rel


# -- suites: cybe / aybe -------------------------------------------------------


def _compute_cybe(inputs, cfg) -> float:
    ctx = cfg.context()
    basis = HeisenbergBasis(cfg.n)
    pts = _points(inputs)
    built = channel_sums(cybe_ops(pts, basis) + cybe_ops(pts, basis, super=True), "ω", basis, ctx)
    res, scale = cybe_residual(built[:3])
    rel = _rel(res.max_abs(), scale)
    res, scale = cybe_residual(built[3:])
    return max(rel, _rel(res.max_abs(), scale))


def _compute_aybe(inputs, cfg) -> float:
    ctx = cfg.context()
    basis = HeisenbergBasis(cfg.n)
    pts = _points(inputs)
    h1 = _unpair(inputs["hbar1"])
    h2 = _unpair(inputs["hbar2"])
    # one pass: ordinary and odd factors, then the other forms of the first odd factor
    ops = aybe_ops((h1, h2), None, pts, basis) + aybe_ops((h1, h2), ("μ1", "μ2"), pts, basis, super=True)
    ops += [(basis.canonical_indices(), h1, "μ1", pts[0], pts[1], form, True) for form in ("basis", "heat")]
    built = channel_sums(ops, "ω", basis, ctx)
    res, scale = aybe_residual(built[:6])
    rel = _rel(res.max_abs(), scale)
    res, scale = aybe_residual(built[6:12])
    rel = max(rel, _rel(res.max_abs(), scale))
    # operator assemblies of the odd quantum matrix agree
    scale = built[6].max_abs()
    for other in built[12:]:
        rel = max(rel, _rel((built[6] - other).max_abs(), scale))
    return rel


# -- suite: degenerations ------------------------------------------------------


def _compute_degenerations(inputs, cfg) -> float:
    ctx = cfg.context()
    h1 = _unpair(inputs["hbar1"])
    h2 = _unpair(inputs["hbar2"])
    zs = [_unpair(inputs[k]) for k in ("z1", "z2", "z3")]
    z1, z2 = zs[0], zs[1]
    pts = _points(inputs)
    rel = 0.0
    for kind in ("trig", "rational"):
        # graded first, as in fay
        res, scale = fay_residual((h1, h2), ("μ1", "μ2"), pts, "ω", ctx, kind=kind)
        rel = max(rel, _kernel_relation(kind, ctx, zs, h1, h2), _rel(res.max_abs(), scale))
        tmpl = super_phi(h1, "μ1", pts[0], pts[1], "ω", ctx, kind=kind).evaluate(z1, z2)
        closed = super_phi_degenerate(kind, h1, "μ1", pts[0], pts[1], "ω", ctx)
        rel = max(rel, _rel((tmpl - closed).max_abs(), closed.max_abs()))
    return rel


_SUITES: dict[str, tuple[Callable, Callable]] = {
    "theta": (_cells("z"), _compute_theta),
    "kronecker": (_cells("hbar", "z"), _compute_kronecker),
    "fay": (_sample_three_points, _compute_fay),
    "heat": (_cells("hbar", "z1", "z2"), _compute_heat),
    "periodicity": (_cells("hbar", "z1", "z2"), _compute_periodicity),
    "basis": (_sample_basis, _compute_basis),
    "cybe": (_sample_three_points, _compute_cybe),
    "aybe": (_sample_three_points, _compute_aybe),
    "degenerations": (_sample_three_points, _compute_degenerations),
}


def _suite_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


def replay_sample(suite: str, inputs: dict, cfg: VerifyConfig) -> float:
    """Recompute one sample's relative residual from serialized inputs."""
    _, compute = _SUITES[suite]
    return compute(inputs, cfg)


def run_suite(name: str, cfg: VerifyConfig) -> SuiteReport:
    sample, compute = _SUITES[name]
    rng = _suite_rng(cfg.seed, name)
    t0 = perf_counter()
    max_rel = -1.0
    worst: dict = {}
    redraws = 0
    for _ in range(cfg.samples):
        rel = None
        for _attempt in range(_MAX_REDRAWS):
            inputs = sample(rng, cfg)
            try:
                rel = compute(inputs, cfg)
            except PoleProximityError:
                redraws += 1
                continue
            break
        if rel is None:
            raise SamplingError(
                f"suite {name!r}: no pole-free sample found in {_MAX_REDRAWS} draws"
            )
        if math.isnan(rel):
            rel = math.inf  # a residual that is not a number fails the suite
        if rel > max_rel:
            max_rel = float(rel)
            worst = inputs
    seconds = perf_counter() - t0
    return SuiteReport(
        suite=name,
        samples=cfg.samples,
        max_residual=max_rel,
        worst_inputs=worst,
        passed=bool(max_rel < cfg.tol_relative),
        seconds=float(seconds),
        redraws=redraws,
    )


def run_suites(cfg: VerifyConfig) -> list[SuiteReport]:
    return [run_suite(name, cfg) for name in cfg.selected()]
