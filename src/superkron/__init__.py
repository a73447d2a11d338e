"""Grassmann-valued elliptic kernels and lattice-operator identity checks.

Layers, bottom up: a finite Grassmann algebra (grassmann), the odd theta
function and the two-variable elliptic kernel with its degenerations
(elliptic), the Grassmann-valued extension of the kernel with symbolic
super-differential operators and residual checkers (superfunc), the finite
Heisenberg matrix basis with quantum/classical operators and Yang-Baxter
residuals (rmatrix), and randomized verification suites with a CLI front
end (suites, cli).
"""

from .elliptic import (
    KINDS,
    EllipticContext,
    PoleProximityError,
    SeriesTruncationError,
    kernel_derivs,
    lattice_distance,
    lattice_reduce,
    phi_derivs,
    phi_rat,
    phi_tau_derivs,
    phi_trig,
    theta,
)
from .grassmann import (
    GeneratorSet,
    GrassmannElement,
    default_generators,
    grassmann_exp,
)
from .rmatrix import (
    HeisenbergBasis,
    MultiIndex,
    SuperMatrix,
    aybe_ops,
    aybe_residual,
    basis_phi,
    build_R,
    build_r_classical,
    channel_shift,
    channel_sums,
    cybe_ops,
    cybe_residual,
    embed,
    super_basis_phi,
    supercommutator,
)
from .suites import SUITE_NAMES, SamplingError, SuiteReport, VerifyConfig, replay_sample, run_suites
from .superfunc import (
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
    transition_factor,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grassmann
    "GeneratorSet",
    "GrassmannElement",
    "default_generators",
    "grassmann_exp",
    # elliptic
    "EllipticContext",
    "PoleProximityError",
    "SeriesTruncationError",
    "theta",
    "phi_derivs",
    "phi_tau_derivs",
    "phi_trig",
    "phi_rat",
    "kernel_derivs",
    "KINDS",
    "lattice_reduce",
    "lattice_distance",
    # superfunc
    "Descriptor",
    "CatalogOverflowError",
    "SuperPoint",
    "SuperFunction",
    "super_phi",
    "super_phi_truncated",
    "super_phi_degenerate",
    "fay_residual",
    "heat_residual",
    "periodicity_residual",
    "transition_factor",
    # rmatrix
    "MultiIndex",
    "HeisenbergBasis",
    "channel_shift",
    "basis_phi",
    "super_basis_phi",
    "SuperMatrix",
    "build_R",
    "build_r_classical",
    "embed",
    "supercommutator",
    "channel_sums",
    "aybe_ops",
    "aybe_residual",
    "cybe_ops",
    "cybe_residual",
    # suites / cli
    "SUITE_NAMES",
    "SamplingError",
    "VerifyConfig",
    "SuiteReport",
    "run_suites",
    "replay_sample",
]
