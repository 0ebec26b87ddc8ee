"""Dispersive estimates for the fourth-difference operator on the integer lattice.

The package computes resolvent boundary values, threshold expansions and
time-decay rates for H = Delta^2 + V acting on square-summable sequences,
where Delta is the second difference and V a finitely supported real
potential. Submodules:

``lattice``
    finite windows, Dirichlet truncations, weighted norms, potentials
``resolvent``
    closed boundary kernels of the free resolvent on and off the band
``expansion``
    edge expansions of the boundary kernel and remainder norm probes
``spectral``
    sandwich (Birman-Schwinger) systems, threshold regularity, eigenvalues
``quadrature``
    oscillatory integrals and stationary points of the kernel phase
``propagator``
    time kernels by dense diagonalisation, FFT and band quadrature
``decay``
    sup-norm decay series, exponent fits, space-time norms
"""

from .decay import (
    DecayFit,
    DecaySeries,
    fit_decay_exponent,
    free_decay_series,
    knapp_experiment,
    log_time_grid,
    perturbed_decay_series,
    strichartz_norm,
)
from .expansion import remainder_norms
from .lattice import (
    SPEED_BOUND,
    LatticeVector,
    PotentialSpec,
    build_hamiltonian,
    weighted_operator_norm,
)
from .propagator import (
    KernelSlice,
    PropagatorRequest,
    auto_window_radius,
    free_kernel_fft,
    kernel_spectral,
    pac_split,
    stone_kernel_slice,
)
from .quadrature import (
    PhaseSpec,
    StationaryPoint,
    decay_order_prediction,
    oscillatory_integral,
    phase_derivatives,
    stationary_points,
)
from .resolvent import (
    TailDoublingError,
    free_biresolvent_complex,
    windowed_boundary_resolvent,
)
from .spectral import (
    BirmanSchwingerSystem,
    SingularSandwichError,
    decompose_potential,
    discrete_eigs,
    embedded_eig_scan,
    minv_expansion_probe,
    perturbed_resolvent_boundary,
    regular_point_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SPEED_BOUND",
    "LatticeVector",
    "PotentialSpec",
    "build_hamiltonian",
    "weighted_operator_norm",
    "TailDoublingError",
    "free_biresolvent_complex",
    "windowed_boundary_resolvent",
    "remainder_norms",
    "BirmanSchwingerSystem",
    "decompose_potential",
    "regular_point_check",
    "perturbed_resolvent_boundary",
    "minv_expansion_probe",
    "SingularSandwichError",
    "discrete_eigs",
    "embedded_eig_scan",
    "PhaseSpec",
    "StationaryPoint",
    "phase_derivatives",
    "stationary_points",
    "decay_order_prediction",
    "oscillatory_integral",
    "PropagatorRequest",
    "KernelSlice",
    "auto_window_radius",
    "kernel_spectral",
    "pac_split",
    "free_kernel_fft",
    "stone_kernel_slice",
    "DecaySeries",
    "DecayFit",
    "log_time_grid",
    "fit_decay_exponent",
    "free_decay_series",
    "perturbed_decay_series",
    "strichartz_norm",
    "knapp_experiment",
]
