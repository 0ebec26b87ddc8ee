"""Workload definitions: the CLI commands each workload runs, built from a seed.

Pure Python on purpose: the parent process imports this module without
importing numpy or bilap, so its own start-up stays out of the figures.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import random

GENERIC_SMALL = {"support": [-1, 1], "values": [0.3, -0.2, 0.1]}

# stone-vs-spectral sizes its dense reference window from max(times), so
# this list is part of the workload: longer times change the reference
# error (3.3e-7 at t <= 20, 6.8e-8 at t <= 50) with no change to Stone.
CROSSCHECK_TIMES = [1.0, 5.0, 20.0]
# The fixed stone-vs-spectral potentials come first; the seeded one last.
CROSSCHECK_FIXED_POTENTIALS = [None, {"delta": 0.5}, GENERIC_SMALL]

PERTURBED_RADIUS = 16
PERTURBED_T_MAX = 100.0


def _coupling(seed: int) -> float:
    return round(random.Random(seed).uniform(0.3, 0.7), 6)


def _seeded_five_site(seed: int) -> dict:
    # Strictly repulsive: mixed-sign draws from [-0.3, 0.3] put states near
    # the band edges, so pac_split doubles its window up to 2144 (a 39 s
    # pass instead of 3 s) and, for seeds 1 and 11, stone-vs-spectral misses
    # its 1e-5 tolerance (6.5e-4, 2.3e-3). See README.md.
    rng = random.Random(seed)
    return {"support": [-2, 2], "values": [round(rng.uniform(0.4, 0.8), 6) for _ in range(5)]}


def commands(workload: str, seed: int) -> list:
    """(command, config) pairs of one pass, in order. The CLI also gets --seed."""
    if workload == "perturbed":
        return [
            ("perturbed-decay", {
                "potential": {"delta": _coupling(seed)},
                "t_min": 50.0,
                "t_max": PERTURBED_T_MAX,
                "per_decade": 24,
                "observe_radius": PERTURBED_RADIUS,
            }),
        ]
    if workload == "free":
        # One command reaches t = 1e5 (FFT rings up to 2^22 points, the
        # memory peak) on a sparse grid; the others stop at 1e4. Short passes
        # give a run more of them, which steadies the median.
        short = {"t_min": 1e3, "t_max": 1e4, "per_decade": 8}
        return [
            ("free-decay", {"kind": "schrodinger_free_bilap", "t_min": 1e3, "t_max": 1e5, "per_decade": 4}),
            ("free-decay", {"kind": "schrodinger_free_lap", **short}),
            ("beam-decay", dict(short)),
            ("strichartz", {"T_values": [1e2, 5e2]}),
            ("knapp", {}),
        ]
    if workload == "crosscheck":
        return [
            # mu = 0.3 and 1.8 need windows of nearly equal size (162k and
            # 153k sites), so the seed changes which entries are checked,
            # not how much work the check does.
            ("resolvent-check", {"points": 1, "mu_values": [0.3, 1.8]}),
            ("stone-vs-spectral", {
                "potentials": CROSSCHECK_FIXED_POTENTIALS + [_seeded_five_site(seed)],
                "times": CROSSCHECK_TIMES,
            }),
            ("eig-scan", {}),
            ("expansion-check", {}),
            ("minv-probe", {}),
            ("regular-check", {}),
            ("stationary-phase", {}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def accuracy_probe(workload: str) -> dict:
    """Off-clock cross-route checks of one run; seed-independent on purpose.

    "dense": (potential, t, observe_radius) for Stone against the dense
    continuous-part kernel, or None when the fixed potentials of the
    stone-vs-spectral report in the pass supply it. "fft": (t,
    observe_radius) for the free Stone slice against free_kernel_fft at the
    workload's horizon. Against the dense route the error is set by the
    reference window and swings from 2e-12 to 2e-7 with the coupling, so
    a seeded probe could not hold a bound; these probes are deterministic.
    """
    if workload == "perturbed":
        # The dense reference costs ~t^3, so it is taken at t = 20, not t_min.
        return {"dense": ({"delta": 0.5}, 20.0, PERTURBED_RADIUS),
                "fft": (PERTURBED_T_MAX, PERTURBED_RADIUS)}
    if workload == "free":
        # Stone at the FFT horizon 1e5 would take minutes; 1e3 is its reach.
        return {"dense": (None, 20.0, 16), "fft": (1e3, 16)}
    if workload == "crosscheck":
        return {"dense": None, "fft": (max(CROSSCHECK_TIMES), 10)}
    raise ValueError(f"unknown workload {workload!r}")


# Wrapped functions each workload must call; a zero count on one of them
# means a rename slipped past the tracer and its layer would read 0 s.
MUST_CALL = {
    "perturbed": [
        "cli.main", "cli.write_json", "decay.perturbed_decay_series",
        "propagator.stone_kernel_slice", "resolvent.boundary_kernel_plus",
        "spectral.m_matrix_grid", "quadrature.edges_from_budget",
        "quadrature.gauss_panels",
    ],
    "free": [
        "cli.main", "cli.write_csv", "decay.free_decay_series",
        "decay.strichartz_norm", "decay.knapp_experiment",
        "propagator.free_kernel_full",
    ],
    "crosscheck": [
        "cli.main", "resolvent.windowed_boundary_resolvent",
        "resolvent.boundary_kernel_plus", "spectral.perturbed_resolvent_boundary",
        "spectral.discrete_eigs", "spectral.embedded_eig_scan",
        "spectral.m_matrix_grid", "spectral.minv_expansion_probe",
        "spectral.regular_point_check", "numpy.linalg.eigh",
        "propagator.stone_kernel_slice", "propagator.kernel_spectral",
        "propagator.PacSplit.kernel_ac", "propagator.pac_split",
        "expansion.remainder_norms", "lattice.weighted_operator_norm",
        "lattice.build_hamiltonian", "quadrature.stationary_points",
    ],
}

WORKLOADS = tuple(MUST_CALL)
