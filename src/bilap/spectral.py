"""Spectral analysis of the perturbed fourth-difference operator.

A real finitely supported potential V factors as V = u v^2 with v = sqrt|V|
and u = sign V on its support. The sandwich M(mu) = U + v R(mu^4) v, with R
the free boundary resolvent, controls the perturbed resolvent through

    R_V = R - R v M^{-1} v R,

all restricted to the support sites. One builder forms U + v K v for the band,
off-band and edge-limit kernels K; on the band, solve_sandwich is the one
route to M^{-1} and holds the one refusal rule. Threshold behaviour at the
band edges is governed by M's edge limit compressed to one orthonormal basis
per edge, of the complement of the potential's zeroth and first moments at
the lower edge and of its alternating-sign moment at the upper edge. Off the
band M is real symmetric and locates the bound states with no window, the
one definition of the discrete spectrum; the eigenvalues of one window
truncation cross-check those states. On the band, M(mu + i0) is singular
exactly at an embedded eigenvalue mu^4, which a scan of its smallest
singular value finds with no window.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .expansion import coeff_sixteen_series, coeff_zero_series
from .lattice import (
    PotentialSpec,
    _window_diagonal,
    build_hamiltonian,
)
from .resolvent import _off_band_waves, boundary_kernel_plus, free_biresolvent_complex

__all__ = [
    "BirmanSchwingerSystem",
    "RegularPointReport",
    "MinvProbeReport",
    "EmbeddedScanReport",
    "decompose_potential",
    "m_matrix_grid",
    "solve_sandwich",
    "regular_point_check",
    "perturbed_resolvent_boundary",
    "minv_expansion_probe",
    "bound_states",
    "discrete_eigs",
    "embedded_eig_scan",
    "SingularSandwichError",
    "BAND_MARGIN",
]

BAND_MARGIN = 1e-6
"""Margin delta_b separating "outside the band" from [0 - delta_b, 16 + delta_b]."""

# The bulk of Stone's band quadrature (propagator) runs from mu =
# _INNER_CUTOFF to 2 - _EDGE_CUTOFF, and Stone reads the phase of det M at
# _RESONANCE_SCAN points of it; embedded_eig_scan's grid (_band_scan_grid)
# starts with the same points
_EDGE_CUTOFF = 1e-4
_INNER_CUTOFF = 1e-9
_RESONANCE_SCAN = 1025

# embedded_eig_scan's strip points, the grid minima of sigma_min /
# sigma_max it refines and the refined ratio it takes for a singular M. The
# embedded eigenvalue 1 of [c, -sqrt 5, c], c = 5.854101966249685, reads
# 4.6e-4 on the grid and 7.8e-17 refined; 2^-40 (4,096 ulps) leaves room
# for d <= 32 and stays far below the 7.3e-9 the near-resonance of
# [0.5, -0.7999, 0.5] at mu = 0.2016 refines to.
_STRIP_SCAN = 32
_EMBEDDED_REFINE = 1e-2
_EMBEDDED_ROUNDING = 2.0**-40

_GAP = 1e-12  # bound_states' distance from the band edges; closer roots are one energy

_SINGULAR_NORM = 1e10  # solve_sandwich's refusal threshold on the Frobenius norm of M^-1

# Largest ||M||_F ||M^-1||_F at which solve_sandwich takes M^-1 z as M^-1
# times z. On the Stone nodes of [0.5, 0.6, 0.7, 0.45, 0.55] at reach 22, 96 %
# lie within it and moved by at most 1.3e-13 relative to the solve (1.2e-5
# near mu = 1e-4, condition 1e12).
_INVERSE_CONDITION = 1e3


class SingularSandwichError(ValueError):
    """A sandwich matrix M(mu) numerically singular on the band."""


@dataclass(frozen=True)
class BirmanSchwingerSystem:
    """Factorised potential data on its nonzero support sites.

    Attributes
    ----------
    sites : ndarray
        Integer sites where the potential is nonzero, increasing.
    v : ndarray
        Nonnegative factor sqrt|V| on those sites.
    u : ndarray
        Signs of V there, entries +-1.
    """

    sites: np.ndarray
    v: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        sites = np.asarray(self.sites, dtype=int)
        v = np.asarray(self.v, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if not (sites.shape == v.shape == u.shape) or sites.ndim != 1:
            raise ValueError("sites, v, u must be 1-d arrays of equal length")
        if sites.size == 0:
            raise ValueError("support is empty")
        if np.any(v <= 0):
            raise ValueError("v must be strictly positive on the kept sites")
        if not np.all(np.isin(u, (-1.0, 1.0))):
            raise ValueError("u entries must be +-1")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return int(self.sites.size)


@dataclass(frozen=True)
class RegularPointReport:
    """Outcome of a threshold regularity check.

    smallest_singular_value is +inf when the tested compression acts on the
    zero subspace, in which case the threshold is vacuously regular.
    """

    threshold: str
    smallest_singular_value: float
    is_regular: bool
    tolerance_used: float


@dataclass(frozen=True)
class MinvProbeReport:
    """Measured behaviour of M(mu)^{-1} approaching a band edge.

    grid holds distances to the edge. leakage_norms are the norms of the
    inverse compressed against the edge subspace, whose log-log slope
    against the grid is leakage_slope.
    """

    threshold: str
    grid: np.ndarray
    inverse_norms: np.ndarray
    leakage_norms: np.ndarray
    sup_inverse_norm: float
    leakage_slope: float


@dataclass(frozen=True)
class EmbeddedScanReport:
    """embedded_eig_scan's (E, psi) per eigenvalue, E increasing; (mu, sigma_min/sigma_max) per
    refined grid minimum; the mu range the float M resolves, None if none; the grid's size.
    """

    states: Tuple[Tuple[float, Callable], ...]
    minima: Tuple[Tuple[float, float], ...]
    resolved: Optional[Tuple[float, float]]
    points: int
    verdict: str


def decompose_potential(V: PotentialSpec) -> BirmanSchwingerSystem:
    """Factor a potential into (sites, v, u), dropping zero entries."""
    keep = V.values != 0.0
    vals = V.values[keep]
    return BirmanSchwingerSystem(
        sites=V.sites[keep], v=np.sqrt(np.abs(vals)), u=np.sign(vals)
    )


def _sandwich(kernel: Callable, sys: BirmanSchwingerSystem) -> np.ndarray:
    """U + v K v, K = kernel(|n - m|) over the support sites, shape (..., d, d).

    Entries past the float range become infinite; solve_sandwich refuses them.
    """
    k = kernel(np.abs(sys.sites[:, None] - sys.sites[None, :]))
    with np.errstate(over="ignore", invalid="ignore"):
        m = k * np.outer(sys.v, sys.v)
    m[..., np.arange(sys.dim), np.arange(sys.dim)] += sys.u
    return m


def m_matrix_grid(
    mu: np.ndarray, sys: BirmanSchwingerSystem, one_minus_q: np.ndarray | None = None
) -> np.ndarray:
    """Plus-side matrices U + v R(mu^4) v over a grid, shape (len(mu), d, d)."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return _sandwich(lambda k: boundary_kernel_plus(mu, k, one_minus_q=one_minus_q), sys)


def solve_sandwich(m: np.ndarray, z: np.ndarray, mus: np.ndarray):
    """(M^-1 z, M^-1) per node; SingularSandwichError unless ||M^-1||_F <= _SINGULAR_NORM.

    m is (nodes, d, d), z (nodes, d, T) with T >= 0, and mus name the refused
    node's energy. A 1 x 1 sandwich is a division. Otherwise one batched
    inverse (numpy's solve against the identity) gives M^-1, and M^-1 z is
    its product with z up to _INVERSE_CONDITION; a worse conditioned M, as
    toward mu = 0, has M^-1 z from a solve, which keeps the digits the
    product loses. An exact zero pivot (or a NaN determinant) counts as infinite,
    and so does an M with an entry past the float range, whose inverse is
    not to be trusted even where the solve returns finite numbers; a NaN
    norm is refused like an infinite one.
    """
    d = m.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if d == 1:
            inv = 1.0 / m
            y, norms = z * inv, np.abs(inv[:, 0, 0])
        else:
            try:
                inv = np.linalg.inv(m)
            except np.linalg.LinAlgError:
                y, inv, norms = None, None, np.where(np.abs(np.linalg.det(m)) > 0.0, 0.0, np.inf)
            else:
                y, norms = inv @ z, np.linalg.norm(inv, axis=(1, 2))
                ill = np.flatnonzero(norms * np.linalg.norm(m, axis=(1, 2)) > _INVERSE_CONDITION)
                y[ill] = np.linalg.solve(m[ill], z[ill])
    norms = np.where(np.isfinite(m).all(axis=(1, 2)), norms, np.inf)
    worst = int(np.argmax(norms))
    if not norms[worst] <= _SINGULAR_NORM:
        raise SingularSandwichError(
            "sandwich matrix numerically singular at energy "
            f"mu^4 = {mus[worst] ** 4:.6g}: possible embedded eigenvalue"
        )
    return y, inv


def _edge_data(sys: BirmanSchwingerSystem, threshold: str):
    """(T, B) at a threshold: the edge limit operator and an edge subspace basis.

    T = U + v G v, real symmetric, with G the order-zero coefficient of the
    edge expansion: (k^3 - k)/12 at separation k for "zero", the upper
    expansion's for "sixteen". B has orthonormal columns spanning the
    complement of the moment vectors, v and n v at "zero" and (-1)^n v at
    "sixteen": the columns of a complete QR of the moments past their
    numerical rank (|r_jj| > 1e-12 |r_00|). B has no columns where the
    moments span the support space (one or two sites at "zero").
    """
    if threshold == "zero":
        T = _sandwich(lambda k: coeff_zero_series(0, k)[3].real, sys)
        moments = [sys.v, sys.sites * sys.v]
    elif threshold == "sixteen":
        T = _sandwich(lambda k: coeff_sixteen_series(0, k)[1].real, sys)
        moments = [np.where(sys.sites % 2 == 0, 1.0, -1.0) * sys.v]
    else:
        raise ValueError(f"threshold must be 'zero' or 'sixteen', got {threshold!r}")
    q, r = np.linalg.qr(np.column_stack(moments), mode="complete")
    rank = int(np.sum(np.abs(np.diag(r)) > 1e-12 * np.abs(r[0, 0])))
    return T, q[:, rank:]


def regular_point_check(sys: BirmanSchwingerSystem, threshold: str) -> RegularPointReport:
    """Test invertibility of the limit operator compressed to the edge subspace.

    The threshold is regular when the compression B^T T B of the limit
    operator to the edge basis of _edge_data has smallest singular value
    above 1e-8 times the limit operator norm. An empty basis makes the
    threshold vacuously regular with singular value +inf.
    """
    T, basis = _edge_data(sys, threshold)
    tol = 1e-8 * float(np.linalg.norm(T, 2))
    if basis.shape[1] == 0:
        return RegularPointReport(threshold, float("inf"), True, tol)
    sv = float(np.linalg.svd(basis.T @ T @ basis, compute_uv=False).min())
    return RegularPointReport(threshold, sv, sv > tol, tol)


def _require_regular(sys: BirmanSchwingerSystem, thresholds) -> None:
    """SingularSandwichError unless regular_point_check finds each threshold regular.

    The edge estimates, and so the band integral and the edge probe, hold
    only at regular edges; the refusal names the threshold, its smallest
    singular value and the tolerance it missed.
    """
    for threshold in thresholds:
        report = regular_point_check(sys, threshold)
        if not report.is_regular:
            raise SingularSandwichError(
                f"threshold {threshold!r} not regular: smallest singular value "
                f"{report.smallest_singular_value:.3e} <= tolerance {report.tolerance_used:.3e}"
            )


def perturbed_resolvent_boundary(mu: float, V: Optional[PotentialSpec], n: int, m: int) -> complex:
    """Boundary value of the perturbed resolvent at band energy mu**4.

    Evaluates R - R v M^{-1} v R at sites (n, m). A potential of None (or
    identically zero support after decomposition) returns the free kernel.
    M^{-1} v R comes from solve_sandwich, which refuses a numerically
    singular M, naming the energy. mu lies in (0, 2).
    """
    if not (0.0 < mu < 2.0):
        raise ValueError(f"mu must lie in (0, 2), got {mu}")
    mu_arr = np.array([mu], dtype=float)
    free = complex(boundary_kernel_plus(mu_arr, np.array([abs(n - m)]))[0, 0])
    if V is None:
        return free
    sys = decompose_potential(V)
    rn = boundary_kernel_plus(mu_arr, np.abs(n - sys.sites))[0]
    rm = boundary_kernel_plus(mu_arr, np.abs(sys.sites - m))[0]
    y, _ = solve_sandwich(m_matrix_grid(mu_arr, sys), (sys.v * rm)[None, :, None], mu_arr)
    return free - complex(rn * sys.v @ y[0, :, 0])


def minv_expansion_probe(
    sys: BirmanSchwingerSystem, threshold: str, mu_grid: np.ndarray
) -> MinvProbeReport:
    """Track M(mu)^{-1} on a grid of distances approaching a band edge.

    At a regular edge the inverse norm stays bounded while its compression
    against the edge subspace, (I - B B^T) M^{-1} with B the edge basis of
    _edge_data, decays; the report carries both norms and the fitted decay slope.
    Grids hold distances to the edge: mu itself at the lower edge, 2 - mu
    at the upper. A non-regular threshold is refused with
    SingularSandwichError (_require_regular), and solve_sandwich gives the
    inverses and refuses a singular M.
    """
    grid = np.asarray(mu_grid, dtype=float)
    if np.any(grid <= 0) or np.any(grid >= 2):
        raise ValueError("grid of edge distances must lie in (0, 2)")
    _require_regular(sys, (threshold,))
    basis = _edge_data(sys, threshold)[1]
    comp = np.eye(sys.dim) - basis @ basis.T
    mus, omq = (grid, None) if threshold == "zero" else (2.0 - grid, grid * (4.0 - grid) / 4.0)
    _, inv = solve_sandwich(m_matrix_grid(mus, sys, omq), np.empty((grid.size, sys.dim, 0)), mus)
    inv_norms = np.linalg.norm(inv, ord=2, axis=(1, 2))
    leak_norms = np.linalg.norm(comp[None, :, :] @ inv, ord=2, axis=(1, 2))
    slope, _ = np.polyfit(np.log(grid), np.log(leak_norms), 1)
    return MinvProbeReport(
        threshold=threshold,
        grid=grid,
        inverse_norms=inv_norms,
        leakage_norms=leak_norms,
        sup_inverse_norm=float(inv_norms.max()),
        leakage_slope=float(slope),
    )


def _off_band_sandwich(E: float, sys: BirmanSchwingerSystem) -> np.ndarray:
    """U + v R0(E) v at a real energy E off [0, 16], real symmetric."""
    return _sandwich(lambda k: free_biresolvent_complex(E, k).real, sys)


def _count_drops(a: float, b: float, sys: BirmanSchwingerSystem) -> List[float]:
    """Energies in [a, b], bisected to adjacent floats, where M's negative count falls."""
    def count(E):
        try:
            return int(np.count_nonzero(np.linalg.eigvalsh(_off_band_sandwich(E, sys)) < 0.0))
        except np.linalg.LinAlgError as exc:
            # eigvalsh fails where entries past the float range sit beside
            # finite ones; a lone infinite entry, as delta 1e300 gives near
            # the band, still has its sign
            raise SingularSandwichError(
                f"sandwich matrix numerically singular at energy {E:.6g}: "
                "entries past the float range"
            ) from exc
    found, stack = [], [(a, count(a), b, count(b))]
    while stack:
        a, na, b, nb = stack.pop()
        mid = 0.5 * (a + b)
        if na <= nb or not a < mid < b:
            found += [b] * (na - nb)
            continue
        # rounding can bend the monotone count within a few ulps of a root
        nm = min(max(count(mid), nb), na)
        stack += [(mid, nm, b, nb), (a, na, mid, nm)]
    return found


def _bound_wave(E, sites, x, n):
    return free_biresolvent_complex(E, np.subtract.outer(n, sites)).real @ x


def _bound_vectors(E: float, k: int, sys: BirmanSchwingerSystem) -> np.ndarray:
    """x = v w, w null vectors of M(E), with the psi = R0(E) x orthonormal in l2.

    SingularSandwichError is raised where psi's l2 norm leaves the float
    range, as at the drop the count finds at E = -2.5e-12 for V = [1e300,
    -2^-9], next to the band, where v K v leaves the float range too.
    """
    ev, vecs = np.linalg.eigh(_off_band_sandwich(E, sys))
    x = sys.v[:, None] * vecs[:, np.argsort(np.abs(ev))[:k]]
    lo, hi = sys.sites[0], sys.sites[-1]
    inner = _bound_wave(E, sys.sites, x, np.arange(lo, hi + 1))
    amps, rates = _off_band_waves(E)
    series = 1.0 / np.expm1(-(rates[:, None] + rates[None, :]))
    # past the support's hull psi is the kernel's two waves: geometric series
    with np.errstate(over="ignore", invalid="ignore"):
        gram = inner.T @ inner
        for reach in (hi - sys.sites, sys.sites - lo):
            tail = amps[:, None] * np.exp(np.outer(rates, reach)) @ x
            gram += (tail.T @ series @ tail).real
    if not np.isfinite(gram).all():
        raise SingularSandwichError(
            f"bound state at energy {E:.6g}: its l2 norm is past the float range"
        )
    return x @ np.linalg.inv(np.linalg.cholesky(gram)).T


def bound_states(V: Optional[PotentialSpec]) -> List[Tuple[float, Callable]]:
    """(E, psi) for every eigenvalue E of H off the band, E increasing, no window.

    psi maps sites to a real l2-normalised eigenvector R0(E) v w, w in ker M(E),
    one pair per eigenvector. As dM/dE = v R0^2 v > 0, M's negative count falls
    by each eigenvalue's multiplicity; it is bisected on [lo - p(lo), -1e-12]
    and [16 + 1e-12, hi + p(hi)], where [lo, hi] = [min(V, 0), 16 + max(V, 0)]
    holds the spectrum and p(x) = max(1, 1e-12 |x|) keeps both ends off it
    even where x +- 1 rounds to x. Roots within 1e-12 are one energy. The
    kernel's amplitude falls like 1 / (2 |E|); where it is no longer a normal
    float at an outer bracket end (|V| near 2e307 and beyond), M would lose
    the coupling it balances, so SingularSandwichError is raised there. It
    is raised too where M has entries past the float range whose negative
    count eigvalsh cannot take, as a coupling of 1e300 beside ones of order
    one gives near the band, and where a state's l2 norm leaves the float
    range (_bound_vectors).
    """
    if V is None:
        return []
    sys = decompose_potential(V)
    lo, hi = min(V.values.min(), 0.0), 16.0 + max(V.values.max(), 0.0)
    brackets = ((lo - max(1.0, -1e-12 * lo), -_GAP), (16.0 + _GAP, hi + max(1.0, 1e-12 * hi)))
    for end in (brackets[0][0], brackets[1][1]):
        with np.errstate(over="ignore"):
            amps = np.abs(_off_band_waves(end)[0])
        if not np.all(amps >= np.finfo(float).tiny):
            raise SingularSandwichError(
                f"sandwich matrix numerically singular at energy {end:.6g}: "
                "kernel past the float range"
            )
    drops = []
    for a, b in brackets:
        drops += _count_drops(a, b, sys)
    states = []
    for group in np.split(drops, np.flatnonzero(np.diff(drops) > _GAP) + 1) if drops else []:
        E = float(group.mean())
        for x in _bound_vectors(E, group.size, sys).T:
            states.append((E, functools.partial(_bound_wave, E, sys.sites, x)))
    return states


def _window_blocks(V: Optional[PotentialSpec], window_radius: int) -> tuple:
    """(parity, side) of each matrix _window_eigenvalues hands to eigvalsh.

    A window of radius R >= 1 whose diagonal 6 + V equals its reflection
    splits into its even and odd blocks, of sides R + 1 and R; any other is
    the whole window, parity None, of side 2R + 1.
    """
    diagonal = _window_diagonal(V, window_radius)
    if window_radius > 0 and np.array_equal(diagonal, diagonal[::-1]):
        return (0, window_radius + 1), (1, window_radius)
    return ((None, 2 * window_radius + 1),)


def _window_eigenvalues(V: Optional[PotentialSpec], window_radius: int) -> np.ndarray:
    """Every eigenvalue of the Dirichlet window truncation of Delta^2 + V, increasing.

    Each block of _window_blocks goes by eigvalsh in turn, built by
    build_hamiltonian(V, R, parity) and dropped before the next.
    """
    return np.sort(np.concatenate([np.linalg.eigvalsh(build_hamiltonian(V, window_radius, p))
                                   for p, _ in _window_blocks(V, window_radius)]))


def discrete_eigs(V: Optional[PotentialSpec], window_radius: int) -> List[float]:
    """Eigenvalues of a window truncation outside the band, a check on bound_states.

    Keeps those below -BAND_MARGIN or above 16 + BAND_MARGIN: a shallow
    state spreads over hundreds of sites, and its window eigenvalue
    converges to bound_states' as the window grows. None has none.
    """
    if V is None:
        return []
    ev = _window_eigenvalues(V, window_radius)
    return [float(lam) for lam in ev[(ev < -BAND_MARGIN) | (ev > 16.0 + BAND_MARGIN)]]


def _band_scan_grid() -> np.ndarray:
    """embedded_eig_scan's mu, increasing over (0, 2), in the variables of Stone's panels.

    The bulk's theta grid of propagator._resonance_phase, mu = 2 sin(-theta/2)
    from _INNER_CUTOFF to 2 - _EDGE_CUTOFF, then _STRIP_SCAN points equally
    spaced in w = sqrt(2 - mu) below w = 1e-2, down to 2^-26: mu = 2 - 2^-52.
    """
    ends = -2.0 * np.arcsin(np.array([2.0 - _EDGE_CUTOFF, _INNER_CUTOFF]) / 2.0)
    th = np.linspace(*ends, _RESONANCE_SCAN)
    w = np.linspace(2.0**-26, 1e-2, _STRIP_SCAN + 1)[-2::-1]
    return np.concatenate([2.0 * np.sin(-th[::-1] / 2.0), 2.0 - w * w])


def _sandwich_ratios(mu: np.ndarray, sys: BirmanSchwingerSystem) -> np.ndarray:
    """sigma_min / sigma_max of M(mu) per mu, NaN where M has an entry past the float range."""
    m = m_matrix_grid(mu, sys)
    ratios = np.full(mu.size, np.nan)
    finite = np.isfinite(m).all(axis=(1, 2))
    if finite.any():
        s = np.linalg.svd(m[finite], compute_uv=False)
        with np.errstate(invalid="ignore"):
            ratios[finite] = s[:, -1] / s[:, 0]
    return ratios


def _refined_minimum(a: float, b: float, sys: BirmanSchwingerSystem) -> Tuple[float, float]:
    """(mu, ratio) where _sandwich_ratios is least on [a, b], zooming by four down to adjacent floats."""
    while True:
        x = np.linspace(a, b, 9)
        # an M past the float range between grid points reads as no minimum
        r = np.nan_to_num(_sandwich_ratios(x, sys), nan=np.inf)
        i = int(np.argmin(r))
        if not x[0] < x[1] < x[-2] < x[-1]:
            return float(x[i]), float(r[i])
        a, b = x[max(i - 1, 0)], x[min(i + 1, 8)]


def _embedded_wave(mu, sites, x, n):
    return (boundary_kernel_plus(np.array([mu]), np.abs(np.subtract.outer(n, sites)))[0] @ x).real


def _embedded_states(mu: float, sys: BirmanSchwingerSystem) -> List[Tuple[float, Callable]]:
    """(mu^4, psi) per null vector phi of M(mu), psi = R0 v phi made real.

    The real and imaginary parts of the psi on the support's hull span the
    real eigenspace; the states are its orthonormal basis there (not in l2).
    """
    _, s, vh = np.linalg.svd(m_matrix_grid(np.array([mu]), sys)[0])
    x = sys.v[:, None] * vh[s <= _EMBEDDED_ROUNDING * s[0]].conj().T
    hull = np.abs(np.subtract.outer(np.arange(sys.sites[0], sys.sites[-1] + 1), sys.sites))
    psi = boundary_kernel_plus(np.array([mu]), hull)[0] @ x
    _, sv, wt = np.linalg.svd(np.hstack([psi.real, psi.imag]), full_matrices=False)
    k = x.shape[1]
    coef = wt[:k].T / sv[:k]  # rows: on the real, then on the imaginary parts of the psi
    x = x @ (coef[:k] - 1j * coef[k:])
    return [(mu**4, functools.partial(_embedded_wave, mu, sys.sites, col)) for col in x.T]


def embedded_eig_scan(V: Optional[PotentialSpec]) -> EmbeddedScanReport:
    """Eigenvalues embedded in the open band (0, 16), from the sandwich, with no window.

    M(mu + i0) = U + v R0(mu^4 + i0) v has a kernel exactly at an embedded
    eigenvalue mu^4: Im M >= 0, so a null vector phi carries no outgoing
    wave and psi = R0 v phi lies in l2. One batched SVD takes sigma_min /
    sigma_max on _band_scan_grid; each interior local minimum below
    _EMBEDDED_REFINE is refined and accepted at _EMBEDDED_ROUNDING or less.
    Minima are sought only between the first and last grid points whose
    ratio exceeds _EMBEDDED_ROUNDING (resolved): toward mu = 0 the singular
    values spread like mu^-3, mu^-1 and 1, and the float M reads singular.
    """
    mu = _band_scan_grid()
    if V is None:
        return EmbeddedScanReport((), (), (mu[0], mu[-1]), mu.size, "no embedded eigenvalues detected")
    sys = decompose_potential(V)
    ratio = _sandwich_ratios(mu, sys)
    resolved = np.flatnonzero(ratio > _EMBEDDED_ROUNDING)
    inner = np.arange(resolved[0] + 1, resolved[-1]) if resolved.size else np.arange(0)
    minima, states = [], []
    for i in inner[(ratio[inner] < ratio[inner - 1]) & (ratio[inner] <= ratio[inner + 1])
                   & (ratio[inner] < _EMBEDDED_REFINE)]:
        at, value = _refined_minimum(mu[i - 1], mu[i + 1], sys)
        minima.append((at, value))
        if value <= _EMBEDDED_ROUNDING:
            states += _embedded_states(at, sys)
    verdict = (f"{len(states)} embedded eigenvalue(s) found" if states
               else "no embedded eigenvalues detected")
    return EmbeddedScanReport(tuple(states), tuple(minima),
                              (mu[resolved[0]], mu[resolved[-1]]) if resolved.size else None,
                              mu.size, verdict)
