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
one definition of the discrete spectrum. Window truncations, diagonalised once
per matrix through the memoised eigensystem, cross-check those states and scan
the band for embedded eigenvalues.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .expansion import coeff_sixteen_series, coeff_zero_series
from .lattice import (
    LatticeVector,
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
    "eigensystem",
    "bound_states",
    "discrete_eigs",
    "embedded_eig_scan",
    "SingularSandwichError",
    "BAND_MARGIN",
]

BAND_MARGIN = 1e-6
"""Margin delta_b separating "outside the band" from [0 - delta_b, 16 + delta_b]."""

_LOCALIZATION_RATIO = 0.999

_GAP = 1e-12  # bound_states' distance from the band edges; closer roots are one energy

_SINGULAR_NORM = 1e10  # solve_sandwich's refusal threshold on the Frobenius norm of M^-1


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
    """Window-stability scan for eigenvalues inside the open band.

    candidates maps each window radius to the interior localized
    eigenvalues found there; stable_candidates are those matching across
    every window to 1e-6.
    """

    window_radii: Tuple[int, ...]
    candidates: dict
    stable_candidates: Tuple[float, ...]
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
    node's energy. A 1 x 1 sandwich is a division; otherwise one batched solve
    takes the identity as d more right-hand sides, so M^-1 costs no factorisation
    of its own. An exact zero pivot (or a NaN determinant) counts as infinite,
    and so does an M with an entry past the float range, whose inverse is
    not to be trusted even where the solve returns finite numbers; a NaN
    norm is refused like an infinite one.
    """
    d, cols = m.shape[1], z.shape[2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if d == 1:
            inv = 1.0 / m
            y, norms = z * inv, np.abs(inv[:, 0, 0])
        else:
            eye = np.broadcast_to(np.eye(d), (m.shape[0], d, d))
            try:
                sol = np.linalg.solve(m, np.concatenate([z, eye], axis=2))
            except np.linalg.LinAlgError:
                y, inv, norms = None, None, np.where(np.abs(np.linalg.det(m)) > 0.0, 0.0, np.inf)
            else:
                y, inv = sol[:, :, :cols], sol[:, :, cols:]
                norms = np.linalg.norm(inv, axis=(1, 2))
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


def _parity_eigh(V: Optional[PotentialSpec], window_radius: int):
    """Eigensystem of a reflection-symmetric window from its parity blocks.

    The even block (size R + 1) and then the odd one (size R) are built
    from the stencil by build_hamiltonian(V, R, parity), and each goes as
    soon as eigh has read it; the window matrix is never formed. The block
    eigenvectors, mapped back to the sites -R..R, are scattered straight
    into the columns where the eigenvalues sort (a stable sort, even
    before odd on ties), so no reordered copy is made either. The peak
    comes as they are scattered: the result and both blocks' eigenvectors,
    1.5 (2R + 1)^2 doubles, against 4.0 when the window matrix and a sorted
    copy of the eigenvectors were formed.
    """
    ev_even, a = np.linalg.eigh(build_hamiltonian(V, window_radius, parity=0))
    ev_odd, b = np.linalg.eigh(build_hamiltonian(V, window_radius, parity=1))
    radius = b.shape[0]
    ev = np.concatenate([ev_even, ev_odd])
    order = np.argsort(ev, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    even, odd = column[: radius + 1], column[radius + 1 :]
    a[1:] /= np.sqrt(2.0)
    b /= np.sqrt(2.0)
    vecs = np.zeros((2 * radius + 1, 2 * radius + 1))
    vecs[radius:, even] = a
    vecs[radius - 1 :: -1, even] = a[1:]
    vecs[radius + 1 :, odd] = b
    np.negative(b, out=b)
    vecs[radius - 1 :: -1, odd] = b
    return ev[order], vecs


@functools.lru_cache(maxsize=1)
def _eigensystem(support, values, window_radius):
    V = None if support is None else PotentialSpec(support, np.array(values))
    diagonal = _window_diagonal(V, window_radius)
    if window_radius > 0 and np.array_equal(diagonal, diagonal[::-1]):
        ev, vecs = _parity_eigh(V, window_radius)
    else:
        ev, vecs = np.linalg.eigh(build_hamiltonian(V, window_radius))
    ev.flags.writeable = False
    vecs.flags.writeable = False
    return ev, vecs


def eigensystem(V: Optional[PotentialSpec], window_radius: int) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Dirichlet window truncation of Delta^2 + V.

    The window matrix equals its reflection n -> -n exactly when its
    diagonal 6 + V does (no potential or an even one). Such a window is
    diagonalised as its even and odd blocks, each about half the window
    and built straight from the stencil by build_hamiltonian(V, R,
    parity) (_parity_eigh): the window matrix is never formed, and the
    peak holds 1.5 (2R + 1)^2 doubles, the result's eigenvectors and both
    blocks'. Any other window is assembled whole by build_hamiltonian(V,
    R) and diagonalised whole. The last result
    is kept, keyed on the potential's support, values and window radius,
    as read-only arrays shared by every caller: eig-scan's cross-check
    reads back the window its scan did last.
    """
    if V is None:
        return _eigensystem(None, None, window_radius)
    return _eigensystem(V.support, tuple(V.values.tolist()), window_radius)


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


def _localization_ratios(vecs: np.ndarray, window_radius: int) -> np.ndarray:
    """Share of each column's squared norm on the sites |n| <= window_radius // 2."""
    lo, hi = window_radius - window_radius // 2, window_radius + window_radius // 2 + 1
    inner = np.einsum("ij,ij->j", vecs[lo:hi], vecs[lo:hi])
    return inner / np.einsum("ij,ij->j", vecs, vecs)


def discrete_eigs(
    V: PotentialSpec, window_radius: int
) -> List[Tuple[float, LatticeVector]]:
    """Eigenpairs of a window truncation outside the band, a check on bound_states.

    Keeps eigenvalues below -BAND_MARGIN or above 16 + BAND_MARGIN, with no
    test of how well the window holds their eigenvectors: a shallow state
    spreads over hundreds of sites, and its window eigenvalue converges to
    bound_states' as the window grows. The window must clear the support by
    two sites (build_hamiltonian). A None potential is the free operator,
    which has no eigenvalues off the band.
    """
    if V is None:
        return []
    ev, vecs = eigensystem(V, window_radius)
    off = (ev < -BAND_MARGIN) | (ev > 16.0 + BAND_MARGIN)
    return [
        (float(lam), LatticeVector(window_radius, vec.astype(complex)))
        for lam, vec in zip(ev[off], vecs.T[off])
    ]


def embedded_eig_scan(V: PotentialSpec, window_radii) -> EmbeddedScanReport:
    """Scan for window-stable localized eigenvalues inside the open band.

    Interior localized eigenvalues of a window truncation are discretised
    band states unless they persist, at fixed value, as the window grows.
    A candidate is reported only when it appears in every window radius
    within 1e-6.
    """
    radii = tuple(int(r) for r in window_radii)
    if len(radii) < 2:
        raise ValueError("need at least two window radii for a stability verdict")
    if V is None:
        return EmbeddedScanReport(
            window_radii=radii,
            candidates={r: [] for r in radii},
            stable_candidates=(),
            verdict="no embedded eigenvalues detected",
        )
    candidates = {}
    # the largest window last, so that it is the one eigensystem keeps
    for radius in sorted(set(radii)):
        ev, vecs = eigensystem(V, radius)
        keep = (
            (BAND_MARGIN < ev)
            & (ev < 16.0 - BAND_MARGIN)
            & (_localization_ratios(vecs, radius) >= _LOCALIZATION_RATIO)
        )
        candidates[radius] = [float(lam) for lam in ev[keep]]
    stable = [
        lam
        for lam in candidates[radii[0]]
        if all(
            any(abs(lam - other) <= 1e-6 for other in candidates[r]) for r in radii[1:]
        )
    ]
    verdict = (
        "no embedded eigenvalues detected"
        if not stable
        else f"{len(stable)} window-stable interior eigenvalue(s) found"
    )
    return EmbeddedScanReport(
        window_radii=radii,
        candidates=candidates,
        stable_candidates=tuple(stable),
        verdict=verdict,
    )
