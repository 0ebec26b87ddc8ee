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
band M is real symmetric and locates the bound states with no window; window
truncations are diagonalised once per matrix through the memoised eigensystem.
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
    _neg_laplacian_matrix,
    _parity_blocks,
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
    "min_localizing_radius",
    "LocalizationError",
    "SingularSandwichError",
    "BAND_MARGIN",
]

BAND_MARGIN = 1e-6
"""Margin delta_b separating "outside the band" from [0 - delta_b, 16 + delta_b]."""

_LOCALIZATION_RATIO = 0.999

_GAP = 1e-12  # bound_states' distance from the band edges; closer roots are one energy

_SINGULAR_NORM = 1e10  # solve_sandwich's refusal threshold on the Frobenius norm of M^-1


class LocalizationError(ValueError):
    """A window truncation too small to localize an eigenvector."""


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
    against the grid is leakage_slope. skipped is set (with a diagnostic)
    when the threshold is not regular and the probe does not apply.
    """

    threshold: str
    grid: np.ndarray
    inverse_norms: np.ndarray
    leakage_norms: np.ndarray
    sup_inverse_norm: float
    leakage_slope: Optional[float]
    skipped: bool = False
    diagnostic: str = ""


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
    at the upper. solve_sandwich gives the inverses and refuses a singular M.
    """
    report = regular_point_check(sys, threshold)
    grid = np.asarray(mu_grid, dtype=float)
    if np.any(grid <= 0) or np.any(grid >= 2):
        raise ValueError("grid of edge distances must lie in (0, 2)")
    if not report.is_regular:
        return MinvProbeReport(
            threshold=threshold,
            grid=grid,
            inverse_norms=np.array([]),
            leakage_norms=np.array([]),
            sup_inverse_norm=float("nan"),
            leakage_slope=None,
            skipped=True,
            diagnostic=(
                f"threshold {threshold!r} not regular (smallest singular value "
                f"{report.smallest_singular_value:.3e} <= tolerance "
                f"{report.tolerance_used:.3e}); probe skipped"
            ),
        )
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


def _parity_eigh(even: np.ndarray, odd: np.ndarray):
    """Eigensystem of a reflection-symmetric window from its parity blocks.

    even and odd are the blocks of lattice._parity_blocks, sizes R + 1 and
    R. Each is diagonalised on its own; the eigenvectors are mapped back
    to the sites -R..R and all eigenpairs sorted by eigenvalue.
    """
    radius = odd.shape[0]
    ev_even, a = np.linalg.eigh(even)
    ev_odd, b = np.linalg.eigh(odd)
    a[1:] /= np.sqrt(2.0)
    b /= np.sqrt(2.0)
    vecs = np.zeros((2 * radius + 1, 2 * radius + 1))
    vecs[radius:, : radius + 1] = a
    vecs[radius - 1 :: -1, : radius + 1] = a[1:]
    vecs[radius + 1 :, radius + 1 :] = b
    vecs[radius - 1 :: -1, radius + 1 :] = -b
    ev = np.concatenate([ev_even, ev_odd])
    order = np.argsort(ev, kind="stable")
    return ev[order], vecs[:, order]


@functools.lru_cache(maxsize=9)
def _eigensystem(operator, support, values, window_radius):
    if operator == "lap":
        h = _neg_laplacian_matrix(window_radius)
    else:
        V = None if support is None else PotentialSpec(support, np.array(values))
        h = build_hamiltonian(V, window_radius)
    blocks = _parity_blocks(h)
    if blocks is None:
        ev, vecs = np.linalg.eigh(h)
    else:
        ev, vecs = _parity_eigh(*blocks)
    ev.flags.writeable = False
    vecs.flags.writeable = False
    return ev, vecs


def eigensystem(
    V: Optional[PotentialSpec], window_radius: int, operator: str = "bilap"
) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Dirichlet window truncation.

    operator "bilap" is the fourth difference plus V, "lap" the free
    second difference. A window matrix equal to its reflection n -> -n
    (no potential, the second difference, or an even potential) is
    diagonalised as its even and odd blocks, each about half the window.
    Each matrix is diagonalised once per process: the last nine results
    are kept, keyed on the operator, the potential's support and values
    and the window radius, and returned as read-only arrays shared by
    every caller.
    """
    if operator not in ("bilap", "lap"):
        raise ValueError(f"operator must be 'bilap' or 'lap', got {operator!r}")
    if operator == "lap" and V is not None:
        raise ValueError("the second-difference operator takes no potential")
    if V is None:
        return _eigensystem(operator, None, None, window_radius)
    return _eigensystem(operator, V.support, tuple(V.values.tolist()), window_radius)


def _off_band_sandwich(E: float, sys: BirmanSchwingerSystem) -> np.ndarray:
    """U + v R0(E) v at a real energy E off [0, 16], real symmetric."""
    return _sandwich(lambda k: free_biresolvent_complex(E, k).real, sys)


def _count_drops(a: float, b: float, sys: BirmanSchwingerSystem) -> List[float]:
    """Energies in [a, b], bisected to adjacent floats, where M's negative count falls."""
    def count(E):
        return int(np.count_nonzero(np.linalg.eigvalsh(_off_band_sandwich(E, sys)) < 0.0))
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
    """x = v w, w null vectors of M(E), with the psi = R0(E) x orthonormal in l2."""
    ev, vecs = np.linalg.eigh(_off_band_sandwich(E, sys))
    x = sys.v[:, None] * vecs[:, np.argsort(np.abs(ev))[:k]]
    lo, hi = sys.sites[0], sys.sites[-1]
    inner = _bound_wave(E, sys.sites, x, np.arange(lo, hi + 1))
    amps, rates = _off_band_waves(E)
    series = 1.0 / np.expm1(-(rates[:, None] + rates[None, :]))
    # past the support's hull psi is the kernel's two waves: geometric series
    gram = inner.T @ inner
    for reach in (hi - sys.sites, sys.sites - lo):
        tail = amps[:, None] * np.exp(np.outer(rates, reach)) @ x
        gram += (tail.T @ series @ tail).real
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
    the coupling it balances, so SingularSandwichError is raised there.
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


def min_localizing_radius(V: PotentialSpec) -> int:
    """Smallest window radius discrete_eigs accepts: four support radii, at least 4."""
    return 4 * max(V.support_radius, 1)


def discrete_eigs(
    V: PotentialSpec, window_radius: int
) -> List[Tuple[float, LatticeVector]]:
    """Eigenvalues of the truncated perturbed operator outside the band.

    Keeps eigenvalues below -BAND_MARGIN or above 16 + BAND_MARGIN. The
    window must be at least four times the potential support radius so the
    returned eigenvectors are window-localized; a vector failing the
    localization ratio raises LocalizationError, since it signals a
    too-small window. A None potential is the free operator, which has no
    eigenvalues off the band.
    """
    if V is None:
        return []
    need = min_localizing_radius(V)
    if window_radius < need:
        raise ValueError(
            "window_radius must be >= 4 * support radius "
            f"(need {need}, got {window_radius})"
        )
    ev, vecs = eigensystem(V, window_radius)
    ratios = _localization_ratios(vecs, window_radius)
    out: List[Tuple[float, LatticeVector]] = []
    for lam, vec, ratio in zip(ev, vecs.T, ratios):
        if -BAND_MARGIN <= lam <= 16.0 + BAND_MARGIN:
            continue
        if ratio < _LOCALIZATION_RATIO:
            raise LocalizationError(
                f"eigenvector at {lam:.6g} has localization ratio {ratio:.4f}; "
                "enlarge the window"
            )
        out.append((float(lam), LatticeVector(window_radius, vec.astype(complex))))
    return out


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
    for radius in radii:
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
