"""Dispersive decay measurements: sup-norm series, exponent fits, space-time norms.

Sup norms of propagator kernels are collected on logarithmic time grids and
fitted to power laws. Free translation-invariant flows are measured over
their full causal range (an observation window that travels slower than the
wavefront would see boundary decay instead of the kernel's true envelope);
perturbed flows are measured on a fixed window through the band quadrature.
Space-time (Strichartz-type) norms of the free flow and the scaling pair of
the frequency-cap (Knapp-type) example complete the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.fft import fft, ifft

from .lattice import LatticeVector
from .propagator import KINDS, free_kernel_full, ring_weight, stone_kernel_slice
from .resolvent import _band_rates

__all__ = [
    "DecaySeries",
    "DecayFit",
    "FIT_MIN_POINTS",
    "log_time_grid",
    "fit_decay_exponent",
    "free_decay_series",
    "perturbed_decay_series",
    "strichartz_norm",
    "knapp_experiment",
]

# fewest points inside a fit window that fit_decay_exponent accepts
FIT_MIN_POINTS = 8

# sites per block of the frequency-cap space sum; one block holds the
# 100,531 sites of the smallest default cap width, 0.0125
_KNAPP_BLOCK = 2**17

# every kind has a free kernel; schrodinger_h names the perturbed flow,
# whose free case is schrodinger_free_bilap
_FREE_SERIES_KINDS = tuple(k for k in KINDS if k != "schrodinger_h")


@dataclass(frozen=True)
class DecaySeries:
    """Sup norms of a kernel family over increasing times.

    source is a free-form descriptor of what produced the numbers (flow
    kind, potential, evaluation route). A series from the band quadrature
    also carries, per time, the accepted budget and the half-budget error
    estimate of its slice, and the sites (n, m) of its sup; other routes
    leave them None.
    """

    times: np.ndarray
    sup_norms: np.ndarray
    source: str
    budgets: Optional[np.ndarray] = None
    error_estimates: Optional[np.ndarray] = None
    sup_sites: Optional[np.ndarray] = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.sup_norms, dtype=float)
        if t.ndim != 1 or t.shape != s.shape or t.size < 2:
            raise ValueError("times and sup_norms must be equal-length 1-d, >= 2")
        if np.any(~np.isfinite(t)) or np.any(t <= 0) or np.any(np.diff(t) <= 0):
            raise ValueError("times must be finite, positive, strictly increasing")
        if np.any(~np.isfinite(s)) or np.any(s <= 0):
            raise ValueError("sup_norms must be finite and positive")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "sup_norms", s)


@dataclass(frozen=True)
class DecayFit:
    """Power-law fit sup_norm ~ C t^(-alpha) over a time window."""

    alpha: float
    intercept: float
    r_squared: float
    window: Tuple[float, float]


def log_time_grid(t_min: float, t_max: float, per_decade: int = 16) -> np.ndarray:
    """Logarithmic time grid with the given density of points per decade."""
    if not (0 < t_min < t_max):
        raise ValueError("need 0 < t_min < t_max")
    decades = np.log10(t_max) - np.log10(t_min)
    count = max(int(round(per_decade * decades)) + 1, 2)
    return np.geomspace(t_min, t_max, count)


def fit_decay_exponent(
    series: DecaySeries, window: Optional[Tuple[float, float]] = None
) -> DecayFit:
    """Least-squares power-law fit of a decay series on a time window.

    Requires at least FIT_MIN_POINTS points inside the window so the fit
    carries statistical weight.
    """
    if window is None:
        window = (float(series.times[0]), float(series.times[-1]))
    lo, hi = window
    keep = (series.times >= lo) & (series.times <= hi)
    if int(keep.sum()) < FIT_MIN_POINTS:
        raise ValueError(
            f"need at least {FIT_MIN_POINTS} points in the fit window, got {keep.sum()}"
        )
    x = np.log(series.times[keep])
    y = np.log(series.sup_norms[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(
        alpha=float(-slope),
        intercept=float(intercept),
        r_squared=float(r2),
        window=(float(lo), float(hi)),
    )


def free_decay_series(kind: str, times: np.ndarray) -> DecaySeries:
    """Full-causal-range kernel sup norms of a free flow.

    The sup at each time is taken over every separation on an FFT ring
    that contains the causal range with margin (the separations 0..size/2
    of free_kernel_full, which hold the whole even ring), which is the
    kernel's translation-invariant sup over the whole lattice up to
    far-field noise.
    """
    if kind not in _FREE_SERIES_KINDS:
        raise ValueError(f"kind must be one of {_FREE_SERIES_KINDS}, got {kind!r}")
    times = np.asarray(times, dtype=float)
    sups = np.array([float(np.abs(free_kernel_full(t, kind)).max()) for t in times])
    return DecaySeries(times=times, sup_norms=sups, source=f"free:{kind}")


def perturbed_decay_series(
    V, times: np.ndarray, observe_radius: int = 32
) -> DecaySeries:
    """Windowed sup norms of the continuous part of the perturbed flow.

    Uses the band quadrature, so bound states never enter and the window
    may stay fixed while t grows. The whole series is one
    stone_kernel_slice call: each budget pass builds one node set for the
    largest time and every time shares it, so the series costs about as
    much as its largest time alone. sup_sites holds the (n, m) of each
    time's sup, the first maximiser in row-major order.
    """
    times = np.asarray(times, dtype=float)
    slices = stone_kernel_slice(times, V, observe_radius)
    mags = [np.abs(k.entries) for k in slices]
    peaks = [np.unravel_index(np.argmax(m), m.shape) for m in mags]
    return DecaySeries(
        times=times,
        sup_norms=np.array([float(m.max()) for m in mags]),
        source=f"stone:schrodinger_h:observe_radius={observe_radius}",
        budgets=np.array([k.budget for k in slices]),
        error_estimates=np.array([k.error_estimate for k in slices]),
        sup_sites=np.array(peaks, dtype=int) - observe_radius,
    )


def _time_quadrature(T: float):
    """Gauss nodes and weights on [0, T], log-graded above t = 1.

    Eight panels per decade above t = 1, ten Gauss points per panel.
    """
    per_decade, order = 8, 10
    edges = [0.0]
    head = min(1.0, T)
    edges.extend(np.linspace(head / 8.0, head, 8))
    if T > 1.0:
        decades = np.log10(T)
        count = max(int(np.ceil(per_decade * decades)), 1)
        edges.extend(np.geomspace(1.0, T, count + 1)[1:])
    edges = np.asarray(edges)
    # sorted already; only a subnormal T repeats an edge
    edges = edges[np.concatenate([[True], np.diff(edges) > 0])]
    gx, gw = np.polynomial.legendre.leggauss(order)
    lo = edges[:-1]
    half = 0.5 * np.diff(edges)
    nodes = (lo + half)[:, None] + half[:, None] * gx[None, :]
    weights = half[:, None] * gw[None, :]
    return nodes.ravel(), weights.ravel()


def strichartz_norm(q: float, r: float, T: float, psi0: LatticeVector) -> float:
    """Space-time norm of the free fourth-difference flow from psi0.

    Computes (Int_0^T (sum_n |u(t, n)|^r)^(q/r) dt)^(1/q) with
    u(t) = exp(-i t bilaplacian) psi0. Each time node t of the quadrature
    evolves psi0 on its own ring, the one ring_weight builds for t and
    the radius of psi0. r may be inf for the sup norm in space.
    """
    if not (q >= 1 and T > 0):
        raise ValueError("need q >= 1 and T > 0")
    if not (r >= 1):
        raise ValueError("need r >= 1 (inf allowed)")
    n0 = psi0.window_radius
    nodes, weights = _time_quadrature(T)
    acc = 0.0
    for t, w in zip(nodes, weights):
        weight = ring_weight(t, "schrodinger_free_bilap", n0)
        ring = np.zeros(weight.size, dtype=complex)
        ring[np.arange(-n0, n0 + 1) % weight.size] = psi0.values
        fft(ring, out=ring)
        ring *= weight
        mags = np.abs(ifft(ring, out=ring))
        if np.isinf(r):
            space = float(mags.max())
        else:
            space = float(np.sum(mags**r)) ** (1.0 / r)
        acc += w * space**q
    return float(acc ** (1.0 / q))


def _gauss_integral(f, lo: float, hi: float, panels: int, order: int = 12) -> float:
    gx, gw = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * gx[None, :]
    weights = half[:, None] * gw[None, :]
    return float(np.sum(f(nodes.ravel()) * weights.ravel()))


def _mean_sin_power(p: float) -> float:
    return _gauss_integral(lambda u: np.sin(u) ** p, 0.0, np.pi, 16) / np.pi


def knapp_experiment(epsilon: float, q: float = 8.0, r: float = 8.0):
    """Scaling pair of the frequency-cap example at cap width epsilon.

    The datum concentrates its spectrum on symbol energies up to
    epsilon**4; its size (lhs) is the square root of the cap width
    measured along the band, sqrt(2 min(epsilon, arccos(1 - eps^2/2))).
    The evolved wave is, to constants, separable,

        F(t, n) = sin(eps^4 t)/t * sin(eps n)/n,

    and rhs is its mixed dual norm L^{q'} in time, l^{r'} in space, with
    1/q + 1/q' = 1/r + 1/r' = 1. As epsilon decreases the pair scales as
    lhs ~ eps^(1/2) and rhs ~ eps^(1/r + 4/q).

    Returns
    -------
    (lhs, rhs) : tuple of float
    """
    if not (0.0 < epsilon <= 0.1):
        raise ValueError("epsilon must lie in (0, 0.1]")
    if q <= 1 or r <= 1:
        raise ValueError("need q > 1 and r > 1 for finite dual exponents")
    lhs = float(np.sqrt(2.0 * min(epsilon, _band_rates(epsilon)[0])))

    qp = q / (q - 1.0)
    rp = r / (r - 1.0)

    # time factor: ||sin(eps^4 t)/t||_{q'} = eps^{4/q} (2 I(q'))^{1/q'}
    cut = 1000.0 * np.pi
    head = _gauss_integral(
        lambda u: np.abs(np.sinc(u / np.pi)) ** qp, 0.0, cut, 4000
    )
    tail = _mean_sin_power(qp) * cut ** (1.0 - qp) / (qp - 1.0)
    time_part = epsilon ** (4.0 / q) * (2.0 * (head + tail)) ** (1.0 / qp)

    # space factor: (sum_n |sin(eps n)/n|^{r'})^{1/r'}, tail by the mean of
    # |sin|^{r'} against the power integral; the sum runs in blocks of
    # _KNAPP_BLOCK sites, so memory stays flat as epsilon shrinks
    n_top = int(np.ceil(400.0 * np.pi / epsilon))
    total = 0.0
    for start in range(1, n_top + 1, _KNAPP_BLOCK):
        n = np.arange(start, min(start + _KNAPP_BLOCK, n_top + 1))
        total += float(np.sum(np.abs(np.sin(epsilon * n) / n) ** rp))
    body = epsilon**rp + 2.0 * total
    tail_n = 2.0 * _mean_sin_power(rp) * n_top ** (1.0 - rp) / (rp - 1.0)
    space_part = (body + tail_n) ** (1.0 / rp)

    return lhs, float(time_part * space_part)
