"""Expansion of the fourth-difference boundary resolvent at the band edges.

Near the lower band edge the boundary kernel expands in integer powers of mu
starting at mu**(-3); near the upper edge (energy 16, mu near 2) it expands
in half powers of the distance mt = 2 - mu starting at mt**(-1/2). At both
edges every coefficient is exact, generated by recurrences in the order
with the site separation as a parameter. Remainder checks certify the
decay order of what is left after subtracting a partial sum, measured in
weighted operator norm over a lattice window.
"""

from __future__ import annotations

import numpy as np

from .resolvent import boundary_kernel_plus
from .lattice import weighted_operator_norm

__all__ = [
    "coeff_zero_series",
    "coeff_sixteen_series",
    "remainder_zero",
    "remainder_order",
    "remainder_norms",
    "remainder_work",
    "geometric_grid",
]

_SQRT2 = float(np.sqrt(2.0))
# 3 - 2 sqrt(2) = exp(b) at mu = 2, correctly rounded; the float difference
# 3 - 2 * _SQRT2 is off by seven units in the last place.
_DECAY_RATIO = 0.1715728752538099
_BASE_ORDER = {"zero": -3, "sixteen": -1}
# remainder_norms' default distances to the band edge, geometric at ratio 2^(1/4)
_DEFAULT_GRID = (1e-3, 1e-1)


def geometric_grid(lo: float, hi: float, ratio: float = 2.0 ** 0.25) -> np.ndarray:
    """Geometric grid from lo to hi with steps as close to ratio as possible."""
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    count = int(round(np.log(hi / lo) / np.log(ratio))) + 1
    return np.geomspace(lo, hi, max(count, 2))


def _require_threshold(threshold: str):
    if threshold not in _BASE_ORDER:
        raise ValueError(f"threshold must be 'zero' or 'sixteen', got {threshold!r}")


# (i - i**n) / 4 by n mod 4: the phase that order n - 3 of the lower-edge
# kernel carries, exact in floating point.
_ZERO_PHASE = np.array([(-1.0 + 1.0j) / 4.0, 0.0, (1.0 + 1.0j) / 4.0, 0.5j])

# Most terms of the lower-edge series tail summed before falling back to
# kernel minus partial sum; reached only for mu close to 2.
_TAIL_TERMS = 400


def _h_step(n: int, ks: np.ndarray) -> np.ndarray:
    """Factor taking the Taylor coefficient h_n to h_{n+2}."""
    return ((n + 1) ** 2 - 4.0 * ks * ks) / (4.0 * (n + 1) * (n + 2))


def _h_taylor(top: int, ks: np.ndarray) -> np.ndarray:
    """Taylor coefficients h_0..h_top, shape (top + 1, len(ks))."""
    h = np.zeros((top + 1, ks.size), dtype=complex)
    h[0] = 1.0
    if top >= 1:
        h[1] = 1j * ks
    for n in range(top - 1):
        h[n + 2] = _h_step(n, ks) * h[n]
    return h


def coeff_zero_series(top: int, ks) -> np.ndarray:
    """Exact plus-side lower-edge coefficients of orders -3 through top.

    The kernel numerator is i h(mu) - h(i mu), where
    h(mu) = exp(2ik asin(mu/2)) / sqrt(1 - mu^2/4) = g'(mu) / (ik) for
    g(mu) = exp(2ik asin(mu/2)). From (4 - mu^2) g'' - mu g' + 4k^2 g = 0,
    h solves (4 - mu^2) h'' - 3 mu h' + (4k^2 - 1) h = 0, so its Taylor
    coefficients obey the two-term recurrence

        h_{n+2} = ((n+1)^2 - 4k^2) h_n / (4 (n+1) (n+2)),  h_0 = 1, h_1 = ik,

    which holds at k = 0 as well. The coefficient of mu**j is
    h_{j+3} (i - i**(j+3)) / 4; it vanishes identically exactly when
    j = 2 (mod 4).

    Returns
    -------
    ndarray
        Shape (top + 4,) + ks.shape; row j + 3 holds order j.
    """
    if top < -3:
        raise ValueError(f"top must be >= -3, got {top}")
    ks = np.asarray(ks, dtype=float)
    h = _h_taylor(top + 3, ks.ravel())
    series = _ZERO_PHASE[np.arange(top + 4) % 4][:, None] * h
    return series.reshape((top + 4,) + ks.shape)


def _decay_taylor(count: int, ks: np.ndarray) -> np.ndarray:
    """Taylor coefficients c_0..c_{count-1} of the decaying wave in mt = 2 - mu.

    With mu = 2 sinh(phi) the wave exp(b k) / sqrt(1 + mu^2/4) is
    exp(-2k phi) / cosh(phi), which solves
    (4 + mu^2) f'' + 3 mu f' + (1 - 4k^2) f = 0. In powers of mt,

        8 (n+1)(n+2) c_{n+2} = 2 (n+1)(2n+3) c_{n+1} - ((n+1)^2 - 4k^2) c_n,

    with c_0 = r^k / sqrt(2), c_1 = r^k (k/2 + 1/(4 sqrt(2))) and
    r = 3 - 2 sqrt(2), the value of exp(b) at mu = 2.
    """
    c = np.zeros((max(count, 2), ks.size))
    c[0] = _DECAY_RATIO**ks / _SQRT2
    c[1] = _DECAY_RATIO**ks * (ks / 2.0 + 1.0 / (4.0 * _SQRT2))
    for n in range(count - 2):
        c[n + 2] = (
            2 * (n + 1) * (2 * n + 3) * c[n + 1] - ((n + 1) ** 2 - 4.0 * ks * ks) * c[n]
        ) / (8.0 * (n + 1) * (n + 2))
    return c[:count]


def coeff_sixteen_series(top: int, ks) -> np.ndarray:
    """Exact plus-side upper-edge coefficients of half-orders -1 through top.

    With mu = 2 cos(psi) and s = sqrt(2 - mu) = 2 sin(psi/2), the
    oscillating wave i exp(-i theta_plus k) / sqrt(1 - mu^2/4) equals
    i (-1)^k h(s) / s, with h the function of coeff_zero_series at
    separation -2k; it puts i (-1)^k h_{j+1} on s**j. The decaying wave is
    analytic in mt = s^2 (see _decay_taylor) and enters the even orders.
    Both are multiplied by the amplitude

        1 / (4 mu^3) = (1/32) sum_p C(p+2, 2) 2^-p s^(2p).

    Returns
    -------
    ndarray
        Shape (top + 2,) + ks.shape; row j + 1 holds order j, the
        coefficient of mt**(j/2).
    """
    if top < -1:
        raise ValueError(f"top must be >= -1, got {top}")
    ks = np.asarray(ks, dtype=float)
    flat = ks.ravel()
    rows = top + 2
    waves = 1j * np.where(flat % 2, -1.0, 1.0) * _h_taylor(top + 1, -2.0 * flat)
    waves[1::2] -= _decay_taylor(rows // 2, flat)
    series = np.zeros_like(waves)
    for p in range((rows + 1) // 2):
        series[2 * p:] += (p + 1) * (p + 2) / 2.0 ** (p + 6) * waves[: rows - 2 * p]
    return series.reshape((rows,) + ks.shape)


def remainder_zero(n_order: int, mu, ks) -> np.ndarray:
    """Plus-side lower-edge kernel minus its partial sum through n_order.

    Each sample takes whichever of two routes loses fewer digits. Kernel
    minus partial sum loses the rounding of its largest term: near the
    edge the kernel is about mu**(-3) while the remainder is about
    mu**(n_order + 1), so below mu ~ 1e-2 that difference is noise. The
    tail of the exact series of coeff_zero_series, summed term by term,
    loses the rounding of its largest term instead, which grows like
    exp(k mu). The tail stops once the neglected part is below 1e-17 of
    the sum; past order n the coefficient ratio within each parity chain
    is at most mu^2 max(k^2 / (n (n+1)), 1/4) < 1.

    Returns
    -------
    ndarray
        Shape (len(mu), len(ks)).
    """
    if n_order < _BASE_ORDER["zero"]:
        raise ValueError(f"n_order must be >= -3, got {n_order}")
    mu = np.asarray(mu, dtype=float)
    if np.any((mu <= 0.0) | (mu >= 2.0)):
        raise ValueError("mu must lie in (0, 2)")
    ks = np.asarray(ks, dtype=float)
    coeffs = coeff_zero_series(n_order, ks)
    powers = mu[:, None] ** np.arange(-3.0, n_order + 1.0)
    kernel = boundary_kernel_plus(mu, ks)
    direct = kernel - powers @ coeffs
    direct_scale = np.abs(kernel) + powers @ np.abs(coeffs)

    n0 = n_order + 4
    h = _h_taylor(n0 + 1, ks)
    h_n, h_next = h[n0], h[n0 + 1]
    mu_n = mu ** (n0 - 3.0)
    tail = np.zeros(direct.shape, dtype=complex)
    tail_scale = np.zeros(direct.shape)
    size_prev = np.full(direct.shape, np.inf)
    converged = np.zeros(direct.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n0, n0 + _TAIL_TERMS):
            size = np.multiply.outer(mu_n, np.abs(h_n))
            tail += _ZERO_PHASE[n % 4] * np.multiply.outer(mu_n, h_n)
            tail_scale += size
            ratio = np.multiply.outer(
                mu * mu, np.maximum(ks * ks / (n * (n + 1)), 0.25)
            )
            rest = np.full(direct.shape, np.inf)
            np.divide(
                0.5 * (size_prev + size) * ratio, 1.0 - ratio,
                out=rest, where=ratio < 1.0,
            )
            converged |= rest <= 1e-17 * np.abs(tail)
            better = tail_scale <= direct_scale
            if not np.any(better & ~converged):
                break
            h_n, h_next = h_next, _h_step(n, ks) * h_n
            mu_n = mu_n * mu
            size_prev = size
    return np.where(converged & better, tail, direct)


def remainder_order(threshold: str, n_order: int) -> float:
    """Power of the edge distance at which the remainder after n_order vanishes.

    At the lower edge this is the first order above n_order whose
    coefficient does not vanish identically; orders j = 2 (mod 4) do (see
    coeff_zero_series). At the upper edge it is the next half power
    (n_order + 1)/2: coeff_sixteen_series has no identically vanishing
    order (no entry of orders -1..14 over separations 0..199 is zero).
    """
    _require_threshold(threshold)
    if threshold == "sixteen":
        return (n_order + 1) / 2.0
    j = n_order + 1
    return float(j + 1 if j % 4 == 2 else j)


def _check_weight(threshold: str, n_order: int, s: float):
    _require_threshold(threshold)
    base = _BASE_ORDER[threshold]
    if n_order < base:
        raise ValueError(f"n_order must be >= {base} at threshold {threshold!r}")
    s_min = 0.5 + n_order + (4 if threshold == "zero" else 2)
    if s <= s_min:
        raise ValueError(
            f"weight s = {s} too small for order {n_order} at threshold "
            f"{threshold!r}; need s > {s_min}"
        )


def remainder_norms(
    threshold: str,
    n_order: int,
    s: float,
    mu_grid: np.ndarray | None = None,
    window_radius: int = 64,
):
    """Weighted norms of the kernel minus its partial sum through n_order.

    The remainder is taken on the plus side. The minus-side remainder is
    its complex conjugate, which has the same singular values, so the
    norms serve both sides. A remainder depends on the separation alone:
    its row at the separations 0..2 window_radius is what
    weighted_operator_norm takes.

    Returns
    -------
    grid : ndarray
        Distances to the band edge that were sampled.
    norms : ndarray
        Weighted operator norm of the remainder at each distance, taken
        over the window [-window_radius, window_radius] with weight s.
    """
    _check_weight(threshold, n_order, s)
    if window_radius < 64:
        raise ValueError("window_radius must be at least 64")
    if mu_grid is None:
        mu_grid = geometric_grid(*_DEFAULT_GRID)
    grid = np.asarray(mu_grid, dtype=float)
    ks = np.arange(2 * window_radius + 1)
    if threshold == "zero":
        # Kernel minus partial sum alone cancels below mu ~ 1e-2; with the
        # summed series tail the whole grid is usable at every order.
        resid = remainder_zero(n_order, grid, ks)
    else:
        # The kernel is O(mt**(-1/2)) here, so the plain difference keeps
        # its digits; 1 - mu^2/4 is formed from mt to avoid cancelling.
        one_minus_q = grid * (4.0 - grid) / 4.0
        kernel = boundary_kernel_plus(2.0 - grid, ks, one_minus_q=one_minus_q)
        powers = grid[:, None] ** (np.arange(-1.0, n_order + 1.0) / 2.0)
        resid = kernel - powers @ coeff_sixteen_series(n_order, ks)
    norms = np.array([weighted_operator_norm(row, s) for row in resid])
    return grid, norms


def remainder_work(window_radius: int) -> int:
    """Work of remainder_norms on its default grid: grid points times (window_radius + 1)^3.

    Each grid point costs one SVD of a parity block of side window_radius
    + 1 (see weighted_operator_norm), which outweighs building the
    remainder from window radius 128 on.
    """
    return geometric_grid(*_DEFAULT_GRID).size * (window_radius + 1) ** 3
