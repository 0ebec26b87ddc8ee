"""Expansion of the fourth-difference boundary resolvent at the band edges.

Near the lower band edge the boundary kernel expands in integer powers of mu
starting at mu**(-3); near the upper edge (energy 16, mu near 2) it expands
in half powers of the distance mt = 2 - mu starting at mt**(-1/2). At the
lower edge every coefficient is an exact polynomial in the site separation,
generated by a two-term recurrence; at the upper edge the leading ones are
closed and higher ones are recovered numerically by peeling the expansion
off kernel samples on a geometric grid. Remainder checks certify the decay
order of what is left after subtracting a partial sum, measured in weighted
operator norm over a lattice window.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .resolvent import boundary_kernel_plus
from .lattice import weighted_operator_norm

__all__ = [
    "coeff_zero",
    "coeff_sixteen",
    "coeff_numeric",
    "coeff_zero_series",
    "remainder_zero",
    "remainder_order",
    "remainder_norms",
    "geometric_grid",
]

_SQRT2 = float(np.sqrt(2.0))

# Orders recoverable from float64 kernel samples before cancellation noise
# dominates the fit.
_MAX_ORDER = {"zero": 4, "sixteen": 3}
_BASE_ORDER = {"zero": -3, "sixteen": -1}


def geometric_grid(lo: float, hi: float, ratio: float = 2.0 ** 0.25) -> np.ndarray:
    """Geometric grid from lo to hi with steps as close to ratio as possible."""
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    count = int(round(np.log(hi / lo) / np.log(ratio))) + 1
    return np.geomspace(lo, hi, max(count, 2))


def _require_sign(sign: str):
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


def coeff_zero(j: int, sign: str, n: int, m: int) -> complex:
    """Closed expansion coefficient of order j at the lower band edge.

    Supported orders are -3 through 0. The order -2 coefficient vanishes
    identically. The minus-side coefficient is the complex conjugate of the
    plus side.
    """
    _require_sign(sign)
    k = abs(int(n) - int(m))
    if j == -3:
        val = (-1.0 + 1.0j) / 4.0
    elif j == -2:
        val = 0.0 + 0.0j
    elif j == -1:
        val = ((1.0 + 1.0j) / 4.0) * (1.0 / 8.0 - k * k / 2.0)
    elif j == 0:
        val = complex(k * (k - 1) * (k + 1) / 12.0)
    else:
        raise ValueError(
            f"closed coefficients cover orders -3..0, got {j}; "
            "use coeff_numeric for higher orders"
        )
    return val if sign == "plus" else val.conjugate()


def coeff_sixteen(j: int, sign: str, n: int, m: int) -> complex:
    """Closed expansion coefficient of half-order j at the upper band edge.

    Order j multiplies mt**(j/2) with mt the distance to the edge in the
    quarter-root coordinate. Supported orders are -1 and 0.
    """
    _require_sign(sign)
    k = abs(int(n) - int(m))
    p = -1.0 if k % 2 else 1.0
    if j == -1:
        val = 1j * p / 32.0
    elif j == 0:
        val = (p / (32.0 * _SQRT2)) * (2.0 * _SQRT2 * k - (2.0 * _SQRT2 - 3.0) ** k)
    else:
        raise ValueError(
            f"closed coefficients cover orders -1..0, got {j}; "
            "use coeff_numeric for higher orders"
        )
    return val if sign == "plus" else val.conjugate()


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
        Shape (top + 4, len(ks)); row j + 3 holds order j.
    """
    if top < -3:
        raise ValueError(f"top must be >= -3, got {top}")
    h = _h_taylor(top + 3, np.asarray(ks, dtype=float))
    return _ZERO_PHASE[np.arange(top + 4) % 4][:, None] * h


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
    coeff_zero_series). At the upper edge it is the generic half power
    (n_order + 1)/2: no closed form settles whether a half order vanishes.
    """
    if threshold not in _BASE_ORDER:
        raise ValueError(f"threshold must be 'zero' or 'sixteen', got {threshold!r}")
    if threshold == "sixteen":
        return (n_order + 1) / 2.0
    j = n_order + 1
    return float(j + 1 if j % 4 == 2 else j)


def _kernel_samples(threshold: str, dist: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Plus-side kernel on a grid of edge distances, shape (len(dist), len(ks))."""
    if threshold == "zero":
        return boundary_kernel_plus(dist, ks)
    # Upper edge: mu = 2 - mt. Recompute 1 - mu^2/4 from mt to dodge the
    # cancellation, 1 - (2-mt)^2/4 = mt (4 - mt) / 4... accurate directly.
    mt = dist
    one_minus_q = mt * (4.0 - mt) / 4.0
    return boundary_kernel_plus(2.0 - mt, ks, one_minus_q=one_minus_q)


def _power(threshold: str, j: int, dist: np.ndarray) -> np.ndarray:
    return dist ** float(j) if threshold == "zero" else dist ** (j / 2.0)


def _closed(threshold: str, j: int, ks: np.ndarray) -> np.ndarray | None:
    fn = coeff_zero if threshold == "zero" else coeff_sixteen
    try:
        return np.array([fn(j, "plus", int(k), 0) for k in ks])
    except ValueError:
        return None


@lru_cache(maxsize=64)
def _numeric_table(threshold: str, j: int, kmax: int, grid_key) -> np.ndarray:
    """Plus-side coefficients of order j for separations 0..kmax.

    Peels the expansion sequentially: closed orders are subtracted exactly,
    unknown orders below j are fitted and subtracted one at a time, and the
    order-j coefficient is read off a guarded least-squares fit. grid_key is
    the sample grid as a tuple (hashable for the cache).
    """
    dist = np.asarray(grid_key)
    ks = np.arange(kmax + 1)
    resid = _kernel_samples(threshold, dist, ks)
    base = _BASE_ORDER[threshold]
    extra = 4 if threshold == "zero" else 5
    coeffs = None
    for order in range(base, j + 1):
        closed = _closed(threshold, order, ks)
        if closed is not None and order < j:
            resid = resid - np.outer(_power(threshold, order, dist), closed)
            continue
        cols = np.stack(
            [_power(threshold, order + e, dist) for e in range(extra + 1)], axis=1
        )
        scale = np.linalg.norm(cols, axis=0)
        sol, *_ = np.linalg.lstsq(cols / scale, resid, rcond=None)
        coeffs = sol[0] / scale[0]
        if order < j:
            resid = resid - np.outer(cols[:, 0], coeffs)
    return coeffs


def _default_fit_grid(threshold: str) -> np.ndarray:
    # The lower-edge kernel is ~ mu^-3 so samples below 1e-2 lose too many
    # digits to cancellation for coefficient fits; the upper-edge kernel is
    # O(1) and the full default span is usable.
    if threshold == "zero":
        return geometric_grid(1e-2, 1e-1)
    return geometric_grid(1e-3, 1e-1)


def coeff_numeric(
    threshold: str,
    sign: str,
    j: int,
    n: int,
    m: int,
    mu_grid: np.ndarray | None = None,
) -> complex:
    """Expansion coefficient of order j recovered from kernel samples.

    Parameters
    ----------
    threshold : {"zero", "sixteen"}
        Which band edge to expand at.
    sign : {"plus", "minus"}
        Boundary side; the minus side is the conjugate of the plus side.
    j : int
        Expansion order. At the lower edge order j multiplies mu**j, at
        the upper edge mt**(j/2).
    n, m : int
        Lattice sites; only |n - m| enters.
    mu_grid : ndarray, optional
        Grid of distances to the edge used for the fit. Defaults to a
        geometric grid with ratio near 2**(1/4); the lower-edge default is
        narrowed to [1e-2, 1e-1] for conditioning.

    Raises
    ------
    ValueError
        For orders beyond the float64 noise floor (4 at the lower edge,
        3 at the upper), reporting the achieved range.
    """
    _require_sign(sign)
    if threshold not in _BASE_ORDER:
        raise ValueError(f"threshold must be 'zero' or 'sixteen', got {threshold!r}")
    base, top = _BASE_ORDER[threshold], _MAX_ORDER[threshold]
    if j < base or j > top:
        raise ValueError(
            f"order {j} outside the achievable range {base}..{top} at "
            f"threshold {threshold!r}"
        )
    grid = _default_fit_grid(threshold) if mu_grid is None else np.asarray(mu_grid)
    k = abs(int(n) - int(m))
    table = _numeric_table(threshold, j, k, tuple(grid.tolist()))
    val = complex(table[k])
    return val if sign == "plus" else val.conjugate()


def _coefficient(threshold: str, j: int, ks: np.ndarray) -> np.ndarray:
    """Plus-side coefficient values over a separation table, closed or fitted."""
    closed = _closed(threshold, j, ks)
    if closed is not None:
        return closed
    grid = _default_fit_grid(threshold)
    return _numeric_table(threshold, j, int(ks.max()), tuple(grid.tolist()))


def _check_weight(threshold: str, n_order: int, s: float):
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
    sign: str,
    n_order: int,
    s: float,
    mu_grid: np.ndarray | None = None,
    window_radius: int = 64,
):
    """Weighted norms of the kernel minus its partial sum through n_order.

    Returns
    -------
    grid : ndarray
        Distances to the band edge that were sampled.
    norms : ndarray
        Weighted operator norm of the remainder at each distance, taken
        over the window [-window_radius, window_radius] with weight s.
    """
    _require_sign(sign)
    _check_weight(threshold, n_order, s)
    if window_radius < 64:
        raise ValueError("window_radius must be at least 64")
    if mu_grid is None:
        mu_grid = geometric_grid(1e-3, 1e-1)
    grid = np.asarray(mu_grid, dtype=float)
    ks = np.arange(2 * window_radius + 1)
    if threshold == "zero":
        # Kernel minus partial sum alone cancels below mu ~ 1e-2; with the
        # summed series tail the whole grid is usable at every order.
        resid = remainder_zero(n_order, grid, ks)
    else:
        resid = _kernel_samples(threshold, grid, ks)
        for order in range(_BASE_ORDER[threshold], n_order + 1):
            resid = resid - np.outer(
                _power(threshold, order, grid), _coefficient(threshold, order, ks)
            )
    if sign == "minus":
        resid = resid.conj()
    sites = np.arange(-window_radius, window_radius + 1)
    sep = np.abs(sites[:, None] - sites[None, :])
    norms = np.array([weighted_operator_norm(row[sep], s) for row in resid])
    return grid, norms
