"""Lattice resolvent kernels for the second- and fourth-difference operators.

The second-difference resolvent on the integer lattice has the closed form

    R(omega, n, m) = -i exp(-i theta |n - m|) / (2 sin theta),

where theta solves 2 - 2 cos theta = omega in the strip
{a + i b : -pi <= a <= pi, b < 0}. The fourth-difference resolvent follows by
a partial-fraction split over the two square roots of the spectral parameter.
Boundary values on the band (0, 16) are an explicit combination of an
oscillating and an exponentially decaying wave; they are parametrised here
by mu = (band energy)^(1/4) in (0, 2). Every boundary value computed here is
the one approached from the upper half plane; the value from the lower half
plane is its complex conjugate.
"""

from __future__ import annotations

import cmath

import numpy as np

__all__ = [
    "free_biresolvent_complex",
    "windowed_boundary_resolvent",
]


def _band_rates(mu):
    """Oscillation phase and decay rate of the boundary kernel at energy mu**4.

    Returns (phase, b), elementwise in mu: phase = arccos(1 - mu^2/2) =
    -theta_plus, the phase in (0, pi) with 2 - 2 cos(phase) = mu^2, and
    b = log(1 + mu^2/2 - mu sqrt(1 + mu^2/4)), negative on (0, 2], with
    log1p keeping full relative accuracy as mu tends to 0. The kernel at
    separation k is a combination of exp(i phase k) and exp(b k).
    """
    phase = np.arccos(1.0 - mu * mu / 2.0)
    b = np.log1p(mu * mu / 2.0 - mu * np.sqrt(1.0 + mu * mu / 4.0))
    return phase, b


_PHASE_SPLIT = 2.0**13 + 1.0
"""Veltkamp factor splitting the phase into a 40-bit head and its tail."""


def _turns(phase_head, phase_tail, ks):
    """exp(i (head + tail) k) for k in ks, shape (len(ks),) + phase.shape.

    head * k is exact for k below 2^13, so the cosine and sine see the
    exact phase; the tail's share, below 2.3e-8 radians there, enters to
    first order, which is exact to rounding.
    """
    arg = np.multiply.outer(ks, phase_head)
    cos, sin = np.cos(arg), np.sin(arg)
    small = np.multiply.outer(ks, phase_tail)
    out = np.empty(arg.shape, dtype=complex)
    np.subtract(cos, sin * small, out=out.real)
    np.add(sin, cos * small, out=out.imag)
    return out


def boundary_kernel_plus(mu, k, one_minus_q=None):
    """Vectorised upper boundary kernel of the fourth-difference resolvent.

    Each separation splits as k = q B + r with B = ceil(sqrt(max k + 1)),
    so both waves come from products of a coarse table over q B, which
    carries the per-node amplitudes, and a fine table over r: 2 B
    evaluations of cos, sin and exp per node instead of one per
    separation, and one product per requested separation.

    Parameters
    ----------
    mu : ndarray
        Band coordinates in (0, 2), shape (...,).
    k : ndarray
        Non-negative integer site separations |n - m|, any shape and order.
    one_minus_q : ndarray, optional
        Precomputed values of 1 - mu**2/4. The default
        (1 - mu/2)(1 + mu/2) keeps its relative error at rounding level as
        mu -> 2; callers working in the variable w = sqrt(2 - mu) should
        pass w**2 (4 - w**2) / 4, which also keeps the rounding of mu out.

    Returns
    -------
    ndarray
        Kernel values (i exp(-i theta_plus k) / sqrt(1 - mu^2/4)
        - exp(b k) / sqrt(1 + mu^2/4)) / (4 mu^3), shape mu.shape + k.shape.
    """
    mu = np.asarray(mu, dtype=float)
    k = np.asarray(k)
    sep = k.astype(np.int64)
    if np.any(sep != k) or np.any(sep < 0):
        raise ValueError("separations must be non-negative integers")
    if one_minus_q is None:
        one_minus_q = (1.0 - mu / 2.0) * (1.0 + mu / 2.0)
    one_minus_q = np.asarray(one_minus_q, dtype=float)
    phase, b = _band_rates(mu)
    head = phase * _PHASE_SPLIT
    head -= head - phase
    tail = phase - head

    top = int(sep.max()) if sep.size else 0
    step = int(np.ceil(np.sqrt(top + 1)))
    fine = np.arange(step, dtype=float)
    coarse = step * np.arange(top // step + 1, dtype=float)
    amp = 4.0 * mu**3
    osc = _turns(head, tail, coarse)
    osc *= 1j / (amp * np.sqrt(one_minus_q))
    dec = np.exp(np.multiply.outer(coarse, b))
    dec /= amp * np.sqrt(2.0 - one_minus_q)
    # table rows are node arrays: row q of a coarse table times row r of
    # the matching fine table gives separation q B + r
    q, r = np.divmod(sep, step)
    vals = osc[q] * _turns(head, tail, fine)[r]
    vals -= dec[q] * np.exp(np.multiply.outer(fine, b))[r]
    return np.moveaxis(vals, tuple(range(k.ndim)), tuple(range(-k.ndim, 0)))


def _off_band_waves(z: complex):
    """(amps, rates): the kernel at z off [0, 16] is sum(amps * exp(rates * |k|)).

    It is (R2(w, k) - R2(-w, k)) / (2 w), w^2 = z, with R2(omega, k) =
    r^k / q, |r| < 1, r + 1 / r = 2 - omega and q = 1 / r - r; q^2 = omega
    (omega - 4) is formed as w (z - 16) / (w + 4) at omega = w to stay exact
    as z tends to 16.
    """
    zc = complex(z)
    if zc.imag == 0.0 and 0.0 <= zc.real <= 16.0:
        raise ValueError(f"z = {zc} lies on the band [0, 16]")
    w = cmath.sqrt(zc)  # Re w >= 0, so w + 4 never cancels
    omega = np.array([w, -w])
    q = np.sqrt(np.array([w * (zc - 16.0) / (w + 4.0), w * (w + 4.0)]))
    # the sign that puts 1 / r = (2 - omega + q) / 2 outside the unit circle
    q[((2.0 - omega).conj() * q).real < 0.0] *= -1.0
    return np.array([1.0, -1.0]) / (2.0 * w * q), -np.log((2.0 - omega + q) / 2.0)


def free_biresolvent_complex(z: complex, k) -> np.ndarray:
    """Fourth-difference resolvent kernel at z off [0, 16], over any array of
    integer separations k; real up to rounding for real z."""
    amps, rates = _off_band_waves(z)
    return np.exp(np.multiply.outer(np.abs(k), rates)) @ amps


def solve_banded(l_and_u, ab, b, **kwargs):
    """scipy.linalg.solve_banded, imported on the first call.

    The window oracle is the package's one use of scipy, so importing the
    package does not load it.
    """
    from scipy.linalg import solve_banded as solve

    return solve(l_and_u, ab, b, **kwargs)


def _neville_at_zero(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Polynomial extrapolation of samples ys[j] at xs[j] to x = 0, elementwise."""
    t = list(ys)
    n = len(t)
    for k in range(1, n):
        for j in range(n - k):
            t[j] = (xs[j] * t[j + 1] - xs[j + k] * t[j]) / (xs[j] - xs[j + k])
    return t[0]


_LADDER = 4
"""Rungs of the eps ladder, each twice the previous."""

_DECAY_LENGTHS = 30.0
"""Regularised decay lengths each rung's tail holds past the central block."""


def _pentadiagonal_band(side: int) -> np.ndarray:
    """LAPACK band storage of the fourth difference, diagonal row left zero."""
    ab = np.zeros((5, side), dtype=complex)
    ab[0, 2:], ab[1, 1:], ab[3, :-1], ab[4, :-2] = 1.0, -4.0, -4.0, 1.0
    return ab


def _eps_ladder(mu: float):
    """(eps, tails) of windowed_boundary_resolvent's rungs at mu, tails in sites as floats.

    Rung 0's tail is the longest; it grows like 1 / mu and 1 / sqrt(2 - mu) at the edges.
    """
    lam = mu**4
    eps_values = min(2e-3, min(lam, 16.0 - lam) / 400.0) * 2.0 ** np.arange(_LADDER)
    # decay length of the regularised kernel ~ (band speed at mu) / eps
    scale = 4.0 * mu**3 * float(np.sqrt(1.0 - mu * mu / 4.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return eps_values, np.ceil(_DECAY_LENGTHS * scale / eps_values) + 64


def windowed_boundary_resolvent(mu: float, pairs, potentials):
    """Boundary resolvent entries by direct window inversion, no closed forms.

    Returns (values, run): values[i, j] is the entry at sites pairs[j] =
    (n, m) for potentials[i] (None is the free operator); run holds mu, the
    eps ladder, the rung radii R, the central half-width c and tail solves.

    Solves (fourth difference + V - mu^4 - i eps) on [-R, R] on each rung
    of a factor-two eps ladder and extrapolates to eps = 0. Outside [-c, c],
    c = max(2, |n|, |m|, support radius) over the batch, the window is the
    free operator and its two tails mirror each other, so one banded solve
    per rung on a tail of length R - c, with two unit columns, gives
    G = T^{-1}[:2, :2]. Eliminating both tails changes only the 2 x 2
    corners of the central block, the right one by -B G B^T with
    B = [[1, 0], [-4, 1]] and the left one by its mirror; the block stays
    pentadiagonal and is solved per potential, with the distinct m as
    columns. Each tail holds thirty decay lengths of the regularised kernel
    at its rung's eps, so the tails nearly halve along the ladder. Serves as
    an independent cross-check of the closed kernels; relative agreement is
    typically well below 1e-6.
    """
    if not (0.0 < mu < 2.0):
        raise ValueError(f"mu must lie in (0, 2), got {mu}")
    lam = mu**4
    eps_values, tails = _eps_ladder(mu)
    tails = [int(t) for t in tails]
    ns = np.array([n for n, _ in pairs])
    cols, col_of = np.unique([m for _, m in pairs], return_inverse=True)
    supports = [V.support_radius for V in potentials if V is not None]
    half = int(max(2, *np.abs(ns), *np.abs(cols), *supports))
    # LAPACK reads no band entry outside the matrix (the corners of rows 0, 1,
    # 3 and 4), so a leading column slice is the same system on a shorter tail.
    tail = _pentadiagonal_band(tails[0])
    band = _pentadiagonal_band(2 * half + 1)
    on_window = [V.on_window(half) if V is not None else 0.0 for V in potentials]
    rhs = np.zeros((2 * half + 1, cols.size), dtype=complex)
    rhs[cols + half, np.arange(cols.size)] = 1.0
    couple = np.array([[1.0, 0.0], [-4.0, 1.0]])
    samples = np.empty((_LADDER, len(potentials), len(pairs)), dtype=complex)
    for k, (eps, length) in enumerate(zip(eps_values, tails)):
        diag = np.full(2 * half + 1, 6.0 - (lam + 1j * eps))
        tail[2, :length] = diag[0]
        units = np.eye(length, 2, dtype=complex)
        green = solve_banded((2, 2), tail[:, :length], units, check_finite=False)
        s = couple @ green[:2] @ couple.T
        # sites (c - 1, c) meet the right tail, (-c, -c + 1) the left one
        band[1, [1, -1]] = -4.0 - s[1, 0], -4.0 - s[0, 1]
        band[3, [0, -2]] = -4.0 - s[0, 1], -4.0 - s[1, 0]
        diag[[0, 1, -2, -1]] -= s[1, 1], s[0, 0], s[0, 0], s[1, 1]
        for i, v in enumerate(on_window):
            band[2] = diag + v
            sol = solve_banded((2, 2), band, rhs, check_finite=False)
            samples[k, i] = sol[ns + half, col_of]
    run = {"mu": mu, "eps": eps_values.tolist(), "rung_radii": [half + t for t in tails],
           "half_width": half, "tail_solves": len(tails)}
    return _neville_at_zero(eps_values, samples), run
