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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralParam",
    "resolvent_neg_laplacian_kernel",
    "free_biresolvent_complex",
    "windowed_boundary_resolvent",
]


@dataclass(frozen=True)
class SpectralParam:
    """Quarter-root coordinate mu in (0, 2) on the band.

    The energy is mu**4; values at it are boundary values from the upper
    half plane.
    """

    mu: float

    def __post_init__(self):
        mu = float(self.mu)
        if not (0.0 < mu < 2.0):
            raise ValueError(f"mu must lie in (0, 2), got {mu}")
        object.__setattr__(self, "mu", mu)


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


def resolvent_neg_laplacian_kernel(omega: complex, n: int, m: int) -> complex:
    """Second-difference resolvent entry at sites n, m.

    Rejects omega on the closed band [0, 4], where the two strip solutions
    collide and the kernel has no single-valued meaning.
    """
    om = complex(omega)
    if om.imag == 0.0 and 0.0 <= om.real <= 4.0:
        raise ValueError(f"omega = {om} lies on the band [0, 4]")
    theta = cmath.acos(1.0 - om / 2.0)
    if theta.imag >= 0.0:
        theta = -theta
    k = abs(int(n) - int(m))
    return -1j * cmath.exp(-1j * theta * k) / (2.0 * cmath.sin(theta))


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


def free_biresolvent_complex(z: complex, n: int, m: int) -> complex:
    """Fourth-difference resolvent entry at spectral parameter z off [0, 16].

    Uses the split over the two square roots w and -w of z,

        (R2(w, n, m) - R2(-w, n, m)) / (2 w),

    with R2 the second-difference kernel and Im w >= 0. The value does not
    depend on which square root is taken, so real z > 16 and z < 0 are fine.
    """
    zc = complex(z)
    if zc.imag == 0.0 and 0.0 <= zc.real <= 16.0:
        raise ValueError(f"z = {zc} lies on the band [0, 16]")
    w = cmath.sqrt(zc)
    if w.imag < 0.0:
        w = -w
    a = resolvent_neg_laplacian_kernel(w, n, m)
    b = resolvent_neg_laplacian_kernel(-w, n, m)
    return (a - b) / (2.0 * w)


def solve_banded(l_and_u, ab, b, **kwargs):
    """scipy.linalg.solve_banded, imported on the first call.

    The window oracle is the package's one use of scipy, so importing the
    package does not load it.
    """
    from scipy.linalg import solve_banded as solve

    return solve(l_and_u, ab, b, **kwargs)


def _neville_at_zero(xs: np.ndarray, ys: np.ndarray) -> complex:
    """Polynomial extrapolation of samples (xs, ys) to x = 0."""
    t = list(ys)
    n = len(t)
    for k in range(1, n):
        for j in range(n - k):
            t[j] = (xs[j] * t[j + 1] - xs[j + k] * t[j]) / (xs[j] - xs[j + k])
    return t[0]


_LADDER = 4
"""Rungs of the eps ladder, each twice the previous."""

_DECAY_LENGTHS = 30.0
"""Regularised decay lengths each rung's window holds on either side."""


def windowed_boundary_resolvent(
    mu: float,
    n: int,
    m: int,
    V=None,
) -> complex:
    """Boundary resolvent entry by direct window inversion, no closed forms.

    Solves the pentadiagonal system (fourth difference + V - mu^4 - i eps)
    on each rung of a factor-two eps ladder, then removes the
    regularisation by polynomial extrapolation to eps = 0. Each rung's
    window holds thirty decay lengths of the regularised kernel at its own
    eps beyond the sites n, m and the potential's support, so the windows
    nearly halve along the ladder; all rungs share the band array of the
    first, solving on centred slices of it. Serves as an independent
    cross-check of the closed kernels; relative agreement is typically
    well below 1e-6.

    Parameters
    ----------
    V : PotentialSpec, optional
        Real finitely supported perturbation added to the diagonal.
    """
    if not (0.0 < mu < 2.0):
        raise ValueError(f"mu must lie in (0, 2), got {mu}")
    lam = mu**4
    rho = min(lam, 16.0 - lam)
    eps_values = min(2e-3, rho / 400.0) * 2.0 ** np.arange(_LADDER)
    # decay length of the regularised kernel ~ (band speed at mu) / eps
    scale = 4.0 * mu**3 * float(np.sqrt(1.0 - mu * mu / 4.0))
    support = V.support_radius if V is not None else 0
    pad = max(abs(n), abs(m), support) + 64
    radii = [int(np.ceil(_DECAY_LENGTHS * scale / eps)) + pad for eps in eps_values]
    big = radii[0]
    side = 2 * big + 1
    # LAPACK reads no band entry outside the matrix (the corners of rows 0,
    # 1, 3 and 4), so a centred column slice is the same system on a
    # smaller window.
    ab = np.zeros((5, side), dtype=complex)
    ab[0, 2:] = 1.0
    ab[1, 1:] = -4.0
    ab[3, :-1] = -4.0
    ab[4, :-2] = 1.0
    diag = np.full(side, 6.0, dtype=complex)
    if V is not None:
        diag += V.on_window(big)
    rhs = np.zeros(side, dtype=complex)
    rhs[m + big] = 1.0
    samples = []
    for eps, radius in zip(eps_values, radii):
        cols = slice(big - radius, big + radius + 1)
        ab[2, cols] = diag[cols] - (lam + 1j * eps)
        sol = solve_banded((2, 2), ab[:, cols], rhs[cols], check_finite=False)
        samples.append(sol[n + radius])
    return complex(_neville_at_zero(eps_values, np.array(samples)))
