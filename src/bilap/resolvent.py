"""Lattice resolvent kernels for the second- and fourth-difference operators.

The second-difference resolvent on the integer lattice has the closed form

    R(omega, n, m) = -i exp(-i theta |n - m|) / (2 sin theta),

where theta solves 2 - 2 cos theta = omega in the strip
{a + i b : -pi <= a <= pi, b < 0}. The fourth-difference resolvent follows by
a partial-fraction split over the two square roots of the spectral parameter.
Boundary values on the band (0, 16), approached from above or below, are an
explicit combination of an oscillating and an exponentially decaying wave;
they are parametrised here by mu = (band energy)^(1/4) in (0, 2).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "SpectralParam",
    "ThetaValues",
    "theta_plus",
    "b_of_mu",
    "theta_values",
    "resolvent_neg_laplacian_kernel",
    "free_biresolvent_boundary",
    "free_biresolvent_complex",
    "windowed_boundary_resolvent",
]


@dataclass(frozen=True)
class SpectralParam:
    """Quarter-root coordinate mu in (0, 2) on the band, with a side marker.

    The energy is mu**4; sign "plus" denotes the boundary value from the
    upper half plane, "minus" from the lower.
    """

    mu: float
    sign: str = "plus"

    def __post_init__(self):
        mu = float(self.mu)
        if not (0.0 < mu < 2.0):
            raise ValueError(f"mu must lie in (0, 2), got {mu}")
        if self.sign not in ("plus", "minus"):
            raise ValueError(f"sign must be 'plus' or 'minus', got {self.sign!r}")
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class ThetaValues:
    """Phase data attached to a band energy mu**4.

    Attributes
    ----------
    theta_plus : float
        Oscillatory phase in (-pi, 0), solving 2 - 2 cos theta = mu**2.
    theta_minus : float
        Mirror phase, -theta_plus.
    theta_neg : complex
        Phase attached to the energy -mu**2, purely imaginary with
        negative imaginary part.
    b : float
        Negative decay rate; exp(b |k|) is the evanescent wave amplitude.
    g : float
        Normalised decay rate -b / (mu sqrt(1 + mu**2 / 4)); tends to 1
        as mu tends to 0.
    """

    theta_plus: float
    theta_minus: float
    theta_neg: complex
    b: float
    g: float


def theta_plus(lambda2: float) -> float:
    """Phase -arccos(1 - lambda2 / 2) for a second-difference energy in (0, 4)."""
    lam = float(lambda2)
    if not (0.0 < lam < 4.0):
        raise ValueError(f"energy must lie in the open band (0, 4), got {lam}")
    return -float(np.arccos(1.0 - lam / 2.0))


def b_of_mu(mu: float) -> float:
    """Decay rate of the evanescent wave at band energy mu**4.

    Equals log(1 + mu**2/2 - mu sqrt(1 + mu**2/4)), which is negative on
    (0, 2]; the log1p form keeps full relative accuracy as mu tends to 0.
    The closed right endpoint is allowed since the decaying wave survives
    there, b(2) = log(3 - 2 sqrt(2)).
    """
    mu = float(mu)
    if not (0.0 < mu <= 2.0):
        raise ValueError(f"mu must lie in (0, 2], got {mu}")
    return float(np.log1p(mu * mu / 2.0 - mu * np.sqrt(1.0 + mu * mu / 4.0)))


def theta_values(mu: float) -> ThetaValues:
    """All phase data for the band energy mu**4, mu in (0, 2)."""
    mu = float(mu)
    tp = theta_plus(mu * mu)
    b = b_of_mu(mu)
    tneg = -1j * float(np.arccosh(1.0 + mu * mu / 2.0))
    g = -b / (mu * float(np.sqrt(1.0 + mu * mu / 4.0)))
    return ThetaValues(theta_plus=tp, theta_minus=-tp, theta_neg=tneg, b=b, g=g)


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
    phase = np.arccos(1.0 - mu * mu / 2.0)  # -theta_plus
    b = np.log1p(mu * mu / 2.0 - mu * np.sqrt(1.0 + mu * mu / 4.0))
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


def free_biresolvent_boundary(p: SpectralParam, n: int, m: int) -> complex:
    """Boundary value of the fourth-difference resolvent at band energy mu**4.

    The minus-side value is the complex conjugate of the plus side.
    """
    k = abs(int(n) - int(m))
    val = complex(boundary_kernel_plus(np.array([p.mu]), np.array([k]))[0, 0])
    return val if p.sign == "plus" else val.conjugate()


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
    sign: str = "plus",
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
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
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
    val = complex(_neville_at_zero(eps_values, np.array(samples)))
    return val if sign == "plus" else val.conjugate()
