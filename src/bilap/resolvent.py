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
    "TailDoublingError",
    "free_biresolvent_complex",
    "windowed_boundary_resolvent",
]


def _band_rates(mu):
    """Oscillation phase and decay rate of the boundary kernel at energy mu**4.

    Returns (phase, b), elementwise in mu: phase = -theta_plus, the phase
    in (0, pi) with 2 - 2 cos(phase) = mu^2, and b = log(1 + mu^2/2 -
    mu sqrt(1 + mu^2/4)), negative on (0, 2]. The phase is taken as
    2 atan2(mu/2, sqrt((1 - mu/2)(1 + mu/2))), that is 2 arcsin(mu/2), with
    full relative accuracy as mu tends to 0, where arccos(1 - mu^2/2) loses
    it (4e-4 at mu = 1e-7, and 0 at 1e-9); log1p does the same for b.
    The kernel at separation k is a combination of exp(i phase k) and
    exp(b k).
    """
    phase = 2.0 * np.arctan2(mu / 2.0, np.sqrt((1.0 - mu / 2.0) * (1.0 + mu / 2.0)))
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
    (omega - 4) is formed as (z - 16) (w / (w + 4)) at omega = w to stay exact
    as z tends to 16; taking the ratio first keeps the product finite for
    |z| up to the float range, where w (z - 16) would overflow past 3.2e205.
    """
    zc = complex(z)
    if zc.imag == 0.0 and 0.0 <= zc.real <= 16.0:
        raise ValueError(f"z = {zc} lies on the band [0, 16]")
    w = cmath.sqrt(zc)  # Re w >= 0, so w + 4 never cancels
    omega = np.array([w, -w])
    q = np.sqrt(np.array([(zc - 16.0) * (w / (w + 4.0)), w * (w + 4.0)]))
    # the sign that puts 1 / r = (2 - omega + q) / 2 outside the unit circle
    q[((2.0 - omega).conj() * q).real < 0.0] *= -1.0
    return np.array([1.0, -1.0]) / (2.0 * w * q), -np.log((2.0 - omega + q) / 2.0)


def free_biresolvent_complex(z: complex, k) -> np.ndarray:
    """Fourth-difference resolvent kernel at z off [0, 16], over any array of
    integer separations k; real up to rounding for real z."""
    amps, rates = _off_band_waves(z)
    return np.exp(np.multiply.outer(np.abs(k), rates)) @ amps


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

_COUPLE = np.array([[1.0, 0.0], [-4.0, 1.0]])
"""Fourth-difference block from sites (2p, 2p + 1) to (2p + 2, 2p + 3)."""

_TAIL_LEVEL_CAP = 64
"""Doubling levels after which a free tail that has not decoupled is refused."""


class TailDoublingError(ArithmeticError):
    """A free tail's doubling reached its level cap without decoupling."""


def _inv2(m: np.ndarray) -> np.ndarray:
    """Inverses of a stack of 2 x 2 matrices, by the adjugate."""
    out = np.empty_like(m)
    out[..., 0, 0], out[..., 1, 1] = m[..., 1, 1], m[..., 0, 0]
    out[..., 0, 1], out[..., 1, 0] = -m[..., 0, 1], -m[..., 1, 0]
    out /= (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])[..., None, None]
    return out


def _free_tail_green(z: complex):
    """(G, levels): G = K^{-1}[:2, :2] of the semi-infinite free tail K at z.

    K is the fourth difference minus z on sites 1, 2, ..., block tridiagonal
    over site pairs with diagonal block D = [[6 - z, -4], [-4, 6 - z]], upper
    block U = _COUPLE and lower block U^T. Odd-even doubling (Sancho-Rubio
    decimation) eliminates every other block: the surface block Ds takes
    -U D^{-1} U^T, the bulk D takes that and -U^T D^{-1} U, and the coupling
    to the next kept block becomes -U D^{-1} U, which spans twice the sites.
    The lower block stays U^T, since D stays symmetric. With Im z > 0 the
    coupling decays like exp(-2^levels x) for the tail's slowest rate x, so
    the levels grow like log2(1 / Im z); once the coupling is rounding next
    to D, G = Ds^{-1}.
    """
    bulk = np.array([[6.0 - z, -4.0], [-4.0, 6.0 - z]], dtype=complex)
    surface, up = bulk.copy(), _COUPLE.astype(complex)
    for levels in range(_TAIL_LEVEL_CAP):
        if 2.0 * np.abs(up).max() <= np.finfo(float).eps * np.abs(bulk).max():
            return _inv2(surface), levels
        inv = _inv2(bulk)
        across = up @ inv @ up.T
        surface -= across
        bulk -= across + up.T @ inv @ up
        up = -up @ inv @ up
    raise TailDoublingError(f"the free tail at z = {z} did not decouple in "
                            f"{_TAIL_LEVEL_CAP} doubling levels")


def _block_cyclic_reduction(diag, upper, rhs):
    """Solve a block tridiagonal system of 2 x 2 blocks by odd-even reduction.

    diag (n, 2, 2) holds the diagonal blocks, upper (n - 1, 2, 2) the blocks
    from block p to p + 1, whose transposes are the lower blocks; rhs is
    (n, 2, k). Eliminating the odd blocks leaves a system of the same form on
    the even ones, which is solved the same way; the odd blocks then follow.
    """
    n = len(diag)
    if n == 1:
        return _inv2(diag) @ rhs
    inv = _inv2(diag[1::2])
    up_odd, odd_up = upper[0::2], upper[1::2]  # block 2q to 2q + 1, and 2q + 1 to 2q + 2
    kept = len(odd_up)
    across, back = up_odd @ inv, odd_up.mT @ inv[:kept]
    even_diag, even_rhs = diag[0::2].copy(), rhs[0::2].copy()
    even_diag[:n // 2] -= across @ up_odd.mT
    even_rhs[:n // 2] -= across @ rhs[1::2]
    even_diag[1:] -= back @ odd_up
    even_rhs[1:] -= back @ rhs[1::2][:kept]
    even = _block_cyclic_reduction(even_diag, -across[:kept] @ odd_up, even_rhs)
    odd = rhs[1::2] - up_odd.mT @ even[:n // 2]
    odd[:kept] -= odd_up @ even[1:]
    out = np.empty_like(rhs)
    out[0::2], out[1::2] = even, inv @ odd
    return out


def _solve_pentadiagonal(diag, off1, off2, rhs):
    """Solve a complex symmetric pentadiagonal system A x = rhs.

    diag (N,) is the diagonal of A, off1 (N - 1,) and off2 (N - 2,) its first
    and second super-diagonals, equal to the sub-diagonals; rhs is (N,) or
    (N, k). A site past an odd N pads the system, and site pairs make it
    block tridiagonal for _block_cyclic_reduction. No pivoting: for
    A = X - i E with X and E real symmetric and E positive definite (the
    window oracle's E is eps I), i A has the positive definite Hermitian
    part E, a property every principal block and every Schur complement of
    i A keeps, so each 2 x 2 pivot the reduction meets is nonsingular, in
    any elimination order.
    """
    n = len(diag)
    size = n + n % 2
    d = np.ones(size, dtype=complex)
    e, f = np.zeros(size, dtype=complex), np.zeros(size, dtype=complex)
    d[:n], e[:len(off1)], f[:len(off2)] = diag, off1, off2
    blocks = np.stack([d[0::2], e[0::2], e[0::2], d[1::2]], axis=-1).reshape(-1, 2, 2)
    upper = np.stack([f[0::2], np.zeros(size // 2), e[1::2], f[1::2]], axis=-1)
    b = np.zeros((size, *np.shape(rhs)[1:]), dtype=complex)
    b[:n] = rhs
    x = _block_cyclic_reduction(blocks, upper.reshape(-1, 2, 2)[:-1], b.reshape(size // 2, 2, -1))
    return x.reshape(b.shape)[:n]


def windowed_boundary_resolvent(mu: float, pairs, potentials):
    """Boundary resolvent entries by direct window inversion, no closed forms.

    Returns (values, run): values[i, j] is the entry at sites pairs[j] =
    (n, m) for potentials[i] (None is the free operator); run holds mu, the
    eps ladder, the central half-width c and the tail's doubling levels per
    rung.

    Inverts (fourth difference + V - mu^4 - i eps) on the whole lattice on
    each rung of a factor-two eps ladder and extrapolates to eps = 0.
    Outside [-c, c], c = max(2, |n|, |m|, support radius) over the batch, the
    operator is free and its two tails mirror each other, so one doubling
    per rung gives the tail's G = K^{-1}[:2, :2] (_free_tail_green).
    Eliminating both tails changes only the 2 x 2 corners of the central
    block, the right one by -B G B^T with B = [[1, 0], [-4, 1]] and the left
    one by its mirror; the block stays pentadiagonal and is solved per
    potential by block cyclic reduction, with the distinct m as columns.
    Every matrix met is X - i eps with X real symmetric, so neither step
    pivots (_solve_pentadiagonal). Serves as an independent cross-check of
    the closed kernels; relative agreement is typically well below 1e-6.
    """
    if not (0.0 < mu < 2.0):
        raise ValueError(f"mu must lie in (0, 2), got {mu}")
    lam = mu**4
    eps_values = min(2e-3, min(lam, 16.0 - lam) / 400.0) * 2.0 ** np.arange(_LADDER)
    ns = np.array([n for n, _ in pairs])
    cols, col_of = np.unique([m for _, m in pairs], return_inverse=True)
    supports = [V.support_radius for V in potentials if V is not None]
    half = int(max(2, *np.abs(ns), *np.abs(cols), *supports))
    on_window = [V.on_window(half) if V is not None else 0.0 for V in potentials]
    rhs = np.zeros((2 * half + 1, cols.size))
    rhs[cols + half, np.arange(cols.size)] = 1.0
    off1, off2 = np.full(2 * half, -4.0, dtype=complex), np.ones(2 * half - 1)
    samples = np.empty((_LADDER, len(potentials), len(pairs)), dtype=complex)
    levels = []
    for k, eps in enumerate(eps_values):
        z = lam + 1j * eps
        green, depth = _free_tail_green(z)
        levels.append(depth)
        s = _COUPLE @ green @ _COUPLE.T
        # sites (c - 1, c) meet the right tail, (-c, -c + 1) the left one
        diag = np.full(2 * half + 1, 6.0 - z)
        diag[[0, 1, -2, -1]] -= s[1, 1], s[0, 0], s[0, 0], s[1, 1]
        off1[[0, -1]] = -4.0 - s[0, 1]
        for i, v in enumerate(on_window):
            samples[k, i] = _solve_pentadiagonal(diag + v, off1, off2, rhs)[ns + half, col_of]
    run = {"mu": mu, "eps": eps_values.tolist(), "half_width": half, "tail_levels": levels}
    return _neville_at_zero(eps_values, samples), run
