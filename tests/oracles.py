"""Independent reference implementations backing the test expectations.

These are written from the defining formulas with different algorithms
than the package uses: scipy eigendecompositions of explicitly assembled
dense matrices, direct quadrature of symbol integrals, explicit
Gram-Schmidt, dense sign scans for roots, dense complex linear solves,
and high precision arithmetic for expansion coefficients. Agreement with
the package is therefore evidence, not tautology.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh
from scipy.optimize import brentq


def dense_hamiltonian(side: int, potential_diag=None, periodic=False) -> np.ndarray:
    """Pentadiagonal fourth-difference matrix assembled entry by entry."""
    h = np.zeros((side, side))
    for i in range(side):
        for off, val in ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)):
            j = i + off
            if periodic:
                h[i, j % side] += val
            elif 0 <= j < side:
                h[i, j] += val
    if potential_diag is not None:
        h[np.arange(side), np.arange(side)] += np.asarray(potential_diag)
    return h


def neg_laplacian_matrix(window_radius: int) -> np.ndarray:
    """Dirichlet truncation of the second difference on [-N, N]."""
    side = 2 * window_radius + 1
    return 2.0 * np.eye(side) - np.eye(side, k=1) - np.eye(side, k=-1)


def matrix_function(weight_fn, h: np.ndarray) -> np.ndarray:
    """weight_fn(h) of a real symmetric matrix via scipy's dense eigensolver."""
    ev, vecs = eigh(h)
    return (vecs * weight_fn(ev)[None, :]) @ vecs.T


def symbol_kernel(weight_fn, k: int) -> complex:
    """Free kernel entry (1/2pi) Int_-pi^pi weight(2-2cos x) e^{ikx} dx."""

    def integrand_re(x):
        return (weight_fn(2.0 - 2.0 * np.cos(x)) * np.exp(1j * k * x)).real

    def integrand_im(x):
        return (weight_fn(2.0 - 2.0 * np.cos(x)) * np.exp(1j * k * x)).imag

    re, _ = quad(integrand_re, -np.pi, np.pi, limit=4000, epsabs=1e-13)
    im, _ = quad(integrand_im, -np.pi, np.pi, limit=4000, epsabs=1e-13)
    return (re + 1j * im) / (2.0 * np.pi)


def gram_projections(v: np.ndarray, sites: np.ndarray):
    """P, Q, S0, Ptilde, Qtilde by explicit Gram-Schmidt on the defining spans."""
    v = np.asarray(v, dtype=float)
    sites = np.asarray(sites, dtype=float)
    d = v.size

    def projector(columns):
        basis = []
        for col in columns:
            w = col.astype(float)
            for b in basis:
                w = w - b * (b @ w)
            norm = np.linalg.norm(w)
            if norm > 1e-12:
                basis.append(w / norm)
        if not basis:
            return np.zeros((d, d))
        B = np.stack(basis, axis=1)
        return B @ B.T

    P = projector([v])
    Q = np.eye(d) - P
    S0 = np.eye(d) - projector([v, sites * v])
    vt = ((-1.0) ** sites) * v
    Pt = projector([vt])
    Qt = np.eye(d) - Pt
    return P, Q, S0, Pt, Qt


def sign_scan_roots(f, a: float, b: float, n_points: int = 100_000):
    """All simple sign changes of f on [a, b] refined by bisection."""
    xs = np.linspace(a, b, n_points)
    ys = f(xs)
    roots = []
    if abs(ys[0]) < 1e-13:
        roots.append(a)
    for i in range(n_points - 1):
        if ys[i] == 0.0 and a < xs[i] < b:
            roots.append(xs[i])
        elif ys[i] * ys[i + 1] < 0.0:
            roots.append(brentq(lambda x: float(f(np.array([x]))[0]),
                                xs[i], xs[i + 1], xtol=1e-14))
    if abs(ys[-1]) < 1e-13:
        roots.append(b)
    merged = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 1e-8:
            merged.append(r)
    return merged


def dense_complex_resolvent(omega: complex, n: int, m: int, potential=None,
                            window_radius: int = 256) -> complex:
    """Resolvent entry at complex omega by one dense np.linalg.solve.

    potential is a pair (sites, values) or None. Exact up to Dirichlet
    truncation, so the window must cover several decay lengths of
    exp(-Im theta |n|) at this omega.
    """
    side = 2 * window_radius + 1
    diag = np.zeros(side)
    if potential is not None:
        for site, value in zip(*potential):
            diag[site + window_radius] += value
    a = dense_hamiltonian(side, diag).astype(complex)
    a[np.arange(side), np.arange(side)] -= omega
    rhs = np.zeros(side, dtype=complex)
    rhs[m + window_radius] = 1.0
    return np.linalg.solve(a, rhs)[n + window_radius]


def dense_boundary_resolvent(mu: float, n: int, m: int, potential=None,
                             eps_ladder=(0.4, 0.2, 0.1, 0.05)) -> complex:
    """Boundary resolvent by dense solves and Neville extrapolation in eps.

    Coarse ladder so the dense solve stays feasible; the rungs must sit
    well inside the distance from mu**4 to the nearest band edge, so this
    is only accurate for mu**4 a few units into the band (mu around 1.3
    gives relative errors near 1e-6). An independent smoke check, not a
    tight-equivalence oracle.
    """
    scale = 4.0 * mu**3 * np.sqrt(1.0 - mu * mu / 4.0)
    xs = list(eps_ladder)
    t = []
    for eps in xs:
        window = int(np.ceil(19.0 * scale / eps)) + max(abs(n), abs(m)) + 32
        t.append(dense_complex_resolvent(mu**4 + 1j * eps, n, m, potential,
                                         window))
    for k in range(1, len(t)):
        for j in range(len(t) - k):
            t[j] = (xs[j] * t[j + 1] - xs[j + k] * t[j]) / (xs[j] - xs[j + k])
    return t[0]


def direct_boundary_kernel(mu, k, one_minus_q=None) -> np.ndarray:
    """Upper boundary kernel by one exponential per (mu, k) entry.

    Takes theta_plus, b and the default 1 - mu^2/4 from the same closed
    forms as the package, but forms each phase theta k exactly: theta is
    split into two 26-bit halves, whose products with an integer k below
    2^27 carry no rounding, and each half's exponential is taken on its
    own. Shape (len(mu), len(k)).
    """
    mu = np.asarray(mu, dtype=float)[:, None]
    k = np.asarray(k, dtype=float)[None, :]
    if one_minus_q is None:
        one_minus_q = (1.0 - mu / 2.0) * (1.0 + mu / 2.0)
    one_minus_q = np.asarray(one_minus_q, dtype=float).reshape(mu.shape)
    phase = 2.0 * np.arctan2(mu / 2.0, np.sqrt((1.0 - mu / 2.0) * (1.0 + mu / 2.0)))
    b = np.log1p(mu * mu / 2.0 - mu * np.sqrt(1.0 + mu * mu / 4.0))
    split = phase * (2.0**27 + 1.0)
    hi = split - (split - phase)
    lo = phase - hi
    osc = 1j * np.exp(1j * hi * k) * np.exp(1j * lo * k) / np.sqrt(one_minus_q)
    dec = np.exp(b * k) / np.sqrt(2.0 - one_minus_q)
    return (osc - dec) / (4.0 * mu**3)


def mp_boundary_kernel(threshold: str, dist, k: int) -> mp.mpc:
    """Boundary kernel in arbitrary precision, as a function of edge distance.

    threshold "zero": dist is mu itself. threshold "sixteen": dist is
    mt = 2 - mu. Uses mpmath throughout so cancellation is irrelevant.
    """
    dist = mp.mpf(dist)
    mu = dist if threshold == "zero" else 2 - dist
    tp = -mp.acos(1 - mu * mu / 2)
    b = mp.log(1 + mu * mu / 2 - mu * mp.sqrt(1 + mu * mu / 4))
    osc = 1j * mp.e**(-1j * tp * k) / mp.sqrt(1 - mu * mu / 4)
    dec = mp.e**(b * k) / mp.sqrt(1 + mu * mu / 4)
    return (osc - dec) / (4 * mu**3)


def mp_expansion_coeffs(threshold: str, k: int, max_order: int, dps: int = 60):
    """Expansion coefficients by a high precision Vandermonde solve.

    Returns a dict order -> complex for orders from the leading one
    (-3 at zero, -1 at sixteen) through max_order. Orders are integer
    powers of mu at zero and half powers of mt at sixteen.
    """
    with mp.workdps(dps):
        base = -3 if threshold == "zero" else -1
        orders = list(range(base, max_order + 1))
        extra = 6
        cols = orders + [max_order + 1 + i for i in range(extra)]
        samples = [mp.mpf(10) ** (-3 - mp.mpf(i) / 4) for i in range(len(cols))]
        A = mp.matrix(len(samples), len(cols))
        rhs = mp.matrix(len(samples), 1)
        for i, d in enumerate(samples):
            for j, order in enumerate(cols):
                expo = mp.mpf(order) if threshold == "zero" else mp.mpf(order) / 2
                A[i, j] = d**expo
            rhs[i] = mp_boundary_kernel(threshold, d, k)
        sol = mp.lu_solve(A, rhs)
        return {order: complex(sol[j]) for j, order in enumerate(orders)}


def parity_eigenvalues(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Eigenvalues of a reflection-symmetric window from its assembled parity blocks.

    even and odd are the blocks of the whole window matrix folded by parity
    (sizes R + 1 and R). Each goes to numpy's eigvalsh, and the two spectra
    are merged in increasing order: the dense assembly that the
    stencil-built blocks must reproduce bit for bit.
    """
    return np.sort(np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)]))


def parity_blocks(entries: np.ndarray, w: np.ndarray | None = None):
    """Even and odd blocks of W K W for a window matrix K equal to its reflection.

    K is a square array on the window [-R, R], R >= 1, with K[::-1, ::-1]
    equal to K, and W = diag(w) an even weight given on the sites 0..R
    (omitted means W = I). W K W commutes with n -> -n and is block
    diagonal in the orthonormal bases delta_0, (delta_n + delta_{-n}) /
    sqrt(2) of the even sequences and (delta_n - delta_{-n}) / sqrt(2),
    n = 1..R, of the odd ones; the blocks have sizes R + 1 and R. The fold
    of the whole window matrix, against which the library's blocks built
    without it (the Hamiltonian's from the stencil, a Toeplitz kernel's from
    its row) are checked.
    """
    radius = entries.shape[0] // 2
    assert radius >= 1 and np.array_equal(entries, entries[::-1, ::-1])
    # Rows n >= 0 against columns +m and -m, m >= 0.
    half = entries[radius:]
    cols, mirror = half[:, radius:], half[:, radius::-1]
    even, odd = cols + mirror, (cols - mirror)[1:, 1:]
    if w is not None:
        even = w[:, None] * even * w[None, :]
        odd = w[1:, None] * odd * w[None, 1:]
    even[0] /= np.sqrt(2.0)
    even[:, 0] /= np.sqrt(2.0)
    return even, odd
