"""Finite windows of lattice sequences and the discrete difference operators.

Sequences live on integer windows [-N, N]. Dirichlet truncations of
H = bilaplacian + V, finitely supported potentials and polynomially weighted
operator norms are provided here. All constructions are dense; windows at
desk scale stay below a few thousand sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "LatticeVector",
    "PotentialSpec",
    "build_hamiltonian",
    "weighted_operator_norm",
]

SPEED_BOUND = 6.0 * np.sqrt(3.0)
"""Maximal group speed of the fourth-difference band, max |d/dx (2-2cos x)^2|."""


@dataclass(frozen=True)
class LatticeVector:
    """Complex-valued sample of a sequence on the window [-N, N].

    Parameters
    ----------
    window_radius : int
        Half-width N >= 1 of the window.
    values : ndarray
        Complex array of length 2N+1; entry i holds the value at site i-N.
    """

    window_radius: int
    values: np.ndarray

    def __post_init__(self):
        n = int(self.window_radius)
        if n < 1:
            raise ValueError("window_radius must be >= 1")
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size != 2 * n + 1:
            raise ValueError(
                f"values must have length {2 * n + 1}, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "window_radius", n)

    @property
    def sites(self) -> np.ndarray:
        return np.arange(-self.window_radius, self.window_radius + 1)

    def __getitem__(self, n: int) -> complex:
        return complex(self.values[n + self.window_radius])

    @classmethod
    def delta(cls, window_radius: int, site: int = 0) -> "LatticeVector":
        """Kronecker delta supported at the given site."""
        vals = np.zeros(2 * window_radius + 1, dtype=complex)
        vals[site + window_radius] = 1.0
        return cls(window_radius, vals)


@dataclass(frozen=True)
class PotentialSpec:
    """Real potential of finite support.

    Parameters
    ----------
    support : tuple of int
        Inclusive site interval (lo, hi) carrying the values.
    values : ndarray
        Real values on the support sites, at least one nonzero.
    """

    support: Tuple[int, int]
    values: np.ndarray

    def __post_init__(self):
        lo, hi = int(self.support[0]), int(self.support[1])
        if lo > hi:
            raise ValueError("support interval is empty")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != hi - lo + 1:
            raise ValueError(
                f"values must have length {hi - lo + 1}, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential values must be finite")
        if not np.any(vals != 0.0):
            raise ValueError("potential must have at least one nonzero entry")
        object.__setattr__(self, "support", (lo, hi))
        object.__setattr__(self, "values", vals)

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.support[0], self.support[1] + 1)

    @property
    def support_radius(self) -> int:
        return int(max(abs(self.support[0]), abs(self.support[1])))

    def on_window(self, window_radius: int) -> np.ndarray:
        """Values embedded into the full window [-N, N] as a real array."""
        if window_radius < self.support_radius:
            raise ValueError("window smaller than the potential support")
        out = np.zeros(2 * window_radius + 1)
        lo, hi = self.support
        out[lo + window_radius : hi + window_radius + 1] = self.values
        return out

    @classmethod
    def delta(cls, coupling: float, site: int = 0):
        return cls((site, site), np.array([coupling]))


_STENCIL = (6.0, -4.0, 1.0)
"""Row of the bilaplacian at distances 0, 1 and 2 from the diagonal."""


def _pentadiagonal(diagonal: np.ndarray) -> np.ndarray:
    """Dense matrix with the given diagonal and _STENCIL's couplings off it."""
    side = diagonal.size
    a = np.diag(diagonal)
    idx = np.arange(side)
    for off, val in enumerate(_STENCIL[1:], 1):
        sub = idx[: side - off]
        a[sub, sub + off] = val
        a[sub + off, sub] = val
    return a


def _window_diagonal(V: Optional[PotentialSpec], window_radius: int) -> np.ndarray:
    """Diagonal 6 + V of the truncation on [-N, N]; enforces its window rule."""
    if V is not None and window_radius < V.support_radius + 2:
        raise ValueError(
            "window_radius must be >= potential support radius + 2 "
            f"(need {V.support_radius + 2}, got {window_radius})"
        )
    diagonal = np.full(2 * window_radius + 1, _STENCIL[0])
    if V is not None:
        diagonal += V.on_window(window_radius)
    return diagonal


def build_hamiltonian(
    V: Optional[PotentialSpec], window_radius: int, parity: Optional[int] = None
) -> np.ndarray:
    """Dense truncation of bilaplacian + diag(V) on [-N, N], as a square array.

    The truncation chops the infinite pentadiagonal matrix (Dirichlet
    boundary). Requires the window to exceed the potential support by at
    least two sites so the stencil never straddles the support edge and the
    boundary at once.

    parity 0 or 1 asks instead for the even or odd block (sizes N + 1 and
    N) of a window equal to its reflection n -> -n, N >= 1, built from the
    stencil (_hamiltonian_parity_block) without forming the window matrix.
    """
    diagonal = _window_diagonal(V, window_radius)
    if parity is None:
        return _pentadiagonal(diagonal)
    if window_radius == 0 or not np.array_equal(diagonal, diagonal[::-1]):
        raise ValueError("parity blocks need a window of radius >= 1 equal to its reflection")
    return _hamiltonian_parity_block(diagonal[window_radius:], parity)


def _hamiltonian_parity_block(diagonal: np.ndarray, parity: int) -> np.ndarray:
    """Even (parity 0) or odd (parity 1) block of a reflection-symmetric window.

    diagonal is the window truncation's diagonal on the sites 0..R, R >= 1,
    of a window whose diagonal is even. The block is built from the
    stencil, rows n >= 0 against columns m, plus (even) or minus (odd) the
    entry h[n, -m] coupling n to the mirror of m, nonzero only where
    n + m <= 2; no window matrix is formed. It equals, to the last bit,
    _parity_blocks(build_hamiltonian(V, R))[parity].
    """
    radius = diagonal.size - 1
    block = _pentadiagonal(diagonal[parity:])
    sign = -1.0 if parity else 1.0
    for dist, val in enumerate(_STENCIL):
        for n in range(max(parity, dist - radius), min(dist - parity, radius) + 1):
            block[n - parity, dist - n - parity] += sign * (diagonal[0] if dist == 0 else val)
    if not parity:
        block[0] /= np.sqrt(2.0)
        block[:, 0] /= np.sqrt(2.0)
    return block


def site_weights(window_radius: int, s: float) -> np.ndarray:
    """Diagonal of the weight <n>^s over the window."""
    n = np.arange(-window_radius, window_radius + 1)
    return (1.0 + n.astype(float) ** 2) ** (s / 2.0)


def weighted_operator_norm(K, s: float) -> float:
    """Largest singular value of D^{-s} K D^{-s} with D = diag(<n>).

    Measures K as an operator from the weight-s space to the weight-(-s)
    space. K is a dense square array centred on its window.

    When K equals its reflection K[::-1, ::-1] exactly, D^{-s} K D^{-s}
    commutes with n -> -n and is block diagonal in the even and odd
    sequences; the norm is then the larger of the norms of the two blocks,
    of sizes R + 1 and R on the window [-R, R].

    The block of larger Frobenius norm is decomposed first, and the other
    one only if its Frobenius norm times 1 + 1e-12 is not below the
    largest singular value just found: a matrix's norm is at most
    its Frobenius norm (Golub & Van Loan, Matrix Computations, 4th ed.,
    2.3), and the computed singular value and Frobenius norm of a block of
    side n each carry a relative rounding of a small multiple of n 2^-52,
    far below 1e-12 on windows of desk scale. A skipped block therefore
    could not have changed the maximum, and the result is the same float
    as that of decomposing both blocks.
    """
    entries = np.asarray(K)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("operator must be a square matrix")
    if entries.shape[0] % 2 != 1:
        raise ValueError("window must be symmetric (odd side length)")
    radius = entries.shape[0] // 2
    d = site_weights(radius, -s)
    blocks = _parity_blocks(entries, d[radius:])
    if blocks is None:
        return float(np.linalg.norm(d[:, None] * entries * d[None, :], 2))
    frob = [np.linalg.norm(block) for block in blocks]
    strong = int(frob[1] > frob[0])
    top = {strong: np.linalg.svd(blocks[strong], compute_uv=False)[0]}
    if frob[1 - strong] * (1.0 + 1e-12) < top[strong]:
        return float(top[strong])
    top[1 - strong] = np.linalg.svd(blocks[1 - strong], compute_uv=False)[0]
    return float(max(top[0], top[1]))


def _parity_blocks(entries: np.ndarray, w: Optional[np.ndarray] = None):
    """Even and odd blocks of W K W when K equals its reflection, else None.

    K is a square array on the window [-R, R], R >= 1, and W = diag(w) an
    even weight given on the sites 0..R (omitted means W = I). When
    K[::-1, ::-1] equals K exactly, W K W commutes with n -> -n and is
    block diagonal in the orthonormal bases delta_0, (delta_n +
    delta_{-n}) / sqrt(2) of the even sequences and (delta_n -
    delta_{-n}) / sqrt(2), n = 1..R, of the odd ones; the blocks have sizes
    R + 1 and R. weighted_operator_norm is its one caller: window
    eigensystems build their blocks from the stencil
    (_hamiltonian_parity_block) and never form K.
    """
    radius = entries.shape[0] // 2
    if radius == 0 or not np.array_equal(entries, entries[::-1, ::-1]):
        return None
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
