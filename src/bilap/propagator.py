"""Time propagators for the fourth-difference operator, free and perturbed.

Every flow is a function of one spectral variable, the energy E of the
operator H that generates it, and FLOWS defines each one once. Three
routes evaluate them and are cross-checked against each other. The window
route expands the flow of a Dirichlet truncation in Chebyshev polynomials
of it, E running over the hull of its spectrum: the coefficients come from
the flow at Chebyshev points of the hull by one FFT, and the recurrence
runs on the observed columns alone, each step on the rows their light cone
reaches. Free translation-invariant kernels come from the band
symbol by FFT, with E the symbol of H on the ring: the weight lives on
half of an even ring sized by the flow's own group speed, and the even
kernel comes from one complex FFT of half the ring's length. That FFT is a
blocked four-step transform in place, whose cache-sized blocks the caller
and, with two usable CPUs, one helper thread share; the ring holds its
work array and the kernel, 32 bytes per point of the half ring, and no
whole-length scratch. Perturbed kernels restricted to the continuous
spectrum come from a quadrature of the resolvent jump across the band,

    K(t, n, m) = (2 / (pi i)) Int_0^2 w(t, mu^4) mu^3 [R+ - R-](mu^4, n, m) dmu,

with w the flow weight at E = mu^4: exp(-i t E) for the flow generated by
the operator itself, exp(-i t sqrt E), cos(t sqrt E) or
sin(t sqrt E)/(t sqrt E) for half-wave and beam flows. The substitution
mu = 2 sin(-theta/2) removes the inverse square-root singularity of the
jump at the upper band edge. The bulk in theta reaches down to mu = 1e-9,
and a narrow strip at the upper edge is integrated in the locally analytic
w = sqrt(2 - mu); where a potential's sandwich turns over near an edge,
the panel there is graded geometrically. Panels are sized by the budget
rule of the quadrature module on the spatial waves alone: the wave
exponents at the largest separation advance by at most a budget per
panel, so the nodes do not grow with |t|. The flow is integrated exactly
on each panel against the Lagrange basis of its nodes (product
integration, as in Filon-type rules), by a composite Gauss rule whose
points do grow like |t|, in blocks of a fixed size. stone_kernel_slice
picks the budget itself, halving it from 16 until two successive passes on
different nodes agree to the requested tolerance, and reports the
accepted budget, its node count and that half-budget error estimate. It
takes one time or a series of them: each pass builds one node set,
shares its kernel tables and sandwich solves among all times, sizes the
flow integral per group of times within a factor of two in |t|, and
accepts each time on its own.
"""

from __future__ import annotations

import os
import threading
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Optional

import numpy as np
from numpy.fft import fft

from .lattice import _STENCIL, SPEED_BOUND, PotentialSpec, _window_diagonal
from .quadrature import cost_variation, edges_from_budget, gauss_panels, gauss_rule
from .resolvent import _band_rates, boundary_kernel_plus
from .spectral import (
    _EDGE_CUTOFF,
    _INNER_CUTOFF,
    _RESONANCE_SCAN,
    BirmanSchwingerSystem,
    SingularSandwichError,
    _require_regular,
    bound_states,
    decompose_potential,
    m_matrix_grid,
    solve_sandwich,
)

__all__ = [
    "FLOWS",
    "KINDS",
    "FREE_KINDS",
    "PropagatorRequest",
    "KernelSlice",
    "PacSplit",
    "auto_window_radius",
    "chebyshev_degree",
    "kernel_spectral",
    "pac_split",
    "fft_ring_band",
    "free_kernel_fft",
    "free_kernel_full",
    "fft_workers",
    "ring_size",
    "ring_weight",
    "stone_flow_points",
    "stone_kernel_slice",
]


def _unit_turn(t, E):
    """exp(-i t E) from one cosine and one sine of the phase t E.

    The bytes are those of np.exp(-1j * t * E) at half its cost. The
    imaginary part is 0 - sin(t E), which keeps the +0.0 that np.exp gives
    at a zero phase, where the negation of sin would give -0.0.
    """
    phase = np.multiply(t, E)
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    np.subtract(0.0, out.imag, out=out.imag)
    return out[()]


# Complex weight of each flow at time t as a function of the H-energy E. The
# half-wave and beam flows use sqrt(E), which np.emath.sqrt makes complex
# (on the positive imaginary axis) only where E < 0.
FLOWS = {
    "schrodinger": _unit_turn,
    "halfwave": lambda t, E: np.exp(-1j * t * np.emath.sqrt(E)),
    "beam_cos": lambda t, E: np.cos(t * np.emath.sqrt(E)).astype(complex),
    "beam_sinc": lambda t, E: np.sinc(t * np.emath.sqrt(E) / np.pi).astype(complex),
}

# kind -> (flow, operator, free). The operator is "bilap" for Delta^2 + V
# and "lap" for the free second difference; free kinds refuse a potential.
_KIND_TABLE = {
    "schrodinger_h": ("schrodinger", "bilap", False),
    "schrodinger_free_lap": ("schrodinger", "lap", True),
    "schrodinger_free_bilap": ("schrodinger", "bilap", True),
    "beam_cos": ("beam_cos", "bilap", False),
    "beam_sinc": ("beam_sinc", "bilap", False),
}
KINDS = tuple(_KIND_TABLE)
FREE_KINDS = tuple(k for k, (_, _, free) in _KIND_TABLE.items() if free)

# Margin factor on the causal range SPEED_BOUND |t| of truncation windows
# (auto_window_radius); their kernels (kernel_spectral) are the references.
_RING_SAFETY = 1.2
# kernel_spectral's hull of a window's spectrum is the operator's numerical
# range widened by this share of its width on each side, so that rounding
# of the window's entries leaves every eigenvalue inside it
_HULL_MARGIN = 2.0**-20
# chebyshev_degree is z + _DEGREE_AIRY z^(1/3) + _DEGREE_FLOOR; the last
# coefficient of exp(-i t E) above 2^-52 sits at z + 10.3 z^(1/3) (z = 1e5)
# to z + 13 z^(1/3) (z = 1, degree 14)
_DEGREE_AIRY = 12.0
_DEGREE_FLOOR = 16
# FFT rings reach _RING_TAIL |t|^(1/3) + _RING_MARGIN sites past the causal
# front (see ring_size)
_RING_TAIL = 16.0
_RING_MARGIN = 64
# free_kernel_full builds its weights and sums K_1 over blocks of this many
# pairs, so each block's temporaries stay under 400 kB
_BLOCK = 1 << 14
# points per block of the four-step FFT and of the kernel's assembly, as
# many as a block of _BLOCK pairs: 32 columns or rows of 1024 for a half
# ring of 2^20. A ring of one block per stage runs on the caller alone; the
# helper thread's hand-offs cost more than blocks of a few thousand points.
_FFT_BLOCK = 2 * _BLOCK
# length of the first twiddle table, over k2 mod _LANES
_LANES = 32
# threads that share a ring's blocks: the caller, plus one helper where two
# CPUs are usable (os.cpu_count where the platform has no affinity mask)
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_FFT_WORKERS = 2 if _CPUS >= 2 else 1
# Stone budget ladder: advance of the spatial waves' exponents per panel of
# _STONE_ORDER Gauss nodes. For delta 0.5 at observe radius 16 and t = 50
# to 100, budget 16 is within 7.5e-15 of the budget-0.25 kernel, so such
# slices accept budget 8 after one step; starting at 8 cost 1,824 nodes
# over both passes instead of 1,128 and gained no accuracy. 16 is the
# first, cheapest pass and 0.25 the finest.
_BUDGET_START = 16.0
_BUDGET_FLOOR = 0.25
# rounding of a Stone entry in units of 2^-52, added to each error estimate:
# the node sums run over terms of order one (_ROUNDING_ULPS: for four
# potentials and four flows at t <= 100, r <= 32, an accepted pass sat up
# to 19 units further from the budget-0.25 pass than from the pass before
# it), and the flow phase t mu^p, at most 16 |t|, rounds by about 16 |t|
# units in any double route (as in cli's check of a bound state's phase)
_ROUNDING_ULPS = 64.0
_STONE_ORDER = 24
# interior bulk panels are cut where the phase of det M turns by more than
# budget / _RESONANCE_WEIGHT (1 radian at budget 8), read off
# _RESONANCE_SCAN points of the bulk (see _resonance_cuts)
_RESONANCE_WEIGHT = 8.0
# The flow's integral on a panel: where the flow phase advances by at most
# _POINT_BUDGET radians over the panel, the panel's own Gauss rule takes
# the integral against each Lagrange basis polynomial to rounding (1e-15 at
# 8 radians, 7e-15 at 12), and the weights are the flow at the nodes.
# Elsewhere the panel is split into equal sub-panels of _FLOW_ORDER Gauss
# points over which the phase advances by at most _FLOW_BUDGET radians:
# that rule integrates exp(i w u) P_d(u), d < 24, to 4e-15 up to 72
# radians and to 1e-14 at 80.
_POINT_BUDGET = 8.0
_FLOW_ORDER = 48
_FLOW_BUDGET = 48.0
# sub-panels per block of the flow integral: 3072 points, whose Legendre
# table holds 0.6 MB. Blocks of 128 left the crosscheck benchmark's peak
# resident size 0.7 MB higher and ran no faster on its Stone slices.
_FLOW_BLOCK = 64

# (mu, Jacobian |dmu/dx|, 1 - mu^2/4) at the panel variable x of each piece
# of the Stone nodes: the angle theta of the bulk, mu = 2 sin(-theta/2), and
# w = sqrt(2 - mu) of the upper strip, where 1 - mu^2/4 = w^2 (4 - w^2) / 4
_PANEL_MAPS = {
    "bulk": (
        lambda th: 2.0 * np.sin(-th / 2.0),
        lambda th: np.cos(th / 2.0),
        lambda th: np.cos(th / 2.0) ** 2,
    ),
    "strip": (
        lambda wv: 2.0 - wv * wv,
        lambda wv: 2.0 * wv,
        lambda wv: wv * wv * (4.0 - wv * wv) / 4.0,
    ),
}


@dataclass(frozen=True)
class PropagatorRequest:
    """One propagator evaluation: which flow, potential, time and windows.

    observe_radius bounds the sites at which kernel entries or evolved
    values will be reported; window_radius is the truncation radius and
    must dominate observe_radius plus the causal range of the flow,
    observe_radius + SPEED_BOUND |t| <= window_radius.
    """

    kind: str
    V: Optional[PotentialSpec]
    t: float
    window_radius: int
    observe_radius: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; choose from {KINDS}")
        if not np.isfinite(self.t):
            raise ValueError("t must be finite")
        if self.kind in FREE_KINDS and self.V is not None:
            raise ValueError(f"kind {self.kind!r} is free; V must be None")
        if not 0 <= self.observe_radius <= self.window_radius:
            raise ValueError("need 0 <= observe_radius <= window_radius")
        if self.observe_radius + SPEED_BOUND * abs(self.t) > self.window_radius:
            raise ValueError(
                "window too small for the causal range: need observe_radius "
                f"+ {SPEED_BOUND:.3f} |t| <= window_radius, got "
                f"{self.observe_radius} + {SPEED_BOUND * abs(self.t):.1f} > "
                f"{self.window_radius}"
            )
        if self.V is not None and self.window_radius < self.V.support_radius + 2:
            raise ValueError("window does not contain the potential support")


@dataclass(frozen=True)
class KernelSlice:
    """Kernel entries K(t, n, m) on an observation window.

    entries[i, j] is the kernel between sites i - observe_radius and
    j - observe_radius. method records the evaluation route, "spectral"
    for the Chebyshev expansion on a window truncation, "stone" for the band
    quadrature (which carries only the continuous-spectrum part). A stone
    slice also records the accepted quadrature budget, the node count of
    that pass and its half-budget error estimate, the largest entry
    difference from the pass at twice the budget; the spectral route
    leaves them None.
    """

    t: float
    observe_radius: int
    entries: np.ndarray
    method: str
    budget: Optional[float] = None
    nodes: Optional[int] = None
    error_estimate: Optional[float] = None

    def __post_init__(self):
        side = 2 * self.observe_radius + 1
        ent = np.asarray(self.entries, dtype=complex)
        if ent.shape != (side, side):
            raise ValueError(f"entries must be {side}x{side}, got {ent.shape}")
        if self.method not in ("spectral", "stone"):
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "entries", ent)

    def entry(self, n: int, m: int) -> complex:
        r = self.observe_radius
        if max(abs(n), abs(m)) > r:
            raise ValueError("site outside the observation window")
        return complex(self.entries[n + r, m + r])


def auto_window_radius(t: float, observe_radius: int) -> int:
    """Truncation radius covering the causal range of time t with a margin."""
    return int(np.ceil(observe_radius + _RING_SAFETY * SPEED_BOUND * abs(t))) + 8


def _hull(operator: str, V: Optional[PotentialSpec]) -> tuple[float, float]:
    """Interval holding the spectrum of every window truncation, widened by _HULL_MARGIN.

    A Dirichlet truncation compresses the operator, so its eigenvalues lie
    in the operator's numerical range: [0, 4] for the second difference and
    [min(0, min V), 16 + max(0, max V)] for the fourth difference plus V.
    """
    if operator == "lap":
        lo, hi = 0.0, 4.0
    else:
        values = np.zeros(1) if V is None else V.values
        lo, hi = min(0.0, float(values.min())), 16.0 + max(0.0, float(values.max()))
    pad = _HULL_MARGIN * (hi - lo)
    return lo - pad, hi + pad


def chebyshev_degree(kind: str, V: Optional[PotentialSpec], t: float) -> float:
    """Chebyshev points, less one, at which kernel_spectral samples the flow of kind at time t.

    With z = |t| h and h the half-width of the spectrum's hull, this is
    z + 12 z^(1/3) + 16 rounded up: past it the Chebyshev coefficients of
    exp(-i t E), 2 |J_k(z)|, stay below 2^-52 for every z from 0 to 1e5
    (the Airy transition of J_k(z) at k = z is about z^(1/3) wide, and the
    tail falls below 2^-52 some 11 widths past it). The beam flows grow
    more slowly off the hull than exp(-i t E), so their coefficients fall
    sooner. A float, infinite where the hull is, so that limits can
    compare it without overflow.
    """
    lo, hi = _hull(_KIND_TABLE[kind][1], V)
    with np.errstate(over="ignore"):
        z = abs(t) * (0.5 * hi - 0.5 * lo)
    return float(np.ceil(z + _DEGREE_AIRY * np.cbrt(z))) + _DEGREE_FLOOR


def _chebyshev_coefficients(flow: str, t: float, lo: float, hi: float, points: int) -> np.ndarray:
    """Coefficients c_k of FLOWS[flow](t, E) = sum_k c_k T_k(x), E = (hi + lo)/2 + x (hi - lo)/2.

    The flow is sampled at the points + 1 Chebyshev extreme points of [lo,
    hi], and one FFT of their even extension gives the coefficients (a
    DCT-I). Trailing coefficients below 2^-52 times the flow's largest
    sample are chopped; at least c_0 is kept.
    """
    x = np.cos(np.pi * np.arange(points + 1) / points)
    samples = FLOWS[flow](t, 0.5 * (hi + lo) + 0.5 * (hi - lo) * x)
    coeffs = fft(np.concatenate([samples, samples[-2:0:-1]]))[: points + 1] / points
    coeffs[[0, points]] /= 2.0
    above = np.flatnonzero(np.abs(coeffs) > 2.0**-52 * np.abs(samples).max())
    return coeffs[: above[-1] + 1 if above.size else 1]


def kernel_spectral(request: PropagatorRequest) -> KernelSlice:
    """Kernel entries of the requested flow on the observation window, by a Chebyshev expansion.

    The flow of the Dirichlet window truncation H is sum_k c_k T_k(X),
    X = (H - m) / h the truncation mapped from its hull [m - h, m + h] onto
    [-1, 1], with c_k from _chebyshev_coefficients. X is real symmetric,
    so with E the window's unit columns at the observed sites, the product
    rule T_{j+k} = 2 T_j T_k - T_{|j-k|} gives

        E^T T_2k E = 2 v_k^T v_k - I,  E^T T_(2k+1) E = 2 v_(k+1)^T v_k - E^T X E,

    with v_k = T_k(X) E: the real recurrence v_(k+1) = 2 X v_k - v_(k-1)
    runs to half the degree only. X is a five-point stencil, so v_k lives
    on the light cone of the observed sites, 2k sites past them each way,
    and each step works on those rows of the window alone. The memory is
    four window x column arrays, and no matrix of the window's side is
    formed. The entries agree with diagonalising the truncation to about
    2^-52 times the flow's largest modulus on the hull times the degree;
    that modulus is 1 for the Schrodinger flows and can be cosh(|t|
    sqrt(-lo)) for the beam flows where a potential reaches below 0.
    """
    flow, operator, _ = _KIND_TABLE[request.kind]
    lo, hi = _hull(operator, request.V)
    points = int(chebyshev_degree(request.kind, request.V, request.t))
    coeffs = _chebyshev_coefficients(flow, request.t, lo, hi, points)
    n, r = request.window_radius, request.observe_radius
    side, cols = 2 * n + 1, 2 * r + 1
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    # 2 X as its diagonal and stencil, on rows padded by two zeros each way,
    # so that each step's shifted slices need no boundary case (Dirichlet)
    if operator == "lap":
        diagonal, stencil = np.full(side, 2.0), (-1.0, 0.0)
    else:
        diagonal, stencil = _window_diagonal(request.V, n), _STENCIL[1:]
    two_x = np.zeros((side + 4, 1))
    two_x[2:-2, 0] = (diagonal - mid) / half * 2.0
    near, far = (2.0 * s / half for s in stencil)
    work = np.empty((side + 4, cols))

    def step(out, v, prev, a, b):
        # out = 2 X v - prev on the padded rows [a, b)
        o, w = out[a:b], work[a:b]
        np.multiply(v[a:b], two_x[a:b], out=o)
        o -= prev[a:b]
        for shift, weight in ((1, near), (2, far)):
            np.add(v[a - shift : b - shift], v[a + shift : b + shift], out=w)
            w *= weight
            o += w

    def cone(rows):
        # the rows one step of the stencil reaches from rows, kept inside the window
        return max(rows[0] - 2, 2), min(rows[1] + 2, side + 2)

    first = n - r + 2
    vk, vk1, spare = (np.zeros((side + 4, cols)) for _ in range(3))
    vk[first : first + cols] = np.eye(cols)
    rows_k = (first, first + cols)
    rows_k1 = cone(rows_k)
    step(vk1, vk, spare, *rows_k1)  # spare is still 0
    vk1[rows_k1[0] : rows_k1[1]] *= 0.5
    x_observed = vk1[first : first + cols].copy()
    even, odd = coeffs[0::2], coeffs[1::2]
    acc = np.zeros((cols, cols), dtype=complex)
    for k in range(even.size):
        v = vk[rows_k[0] : rows_k[1]]
        acc += even[k] * (v.T @ v)
        if k < odd.size:
            acc += odd[k] * (vk1[rows_k[0] : rows_k[1]].T @ v)
        if k + 1 == even.size:
            break
        rows_next = cone(rows_k1)
        step(spare, vk1, vk, *rows_next)
        vk, vk1, spare = vk1, spare, vk
        rows_k, rows_k1 = rows_k1, rows_next
    acc *= 2.0
    acc -= even.sum() * np.eye(cols) + odd.sum() * x_observed
    return KernelSlice(request.t, r, acc, "spectral")


class PacSplit:
    """Splitting of the flow exp(-i t H) into bound and continuous parts.

    kernel_ac is the window kernel of kernel_spectral minus the part of the
    (E, psi) pairs of spectral.bound_states, so no window has to localise
    them.
    """

    def __init__(self, V: Optional[PotentialSpec], window_radius: int):
        self.V = V
        self.window_radius = window_radius
        self.bound_states = bound_states(V)

    def kernel_ac(self, t: float, observe_radius: int) -> KernelSlice:
        """Continuous-part kernel on an observation window; the window holds t's causal range."""
        request = PropagatorRequest("schrodinger_h", self.V, t, self.window_radius, observe_radius)
        entries = kernel_spectral(request).entries
        sites = np.arange(-observe_radius, observe_radius + 1)
        for energy, psi in self.bound_states:
            piece = psi(sites)
            entries -= FLOWS["schrodinger"](t, energy) * np.outer(piece, piece)
        return KernelSlice(t, observe_radius, entries, "spectral")


def pac_split(V: Optional[PotentialSpec], window_radius: int) -> PacSplit:
    """Bound/continuous splitting of the perturbed flow on a window."""
    return PacSplit(V, window_radius)


@lru_cache(maxsize=None)
def _five_smooth_table(bits: int) -> tuple[int, ...]:
    """Sorted integers below 2**bits with no prime factor above 5."""
    top = 1 << bits
    found = []
    p5 = 1
    while p5 < top:
        p35 = p5
        while p35 < top:
            found.extend(p35 << k for k in range(((top - 1) // p35).bit_length()))
            p35 *= 3
        p5 *= 5
    return tuple(sorted(found))


def _five_smooth(n: int) -> int:
    """Smallest integer >= n with no prime factor above 5, 1 <= n <= 2^62."""
    # the power of two 1 << (n - 1).bit_length() reaches n, so the table holds the answer
    table = _five_smooth_table((n - 1).bit_length() + 1)
    return table[bisect_left(table, n)]


def ring_size(t: float, kind: str, kmax: int = 0) -> int:
    """Size of the FFT ring that carries the free kernel of a kind at time t.

    The ring is even, 5-smooth, of at least 256 points, and covers the
    separations up to c |t| + 16 |t|^(1/3) + kmax + 64 both ways. c is the
    flow's largest group speed: SPEED_BOUND = 6 sqrt(3) where the phase is
    t b^2 (the fourth-difference Schrodinger flow), 2 where it is t b (the
    second-difference flow, and the beam flows, whose sqrt(E) is the symbol
    b = 4 sin^2(x/2) itself). Past the causal front c |t| each kernel falls
    off in an Airy tail whose width grows like |t|^(1/3): from
    c |t| + 24 |t|^(1/3) on, the fourth-difference kernel is at most
    1.9e-13 at t = 1e3 and 4.2e-13 at t = 1e5. A separation inside the
    front receives wraparound only from at least 32 |t|^(1/3) past it, so
    that wraparound sits at the rounding floor.
    """
    if kind not in _KIND_TABLE:
        raise ValueError(f"no free kernel for kind {kind!r}")
    flow, operator, _ = _KIND_TABLE[kind]
    speed = SPEED_BOUND if (flow, operator) == ("schrodinger", "bilap") else 2.0
    reach = speed * abs(t) + _RING_TAIL * np.cbrt(abs(t))
    need = 2.0 * (reach + kmax + _RING_MARGIN)
    half = int(np.ceil(max(need, 256.0) / 2))
    if half > 1 << 62:
        raise ValueError(f"the ring for t = {t:g} would pass 2^63 points, the numpy array limit")
    return 2 * _five_smooth(half)


def fft_ring_band(size: int, j: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Second-difference symbol 4 sin^2(x/2) at indices j of an FFT ring of even size.

    Returns (band, sine) at x = 2 pi j / size, with sine = sin(x/2) the
    half-angle sine the symbol is built from; j defaults to the half ring
    0..size/2. Both are even on the ring, so index size - j carries the
    values of j. Each entry depends on its own index alone, so a block of
    indices gets the bytes the whole half ring has there.
    """
    if j is None:
        j = np.arange(size // 2 + 1)
    sine = np.sin(np.pi * j / size)
    return 4.0 * sine * sine, sine


def _ring_weight_at(t: float, kind: str, size: int, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flow weight of a kind at indices j of a ring of even size, with its half-angle sines."""
    flow, operator, _ = _KIND_TABLE[kind]
    band, sine = fft_ring_band(size, j)
    # the fourth-difference energy b^2 overwrites the symbol it squares
    energy = band if operator == "lap" else np.square(band, out=band)
    return FLOWS[flow](t, energy), sine


def ring_weight(t: float, kind: str) -> np.ndarray:
    """Flow weight of a kind over the full FFT ring of the free kernel at time t.

    The ring is ring_size(t, kind), the one free_kernel_full reads. The
    weight is evaluated on the half ring only and mirrored, so index j and
    size - j carry the same value; its inverse FFT is the kernel on the
    whole ring.
    """
    size = ring_size(t, kind)
    half, _ = _ring_weight_at(t, kind, size, np.arange(size // 2 + 1))
    full = np.empty(size, dtype=half.dtype)
    full[: half.size] = half
    full[half.size :] = half[-2:0:-1]
    return full


def fft_workers() -> int:
    """Threads that share the blocks of a free kernel's ring: the caller and its helpers."""
    return _FFT_WORKERS


def _share(count: int, work, workers: int) -> None:
    """Run work(i) once for each i = 0..count-1 on the caller and, if workers > 1, a helper.

    Both threads claim the next unclaimed index until none is left, so a
    thread the system delays leaves its share to the other. Each block's
    output depends on its index alone and the blocks write disjoint
    outputs, so no result depends on the worker count or on which thread
    ran a block. A helper's exception is raised again in the caller once
    the helper has ended.
    """
    if workers < 2 or count < 2:
        for i in range(count):
            work(i)
        return
    lock = threading.Lock()
    claimed = [0]
    failed = []

    def run():
        while True:
            with lock:
                i = claimed[0]
                claimed[0] += 1
            if i >= count:
                return
            work(i)

    def helper():
        try:
            run()
        except BaseException as exc:
            failed.append(exc)

    thread = threading.Thread(target=helper, name="bilap-fft")
    thread.start()
    try:
        run()
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _four_step_split(M: int) -> int:
    """Largest divisor of M that is at most sqrt(M)."""
    return next(d for d in range(isqrt(M), 0, -1) if M % d == 0)


def _four_step_fft(y: np.ndarray, workers: int) -> np.ndarray:
    """FFT of a contiguous complex y in place by four steps (Bailey 1990).

    With M = M1 M2 and M1 the largest divisor at most sqrt(M), y is read
    as A[n2, n1] = y[n1 + M1 n2], M2 rows of M1 columns. The column stage
    copies blocks of whole columns, about _FFT_BLOCK points each, to a
    contiguous array, takes a length-M2 FFT of each column there, applies
    the twiddle omega^(n1 k2), omega = exp(-2 pi i / M), and writes the
    block back. The row stage takes length-M1 FFTs of blocks of whole rows
    in place. Returns the view A, which then holds
    Y[k2 + M2 k1] = A[k2, k1]. Every transform and table is a block's
    size: nothing as long as y is allocated.
    """
    M = y.size
    M1 = _four_step_split(M)
    M2 = M // M1
    A = y.reshape(M2, M1)
    width, height = max(1, _FFT_BLOCK // M2), max(1, _FFT_BLOCK // M1)
    # k2 = a + _LANES b; the twiddle is the product of the tables in a and
    # in b, whose angles are reduced mod M in integers
    a = np.arange(_LANES)
    b = _LANES * np.arange(-(-M2 // _LANES))
    step = 2.0 * np.pi / M

    def columns(i):
        n1 = np.arange(i * width, min((i + 1) * width, M1))
        cols = slice(n1[0], n1[-1] + 1)
        # rows past M2 pad the block to whole groups of _LANES for the twiddle
        block = np.empty((b.size * _LANES, n1.size), dtype=complex)
        part = block[:M2]
        part[...] = A[:, cols]
        block[M2:] = 0.0
        fft(part, axis=0, out=part)
        grid = block.reshape(b.size, _LANES, n1.size)
        grid *= _unit_turn(step, np.outer(a, n1) % M)
        grid *= _unit_turn(step, np.outer(b, n1) % M)[:, None, :]
        A[:, cols] = part

    def rows(i):
        block = A[i * height : (i + 1) * height]
        fft(block, out=block)

    _share(-(-M1 // width), columns, workers)
    _share(-(-M2 // height), rows, workers)
    return A


def free_kernel_full(t: float, kind: str, kmax: int = 0) -> np.ndarray:
    """Free kernel at separations 0..size/2 of a ring covering the causal range of t.

    The kernel is even, so these separations hold the whole ring. Its
    inverse transform of the even weight h_0..h_M (M = size/2) is a DCT-I,
    computed with one complex FFT of length M (Makhoul 1980; Numerical
    Recipes, cosft1): Y = fft(y), y_j = (h_j + h_{M-j})/2 - sin(pi j/M)
    (h_j - h_{M-j}). The even separations are K_{2p} = (Y_p + Y_{-p})/size,
    the odd ones K_{2p+1} = K_{2p-1} + i (Y_p - Y_{-p})/size from
    K_1 = (2/size) [(h_0 - h_M)/2 + sum_{0<j<M} h_j cos(pi j/M)]. The
    cosine is odd about j = M/2, so that sum is taken over the pairs as
    sum_{0<j<=M/2} (h_j - h_{M-j}) cos(pi j/M). Both trigonometric
    factors come from the half-angle sines s_j of fft_ring_band:
    sin(pi j/M) = 2 s_j s_{M-j}, cos(pi j/M) = 1 - 2 s_j^2.

    Three blocked stages fill and read one complex array y of M points.
    The weights at each block of _BLOCK pairs (j, M - j) are written
    straight into y as y_j and y_{M-j}, and the block's part of the K_1
    sum is kept by block index; the parts are added in block order, by
    numpy reductions, never a BLAS dot, whose order would follow the BLAS
    thread count. _four_step_fft transforms y in place, and the kernel is
    read off its column blocks, each Y_{-p} from the mirrored block. Only
    the running sum of the odd separations is serial. Besides y and the
    returned kernel, 16 bytes per point of the half ring each, every
    worker holds only a few block-sized arrays, where one whole-length FFT
    would add its own scratch and twiddles as long as y. At t = 1e5 on the
    fourth-difference ring (2^20 half-ring points) numpy's allocations peak
    at 36 MB, against 48 MB for the whole-length route. The caller and
    _FFT_WORKERS - 1 helper threads share each stage's blocks (_share),
    each block's output fixed by its index, so the kernel's bytes do not
    depend on the worker count.
    Useful for suprema over the whole causal range.
    """
    size = ring_size(t, kind, kmax)
    M = size // 2
    m = M // 2
    workers = _FFT_WORKERS
    y = np.empty(M, dtype=complex)
    k1_parts = [None] * -(-m // _BLOCK)

    # over the pairs (j, M - j), j = 1..M//2: with a = (h_j + h_{M-j})/2
    # and b = sin(pi j/M)(h_j - h_{M-j}), y_j = a - b and y_{M-j} = a + b;
    # at j = M/2 both are one entry and b = 0
    def pairs(i):
        j = np.arange(1 + i * _BLOCK, min(1 + (i + 1) * _BLOCK, m + 1))
        lo, s_lo = _ring_weight_at(t, kind, size, j)
        hi, s_hi = _ring_weight_at(t, kind, size, M - j)
        b = lo - hi
        # size * K_1 from b = h_j - h_{M-j} before it is scaled; cos(pi j/M)
        # stays a real factor
        cos = s_lo**2
        cos *= -2.0
        cos += 1.0
        k1_parts[i] = np.add.reduce(b * cos)
        b *= 2.0 * s_lo * s_hi
        a = lo + hi
        a *= 0.5
        np.subtract(a, b, out=y[j[0] : j[-1] + 1])
        np.add(a, b, out=y[M - j[-1] : M - j[0] + 1][::-1])

    _share(len(k1_parts), pairs, workers)
    (h0, hM), _ = _ring_weight_at(t, kind, size, np.array([0, M]))
    k1 = h0 - hM + 2.0 * np.add.reduce(k1_parts)
    y[0] = 0.5 * (h0 + hM)
    A = _four_step_fft(y, workers)
    M2, M1 = A.shape

    # K_{2p} for p = 0..M//2 (Y_{-0} = Y_0) and K_{2p+1} for p = 1..(M-1)//2,
    # over blocks of whole columns of A, Y_p for p = M2 c0..M2 c1 - 1;
    # Y_{-p} comes from the mirrored columns plus the entry Y_{-M2 c0}
    kernel = np.empty(M + 1, dtype=complex)
    even, odd = M // 2 + 1, (M + 1) // 2
    width = max(1, _FFT_BLOCK // M2)
    scale = 1.0 / size

    def assemble(i):
        c0, c1 = i * width, min((i + 1) * width, M1)
        p0, p1 = c0 * M2, min(c1 * M2, even)
        # contiguous copies of the columns, transposed in cache
        Yp = A[:, c0:c1].copy().T.ravel()[: p1 - p0]
        Ym = np.empty_like(Yp)
        Ym[0] = A[0, (M1 - c0) % M1]
        Ym[1:] = A[:, M1 - c1 : M1 - c0].copy().T.ravel()[: -Yp.size : -1]
        evens = kernel[2 * p0 : 2 * p1 : 2]
        np.add(Yp, Ym, out=evens)
        evens *= scale
        q0, q1 = max(p0, 1), min(p1, odd)
        if q0 < q1:
            diff = kernel[2 * q0 + 1 : 2 * q1 : 2]
            np.subtract(Yp[q0 - p0 : q1 - p0], Ym[q0 - p0 : q1 - p0], out=diff)
            diff *= 1j

    _share(-(-even // (width * M2)), assemble, workers)
    kernel[1] = k1
    odds = kernel[1::2]
    np.cumsum(odds, out=odds)
    odds *= scale
    return kernel


def free_kernel_fft(t: float, kind: str, kmax: int) -> np.ndarray:
    """Free kernel values at separations 0..kmax (even in the separation)."""
    return free_kernel_full(t, kind, kmax=kmax)[: kmax + 1]


def _halvings(far: float, turn: float, end: float) -> np.ndarray:
    """Edges far/2, far/4, ... that grade a panel [end, far] toward end, or none.

    The panel's variable vanishes at a band edge. A sandwich that turns
    over at turn in that variable has poles within about turn of the
    origin, some close to the real axis; a turn inside the panel is out of
    reach of its interpolant. The panel is then halved down to
    max(turn/16, end): each new panel [a, 2a] keeps a distance of order a
    from the poles, and below turn/16 the sandwich is smooth on the scale
    of the panel. A turn past the panel lies in the interior panels, which
    _resonance_cuts follows instead.
    """
    if not 0.0 < turn < far:
        return np.empty(0)
    return far * 0.5 ** np.arange(1, int(np.ceil(np.log2(far / max(turn / 16.0, end)))))


def _resonance_phase(th_lo: float, th_hi: float, sys: BirmanSchwingerSystem):
    """_RESONANCE_SCAN points of the bulk in theta and the phase of det M turned up to each."""
    th = np.linspace(th_lo, th_hi, _RESONANCE_SCAN)
    m = m_matrix_grid(2.0 * np.sin(-th / 2.0), sys, one_minus_q=np.cos(th / 2.0) ** 2)
    with np.errstate(invalid="ignore"):
        turns = np.abs(np.diff(np.unwrap(np.angle(np.linalg.slogdet(m)[0]))))
    # a sandwich past the float range turns nowhere; the solves refuse it
    return th, np.concatenate([[0.0], np.cumsum(np.nan_to_num(turns, nan=0.0))])


def _resonance_cuts(edges: np.ndarray, resonance, budget: float) -> np.ndarray:
    """Bulk edges with the interior panels cut where the sandwich resonates.

    A zero of det M just off the band is a pole of M^-1 that the panel's
    interpolant cannot follow, and near it the phase of det M turns fast:
    by about pi over a few times the pole's distance. Each interior panel
    is cut so that the phase advances by at most budget /
    _RESONANCE_WEIGHT per part, the cuts placed at equal steps of its
    total variation, read off resonance, the _resonance_phase scan of the
    bulk. The first and last panels are left to the gradings at the band
    edges, where det M turns at the crest and the knee.
    """
    th, turned = resonance
    at = np.interp(edges, th, turned)
    cuts = [edges[:2]]
    for i in range(1, edges.size - 2):
        parts = int(np.ceil(_RESONANCE_WEIGHT * (at[i + 1] - at[i]) / budget))
        if parts > 1:
            steps = np.linspace(at[i], at[i + 1], parts + 1)[1:-1]
            cuts.append(np.interp(steps, turned, th))
        cuts.append(edges[i + 1 : i + 2])
    cuts.append(edges[-1:])
    return np.concatenate(cuts)


def _stone_reach(targets: np.ndarray, sys: Optional[BirmanSchwingerSystem]) -> int:
    """Largest separation of a Stone slice: between targets, or from a target to a support site."""
    sites = targets if sys is None else np.concatenate([targets, sys.sites])
    return int(np.abs(targets[:, None] - sites[None, :]).max())


@lru_cache(maxsize=8)
def _wave_scans(reach: float, inner: float, edge: float):
    """The wave-cost variation of the bulk and of the strip (cost_variation), read-only.

    Both depend on reach and the cutoffs (_INNER_CUTOFF, _EDGE_CUTOFF)
    alone, not on the potential, so a process makes each once per reach:
    the limits' stone_flow_points and every Stone slice at that reach share
    it. Each scan holds 2 x 8,193 floats, 0.26 MB for the pair, and the
    cache keeps eight reaches. The bulk's scan points run from its first
    edge to its last.
    """

    # sign does not move an edge: only the |variation| of each cost row counts
    def cost(mu, phase):
        return np.stack([reach * phase, reach * _band_rates(mu)[1]])

    # bulk, in theta = -phase; the ends invert the node map mu = 2 sin(-theta/2)
    th_lo, th_hi = -2.0 * np.arcsin(np.array([2.0 - edge, inner]) / 2.0)
    bulk = cost_variation(th_lo, th_hi, lambda th: cost(2.0 * np.sin(-th / 2.0), th))

    # upper strip, in w = sqrt(2 - mu)
    def hi_cost(wv):
        mu = 2.0 - wv * wv
        return cost(mu, _band_rates(mu)[0])

    strip = cost_variation(inner, np.sqrt(edge), hi_cost)
    for scan in (*bulk, *strip):
        scan.flags.writeable = False
    return bulk, strip


def _stone_scans(reach: float, sys: Optional[BirmanSchwingerSystem]):
    """The scans of _stone_nodes that no budget enters, made once per slice.

    The wave-cost scans of the bulk and of the strip (_wave_scans, shared
    per reach), and the _resonance_phase of the bulk, None for the free
    flow.
    """
    bulk, strip = _wave_scans(reach, _INNER_CUTOFF, _EDGE_CUTOFF)
    resonance = None if sys is None else _resonance_phase(bulk[0][0], bulk[0][-1], sys)
    return bulk, strip, resonance


def _stone_panels(reach: float, budget: float, sys: Optional[BirmanSchwingerSystem], scans=None):
    """The panels of _stone_nodes: (piece, edges) for the bulk and for the strip.

    scans is _stone_scans(reach, sys), made here when omitted; a ladder of
    budgets shares it.
    """
    # v K_-3 v mu^-3 has norm |V|_1 / sqrt(8) mu^-3: K_-3 = (i - 1)/4 at every
    # separation. At the upper edge the kernel is i (-1)^k / (32 w) to leading
    # order in w = sqrt(1 - mu^2/4), so v K v has norm |V|_1 / (32 w) there
    norm = np.sum(sys.v**2) if sys is not None else 0.0
    knee, crest = (norm / np.sqrt(8.0)) ** (1.0 / 3.0), norm / 32.0
    bulk, strip, resonance = scans if scans is not None else _stone_scans(reach, sys)

    edges = edges_from_budget(bulk[0][0], bulk[0][-1], bulk, budget=budget, min_panels=8)
    if resonance is not None:
        edges = _resonance_cuts(edges, resonance, budget)
    # the last panel graded in mu toward the knee, the first in w toward the crest
    low = -2.0 * np.arcsin(_halvings(2.0 * np.sin(-edges[-2] / 2.0), knee, _INNER_CUTOFF) / 2.0)
    top = np.cos(edges[:2] / 2.0)
    high = -2.0 * np.arccos(_halvings(top[1], crest, top[0])[::-1])
    edges = np.concatenate([edges[:1], high, edges[1:-1], low, edges[-1:]])
    ends = edges_from_budget(
        _INNER_CUTOFF, np.sqrt(_EDGE_CUTOFF), strip, budget=budget, min_panels=4
    )
    graded = _halvings(ends[1], crest, _INNER_CUTOFF)[::-1]
    return [("bulk", edges), ("strip", np.concatenate([ends[:1], graded, ends[1:]]))]


def _stone_nodes(reach: float, budget: float, sys: Optional[BirmanSchwingerSystem], scans=None):
    """Quadrature nodes, weights, stable 1 - mu^2/4 values and panels over (0, 2).

    Two pieces. The bulk is in the angle theta with mu = 2 sin(-theta/2),
    whose Jacobian cos(theta/2) cancels the jump's singularity at mu = 2.
    It runs from mu = 2 - _EDGE_CUTOFF down to _INNER_CUTOFF; the integrand
    is smooth in theta at the lower edge, so no strip is needed there. The
    strip at the upper edge is in w = sqrt(2 - mu), where the jump is
    locally analytic, from w = sqrt(_EDGE_CUTOFF) down to _INNER_CUTOFF.
    Both edges are regular; stone_kernel_slice refuses a slice otherwise.
    Panels carry _STONE_ORDER Gauss nodes each and are sized by the
    spatial waves alone: reach bounds the site separations that multiply
    the oscillatory and evanescent exponents in the budget. The flow's phase does not enter,
    since _stone_assemble integrates the flow exactly on each panel, so the
    nodes do not depend on t.

    sys is the decomposed potential, None for the free flow. Its sandwich
    turns over at the knee, the mu below which its mu^-3 term outgrows the
    identity, and at the crest, the w = cos(theta/2) below which its 1/w
    term at the upper edge does. A panel reaching far past such a turn
    cannot interpolate it, so _halvings grades the bulk's last panel in mu
    toward the knee, and the bulk's first panel in w and the strip's first
    panel toward the crest; _resonance_cuts cuts the interior panels where
    det M turns (_stone_panels). The weights are the Gauss weights times
    the Jacobian |dmu/dx|, so they sum to the length in mu that the pieces
    cover; panels lists (piece, edges) for each piece, whose nodes follow
    panel by panel.
    scans is _stone_scans(reach, sys), made here when omitted; a ladder of
    budgets shares it.
    """
    panels = _stone_panels(reach, budget, sys, scans)
    pieces = []
    for piece, edges in panels:
        x, w = gauss_panels(edges, _STONE_ORDER)
        mu_of, jacobian, one_minus_q = _PANEL_MAPS[piece]
        pieces.append((mu_of(x), w * jacobian(x), one_minus_q(x)))
    return (*(np.concatenate(p) for p in zip(*pieces)), panels)


def _flow_subpanels(t: float, power: int, panels) -> np.ndarray:
    """Sub-panels of each Stone panel for the flow integral at time t, as floats.

    On a panel [a, b] of a piece the flow phase t mu^power advances by at
    most |t| power mu_top^(power - 1) J_top (b - a), with mu_top and J_top
    the largest mu and Jacobian |dmu/dx| on the panel, both monotone in x
    and so taken at an end. An advance of at most _POINT_BUDGET needs no
    sub-panel (count 0); a larger one is split into sub-panels of at most
    _FLOW_BUDGET radians each. The counts are floats so that any finite t
    is sized without overflow.
    """
    counts = []
    for piece, edges in panels:
        mu_of, jacobian, _ = _PANEL_MAPS[piece]
        mu, jac = mu_of(edges), jacobian(edges)
        top = np.maximum(mu[:-1], mu[1:]) ** (power - 1) * np.maximum(jac[:-1], jac[1:])
        advance = abs(t) * power * top * np.diff(edges)
        counts.append(np.where(advance <= _POINT_BUDGET, 0.0, np.ceil(advance / _FLOW_BUDGET)))
    return np.concatenate(counts)


@lru_cache(maxsize=None)
def _lagrange_in_legendre(order: int) -> np.ndarray:
    """C[i, j] = (i + 1/2) P_i(g_j) at the Gauss nodes g_j of an order.

    With G_j the Gauss weights, the Lagrange basis on the nodes is
    l_j(u) = G_j sum_i C[i, j] P_i(u), so int F l_j du / G_j is
    sum_i C[i, j] int F P_i du over [-1, 1].
    """
    g, _ = gauss_rule(order)
    return (np.arange(order) + 0.5)[:, None] * np.polynomial.legendre.legvander(g, order - 1).T


def _flow_blocks(counts: np.ndarray):
    """Runs (panel, first, stop, count) of sub-panels, in blocks of at most _FLOW_BLOCK."""
    runs, size = [], 0
    for p in np.flatnonzero(counts):
        s, q = int(counts[p]), 0
        while q < s:
            take = min(s - q, _FLOW_BLOCK - size)
            runs.append((p, q, q + take, s))
            size, q = size + take, q + take
            if size == _FLOW_BLOCK:
                yield runs
                runs, size = [], 0
    if runs:
        yield runs


def stone_flow_points(t: float, observe_radius: int) -> float:
    """Points per time of the Schrodinger flow integral of a Stone slice's first pass.

    A float, so that any finite t is sized without overflow: the flow
    integral takes _FLOW_ORDER points on each of the _flow_subpanels of the
    first pass's panels, here those of a free slice on the observe radius
    (a potential adds only the few panels of its gradings and resonance
    cuts). Later passes split the same phase advance over more panels, so
    their count grows only by the panels they add; the nodes do not grow
    with t.
    """
    panels = _stone_panels(2.0 * observe_radius + 2.0, _BUDGET_START, None)
    with np.errstate(over="ignore"):
        return float(_flow_subpanels(t, 4, panels).sum()) * _FLOW_ORDER


def _flow_weights(times: np.ndarray, phase: str, mu: np.ndarray, panels) -> np.ndarray:
    """Flow of each time integrated against each node's Lagrange basis on its panel.

    Returns Phi, shape (len(times), nodes), with Phi[k, j] the integral of
    FLOWS[phase](times[k], mu(x)^4) l_j(x) over node j's panel divided by
    the integral of l_j, its Gauss weight: the product-integration
    (Filon-type) weight of the panel's interpolant per unit Gauss weight,
    which the point rule would take as the flow at node j. The times share
    sub-panels in groups: the largest |t| not yet placed and every |t| down
    to half of it, sized for the first (_flow_group). Sizing every time of
    a series from t = 100 to 5000 for its largest |t| took 3.6 times the
    flow evaluations of sizing each for its own.
    """
    phi = np.empty((times.size, mu.size), dtype=complex)
    order = np.argsort(-np.abs(times), kind="stable")
    first = 0
    while first < order.size:
        top = abs(times[order[first]])
        stop = first + np.count_nonzero(np.abs(times[order[first:]]) >= top / 2.0)
        group = order[first:stop]
        phi[group] = _flow_group(times[group], phase, mu, panels, top)
        first = stop
    return phi


def _flow_group(times: np.ndarray, phase: str, mu: np.ndarray, panels, horizon: float):
    """_flow_weights for times whose flow integrals share sub-panels sized for horizon.

    On a panel with no sub-panel (_flow_subpanels at horizon) the panel's
    own rule takes the integral, where l_j is 1 at node j and 0 at the
    others, so Phi is the flow at the nodes. On the others the integral is a composite Gauss
    rule of _FLOW_ORDER points on each sub-panel, taken as Legendre moments
    in the panel variable u in [-1, 1] and mapped to the Lagrange basis by
    _lagrange_in_legendre. The sub-panels run in blocks of _FLOW_BLOCK, so
    no array grows with t.
    """
    flow, n = FLOWS[phase], _STONE_ORDER
    phi = flow(times[:, None], mu**4)
    C = _lagrange_in_legendre(n)
    g, G = gauss_rule(_FLOW_ORDER)
    start = 0
    for piece, edges in panels:
        mu_of = _PANEL_MAPS[piece][0]
        half = 0.5 * np.diff(edges)
        mid = edges[:-1] + half
        counts = _flow_subpanels(horizon, 4 if phase == "schrodinger" else 2, [(piece, edges)])
        moments = np.zeros((half.size, 2 * times.size, n))
        for runs in _flow_blocks(counts):
            # sub-panel q of s on panel p spans u in [(2q - s) / s, (2q + 2 - s) / s]
            p, q0, q1, s = np.array(runs).T
            lengths = q1 - q0
            firsts = np.cumsum(lengths) - lengths
            sub = np.repeat(p, lengths)
            q = np.arange(lengths.sum()) - np.repeat(firsts - q0, lengths)
            s = np.repeat(s, lengths).astype(float)[:, None]
            u = (2.0 * q[:, None] + 1.0 - s + g) / s
            F = flow(times[:, None, None], mu_of(mid[sub, None] + half[sub, None] * u) ** 4)
            F *= G / s
            # real and imaginary parts as rows of one real product per sub-panel
            parts = np.concatenate([F.real, F.imag]).transpose(1, 0, 2)
            sums = np.matmul(parts, np.polynomial.legendre.legvander(u, n - 1))
            moments[p] += np.add.reduceat(sums, firsts, axis=0)
        used = np.flatnonzero(counts)
        if used.size:
            avg = moments[used] @ C
            avg = avg[:, : times.size] + 1j * avg[:, times.size :]
            nodes = start + used[:, None] * n + np.arange(n)
            phi[:, nodes] = avg.transpose(1, 0, 2)
        start += half.size * n
    return phi


def _stone_assemble(
    times: np.ndarray,
    sys: Optional[BirmanSchwingerSystem],
    targets: np.ndarray,
    phase: str,
    budget: float,
    scans=None,
):
    """Band-quadrature kernels at all target pairs, shape (len(times), S, S), and node count.

    sys is the decomposed potential (None for the free flow), with both
    edges regular, and scans, if given, the _stone_scans at
    _stone_reach(targets, sys) + 2 that _stone_nodes reads. One node set
    serves every time, and it does not depend on t: the flow enters through
    the product-integration weights of _flow_weights. At each node the
    weight of time t is that flow weight times mu^3 and the Jacobian Gauss
    weight: mu^3 and the Jacobian stay with the interpolated part, since
    they cancel the jump's mu^-3 and 1/sqrt(1 - mu^2/4). The kernel tables,
    the sandwich solves and the gather of z are shared; only the flow
    weights differ between times. The correction at (n, m) depends on the
    targets only through their distances to the support sites, so z, the
    solved sides and the correction GEMM run over the distinct rows of
    |n - site| (the distances 0..r for one site at the centre) and are
    gathered back onto the targets.
    """
    count = times.size
    sep_free = np.abs(targets[:, None] - targets[None, :])
    free_reach = int(sep_free.max())
    reach = _stone_reach(targets, sys)
    if sys is not None:
        dist, cls = np.unique(
            np.abs(targets[:, None] - sys.sites[None, :]), axis=0, return_inverse=True
        )
        cls, classes = cls.ravel(), len(dist)
        corr = np.zeros((2 * count * classes, classes), dtype=complex)

    mu, wts, omq, panels = _stone_nodes(reach + 2.0, budget, sys, scans)
    flows = _flow_weights(times, phase, mu, panels)
    # one kernel evaluation per node and separation 0..reach; the free part
    # and the correction term both read from it
    seps = np.arange(reach + 1)

    free_vals = np.zeros((2 * count, free_reach + 1))
    # 1024 nodes keep each chunk array near 1 MB; 4096 ran no faster and
    # raised the peak resident size by about 9 MB
    chunk = 1024
    # the sides of a sub-chunk hold 2 weights per time; sub-chunks keep that
    # array at the size of one time's whole chunk (a whole chunk at 8 times
    # raised the perturbed benchmark's peak resident size by 18 %), and one
    # GEMM per time instead ran slower
    sub = max(32, 2048 // (2 * count))
    for start in range(0, mu.size, chunk):
        sl = slice(start, start + chunk)
        mus, ws, oq = mu[sl], wts[sl], omq[sl]
        phw = flows[:, sl] * mus**3 * ws
        rho_all = boundary_kernel_plus(mus, seps, one_minus_q=oq)
        # the jump keeps 2i Im rho; contract it with Re and Im of phw apart
        free_vals += np.concatenate([phw.real, phw.imag]) @ rho_all[:, : free_reach + 1].imag
        if sys is None:
            continue
        # R+ v M^-1 v R+ at each node; M is complex symmetric, so the minus
        # side is the conjugate of the plus side taken with conj(phw)
        z = rho_all[:, dist.T]
        z *= sys.v[None, :, None]
        y, _ = solve_sandwich(m_matrix_grid(mus, sys, one_minus_q=oq), z, mus)
        weights = np.concatenate([phw, phw.conj()]).T
        for lo in range(0, mus.size, sub):
            part = slice(lo, lo + sub)
            sides = y[part, :, None, :] * weights[part, None, :, None]
            corr += sides.reshape(-1, 2 * count * classes).T @ z[part].reshape(-1, classes)

    kernel = (2j * (free_vals[:count] + 1j * free_vals[count:]))[:, sep_free]
    if sys is not None:
        plus, minus = corr.reshape(2, count, classes, classes)
        kernel -= (plus - minus.conj()).transpose(0, 2, 1)[:, cls[:, None], cls]
    return 2.0 / (np.pi * 1j) * kernel, mu.size


def stone_kernel_slice(
    t,
    V: Optional[PotentialSpec],
    observe_radius: int,
    phase: str = "schrodinger",
    tol: float = 1e-8,
) -> KernelSlice | list[KernelSlice]:
    """Continuous-part kernel on a window via the band quadrature.

    t is one time, which gives one KernelSlice, or a 1-d sequence of times,
    which gives a list of them in the same order. phase names the flow in
    FLOWS. Both band edges of V must be regular: each is checked once for
    the whole series, and a non-regular one is refused with
    SingularSandwichError before any scan or node is built. So is a sandwich
    with an entry past the float range at the bulk's lower end, where it is
    largest. The quadrature runs at budget 16 and then at half the budget;
    each pass builds one node set, the same for every t, on the scans of the
    wave costs, made once per reach, and of det M, made once per call
    (_stone_scans), with flow weights integrated per group of times within a factor of two in |t|
    (_flow_weights), and evaluates every time not yet accepted on it. A
    time's error estimate at a pass is the largest entry difference from the
    pass before plus the rounding of an entry, (_ROUNDING_ULPS + 16 |t|)
    2^-52. A time is accepted at the first pass that has more nodes than the
    one before and an estimate of at most tol; the finer pass is returned
    with that estimate, and later passes leave it alone. Two passes on the
    same nodes agree exactly and prove nothing, so such a step halves again.
    The ladder stops once every time is accepted, or at budget 0.25, where
    each time whose estimate still misses tol warns.
    """
    if phase not in FLOWS:
        raise ValueError(f"phase must be one of {tuple(FLOWS)}")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or times.size == 0:
        raise ValueError("t must be a float or a non-empty 1-d sequence of times")
    if not np.isfinite(times).all():
        raise ValueError("t must be finite")
    series = np.atleast_1d(times)
    sys = decompose_potential(V) if V is not None else None
    if sys is not None:
        _require_regular(sys, ("zero", "sixteen"))
        # whether M stays in the float range must not depend on where a pass
        # puts its nodes; its mu^-3 term is largest at the bulk's lower end,
        # below every node of every pass
        if not np.isfinite(m_matrix_grid(np.array([_INNER_CUTOFF]), sys)).all():
            raise SingularSandwichError(
                "sandwich matrix numerically singular at energy "
                f"mu^4 = {_INNER_CUTOFF**4:.6g}: entries past the float range"
            )
    targets = np.arange(-observe_radius, observe_radius + 1)
    scans = _stone_scans(_stone_reach(targets, sys) + 2.0, sys)
    slices = [None] * series.size
    pending = np.arange(series.size)
    budget = _BUDGET_START
    coarse, coarse_nodes = _stone_assemble(series, sys, targets, phase, budget, scans=scans)
    while pending.size:
        budget /= 2.0
        fine, nodes = _stone_assemble(series[pending], sys, targets, phase, budget, scans=scans)
        floor = (_ROUNDING_ULPS + 16.0 * np.abs(series[pending])) * 2.0**-52
        errs = np.abs(fine - coarse).max(axis=(1, 2)) + floor
        done = (errs <= tol) & (nodes > coarse_nodes) | (budget <= _BUDGET_FLOOR)
        for j, entries, err in zip(pending[done], fine[done], errs[done]):
            if err > tol:
                warnings.warn(
                    f"band quadrature at t = {series[j]:g} achieved error estimate "
                    f"{err:.3e} above the target {tol:.1e} at budget {budget:g}",
                    stacklevel=2,
                )
            slices[j] = KernelSlice(
                float(series[j]), observe_radius, entries, "stone", budget, nodes, float(err)
            )
        pending, coarse, coarse_nodes = pending[~done], fine[~done], nodes
    return slices[0] if times.ndim == 0 else slices
