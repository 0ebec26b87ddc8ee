"""Time propagators for the fourth-difference operator, free and perturbed.

Every flow is a function of one spectral variable, the energy E of the
operator H that generates it, and FLOWS defines each one once. Three
routes evaluate them and are cross-checked against each other. Dense
spectral evolution diagonalises a window truncation and passes its
eigenvalues as E. Free translation-invariant kernels come from the band
symbol by FFT, with E the symbol of H on the ring: the weight lives on
half of an even ring sized by the flow's own group speed, and the even
kernel comes from one complex FFT of half the ring's length. Perturbed kernels
restricted to the continuous spectrum come from a quadrature of the
resolvent jump across the band,

    K(t, n, m) = (2 / (pi i)) Int_0^2 w(t, mu^4) mu^3 [R+ - R-](mu^4, n, m) dmu,

with w the flow weight at E = mu^4: exp(-i t E) for the flow generated by
the operator itself, exp(-i t sqrt E), cos(t sqrt E) or
sin(t sqrt E)/(t sqrt E) for half-wave and beam flows. The substitution
mu = 2 sin(-theta/2) removes the inverse square-root singularity of the
jump at the upper band edge. The bulk in theta reaches down to mu = 1e-9,
with its last panel graded geometrically where a weak potential's sandwich
turns over near the lower edge, and a narrow strip at the upper edge is
integrated in the locally analytic w = sqrt(2 - mu). Panels are sized by the budget rule of the
quadrature module: the phase and the wave exponents advance by at most a
budget per panel, so cost scales linearly in |t| and inversely in the
budget. stone_kernel_slice picks the budget itself, halving it from 16
until two successive passes on different nodes agree to the requested
tolerance, and reports the accepted budget, its node count and that
half-budget error estimate. It takes one time or a series of them: each
pass then builds one node set for the largest |t|, which meets the budget
at every smaller |t|, shares its kernel tables and sandwich solves among
all times, and accepts each time on its own, so a series costs about as
much as its largest time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.fft import fft

from .lattice import SPEED_BOUND, PotentialSpec
from .quadrature import edges_from_budget, gauss_panels
from .resolvent import _band_rates, boundary_kernel_plus
from .spectral import (
    BirmanSchwingerSystem,
    SingularSandwichError,
    bound_states,
    decompose_potential,
    eigensystem,
    m_matrix_grid,
    regular_point_check,
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
    "kernel_spectral",
    "pac_split",
    "fft_ring_band",
    "free_kernel_fft",
    "free_kernel_full",
    "ring_size",
    "ring_weight",
    "stone_kernel_slice",
]

# Complex weight of each flow at time t as a function of the H-energy E. The
# half-wave and beam flows use sqrt(E), which np.emath.sqrt makes complex
# (on the positive imaginary axis) only where E < 0.
FLOWS = {
    "schrodinger": lambda t, E: np.exp(-1j * t * E),
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

# Margin factor on the causal range c |t|, for FFT rings (c the flow's group
# speed, see ring_size) and for dense truncation windows (c = SPEED_BOUND).
_RING_SAFETY = 1.2
_RING_MARGIN = 64
_EDGE_CUTOFF = 1e-4
_INNER_CUTOFF = 1e-9
# Stone budget ladder: phase advance per 15-point Gauss panel. On single-site
# slices at t = 10..200, budget 16 is within 2.1e-10 of the budget-0.25
# kernel at observe radius 8 or more, so they stop at 8; at radius 4 or less
# it misses 1e-8 by up to 3e-5 and they take one more step. 16 is the first,
# cheapest pass and 0.25 the finest.
_BUDGET_START = 16.0
_BUDGET_FLOOR = 0.25


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
    for dense diagonalisation of a truncation, "stone" for the band
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


def kernel_spectral(request: PropagatorRequest) -> KernelSlice:
    """Kernel entries of the requested flow on the observation window."""
    flow, operator, _ = _KIND_TABLE[request.kind]
    ev, vecs = eigensystem(request.V, request.window_radius, operator)
    n, r = request.window_radius, request.observe_radius
    rows = vecs[n - r : n + r + 1]
    return KernelSlice(request.t, r, (rows * FLOWS[flow](request.t, ev)) @ rows.T, "spectral")


class PacSplit:
    """Splitting of the flow exp(-i t H) into bound and continuous parts.

    kernel_ac is the dense kernel on the window minus the part of the (E, psi)
    pairs of spectral.bound_states, so no window has to localise them.
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


def _five_smooth(n: int) -> int:
    """Smallest integer >= n with no prime factor above 5, n >= 1."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def ring_size(t: float, kind: str, kmax: int = 0) -> int:
    """Size of the FFT ring that carries the free kernel of a kind at time t.

    The ring is even, 5-smooth, of at least 256 points, and covers the
    separations up to 1.2 c |t| + kmax + 64 both ways, so wraparound sits
    at the far-field noise floor. c is the flow's largest group speed:
    SPEED_BOUND = 6 sqrt(3) where the phase is t b^2 (the fourth-difference
    Schrodinger flow), 2 where it is t b (the second-difference flow, and
    the beam flows, whose sqrt(E) is the symbol b = 4 sin^2(x/2) itself).
    """
    if kind not in _KIND_TABLE:
        raise ValueError(f"no free kernel for kind {kind!r}")
    flow, operator, _ = _KIND_TABLE[kind]
    speed = SPEED_BOUND if (flow, operator) == ("schrodinger", "bilap") else 2.0
    need = 2.0 * (_RING_SAFETY * speed * abs(t) + kmax + _RING_MARGIN)
    return 2 * _five_smooth(int(np.ceil(max(need, 256.0) / 2)))


def fft_ring_band(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Second-difference symbol 4 sin^2(x/2) on half of an FFT ring of even size.

    Returns (band, sine) at x = 2 pi j / size for j = 0..size/2, with
    sine[j] = sin(x/2) the half-angle sine the symbol is built from. Both
    are even on the ring, so index size - j carries the values of j.
    """
    sine = np.sin(np.pi * np.arange(size // 2 + 1) / size)
    return 4.0 * sine * sine, sine


def _half_ring_weight(t: float, kind: str, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Flow weight of a kind on the half ring of ring_size, with its half-angle sine."""
    size = ring_size(t, kind, kmax)
    flow, operator, _ = _KIND_TABLE[kind]
    band, sine = fft_ring_band(size)
    # the fourth-difference energy b^2 overwrites the symbol it squares
    energy = band if operator == "lap" else np.square(band, out=band)
    return FLOWS[flow](t, energy), sine


def ring_weight(t: float, kind: str, kmax: int = 0) -> np.ndarray:
    """Flow weight of a kind over the full FFT ring of ring_size.

    The weight is evaluated on the half ring only and mirrored, so index
    j and size - j carry the same value. The full ring is for data that
    need not be even; an even kernel needs only free_kernel_full.
    """
    half, _ = _half_ring_weight(t, kind, kmax)
    full = np.empty(2 * half.size - 2, dtype=half.dtype)
    full[: half.size] = half
    full[half.size :] = half[-2:0:-1]
    return full


def free_kernel_full(t: float, kind: str, kmax: int = 0) -> np.ndarray:
    """Free kernel at separations 0..size/2 of a ring covering the causal range of t.

    The kernel is even, so these separations hold the whole ring. Its
    inverse transform of the even weight h_0..h_M (M = size/2) is a DCT-I,
    computed with one complex FFT of length M (Makhoul 1980; Numerical
    Recipes, cosft1): Y = fft(y), y_j = (h_j + h_{M-j})/2 - sin(pi j/M)
    (h_j - h_{M-j}). The even separations are K_{2p} = (Y_p + Y_{-p})/size,
    the odd ones K_{2p+1} = K_{2p-1} + i (Y_p - Y_{-p})/size from
    K_1 = (2/size) [(h_0 - h_M)/2 + sum_{0<j<M} h_j cos(pi j/M)]. Both
    trigonometric factors come from the half-angle sines s_j of
    fft_ring_band: sin(pi j/M) = 2 s_j s_{M-j}, cos(pi j/M) = 1 - 2 s_j^2.
    Two real irffts of length size, or scipy.fft.dct(h, type=1)/size, give
    the same kernel but hold full-length real arrays: on the free benchmark
    they peak at 166 and 212 MB against 99 MB here, and run slower.
    Useful for suprema over the whole causal range.
    """
    h, sine = _half_ring_weight(t, kind, kmax)
    M = h.size - 1
    size = 2 * M
    # size * K_1, read before y overwrites h; cos(pi j/M) stays a real factor
    cos = sine[1:M] ** 2
    cos *= -2.0
    cos += 1.0
    k1 = h[0] - h[M] + 2.0 * (cos @ h[1:M].real + 1j * (cos @ h[1:M].imag))
    del cos
    # y in place of h, over the pairs (j, M - j), j = 1..M//2: with
    # a = (h_j + h_{M-j})/2 and b = sin(pi j/M)(h_j - h_{M-j}), y_j = a - b
    # and y_{M-j} = a + b; at j = M/2 both are one entry and b = 0
    m = M // 2
    lo, hi = h[1 : m + 1], h[M - 1 : M - m - 1 : -1]
    b = lo - hi
    b *= 2.0 * sine[1 : m + 1] * sine[M - 1 : M - m - 1 : -1]
    a = lo + hi
    a *= 0.5
    np.subtract(a, b, out=lo)
    np.add(a, b, out=hi)
    del a, b, sine
    h[0] = 0.5 * (h[0] + h[M])
    y = h[:M]
    fft(y, out=y)
    # Y_{-p} is y[M - p]; the odd separations accumulate from K_1
    even, odd = M // 2 + 1, (M + 1) // 2
    kernel = np.empty(M + 1, dtype=complex)
    kernel[0], kernel[1] = 2.0 * y[0], k1
    np.add(y[1:even], y[M - 1 : M - even : -1], out=kernel[2::2])
    np.subtract(y[1:odd], y[M - 1 : M - odd : -1], out=kernel[3::2])
    kernel[3::2] *= 1j
    np.cumsum(kernel[1::2], out=kernel[1::2])
    kernel /= size
    return kernel


def free_kernel_fft(t: float, kind: str, kmax: int) -> np.ndarray:
    """Free kernel values at separations 0..kmax (even in the separation)."""
    return free_kernel_full(t, kind, kmax=kmax)[: kmax + 1]


def _bulk_end(regular: dict) -> float:
    """Lowest mu of the Stone bulk: _INNER_CUTOFF, or _EDGE_CUTOFF at a non-regular zero edge."""
    return _INNER_CUTOFF if regular["zero"] else _EDGE_CUTOFF


def _stone_nodes(
    t: float, phase_power: int, reach: float, budget: float, regular: dict, knee: float
):
    """Quadrature nodes, weights and stable 1 - mu^2/4 values over (0, 2).

    Two pieces. The bulk is in the angle theta with mu = 2 sin(-theta/2),
    whose Jacobian cos(theta/2) cancels the jump's singularity at mu = 2.
    It runs from mu = 2 - _EDGE_CUTOFF down to _INNER_CUTOFF; the integrand
    is smooth in theta at the lower edge, so no strip is needed there. The
    strip at the upper edge is in w = sqrt(2 - mu), where the jump is
    locally analytic, from w = sqrt(_EDGE_CUTOFF) down to _INNER_CUTOFF.
    regular maps "zero" and "sixteen" to the edge verdicts. A non-regular
    edge truncates the band integral at _EDGE_CUTOFF from it: the bulk stops
    at mu = _EDGE_CUTOFF, or the strip is dropped. reach bounds the site
    separations that multiply the oscillatory and evanescent exponents in
    the budget. knee is the mu below which the sandwich's mu^-3 term
    outgrows its identity part (0 for no potential). A weak potential puts
    its knee deep inside the bulk's last panel, which cannot resolve the
    turn; that panel is then halved geometrically in mu down to knee / 16.
    """
    # sign does not move an edge: only the |variation| of each cost row counts
    def cost(mu, phase):
        return np.stack([t * mu**phase_power, reach * phase, reach * _band_rates(mu)[1]])

    # bulk, in theta = -phase; the ends invert the node map mu = 2 sin(-theta/2)
    lo = _bulk_end(regular)
    th_lo, th_hi = -2.0 * np.arcsin(np.array([2.0 - _EDGE_CUTOFF, lo]) / 2.0)
    edges = edges_from_budget(
        th_lo, th_hi, lambda th: cost(2.0 * np.sin(-th / 2.0), th), budget=budget, min_panels=8
    )
    last = 2.0 * np.sin(-edges[-2] / 2.0)
    if 0.0 < knee < last / 4.0:
        # below knee / 16 the sandwich is smooth on the scale of the panel
        halvings = int(np.ceil(np.log2(last / max(knee / 16.0, lo))))
        graded = -2.0 * np.arcsin(last * 0.5 ** np.arange(1, halvings) / 2.0)
        edges = np.concatenate([edges[:-1], graded, edges[-1:]])
    th, w = gauss_panels(edges)
    pieces = [(2.0 * np.sin(-th / 2.0), w * np.cos(th / 2.0), np.cos(th / 2.0) ** 2)]

    if regular["sixteen"]:
        # upper strip, in w = sqrt(2 - mu); 1 - mu^2/4 = w^2 (4 - w^2) / 4
        def hi_cost(wv):
            mu = 2.0 - wv * wv
            return cost(mu, _band_rates(mu)[0])

        edges = edges_from_budget(
            _INNER_CUTOFF, np.sqrt(_EDGE_CUTOFF), hi_cost, budget=budget, min_panels=4
        )
        wv, w = gauss_panels(edges)
        pieces.append((2.0 - wv * wv, 2.0 * wv * w, wv * wv * (4.0 - wv * wv) / 4.0))

    return tuple(np.concatenate(p) for p in zip(*pieces))


def _stone_assemble(
    times: np.ndarray,
    sys: Optional[BirmanSchwingerSystem],
    targets: np.ndarray,
    phase: str,
    regular: dict,
    budget: float,
    horizon: Optional[float] = None,
):
    """Band-quadrature kernels at all target pairs, shape (len(times), S, S), and node count.

    sys is the decomposed potential (None for the free flow) and regular
    the edge verdicts that _stone_nodes reads. One node set serves every
    time: it is sized for horizon (default max |times|), and a budget met
    at that |t| is met at every smaller one, since the phase t mu^p varies
    less. The kernel tables, the sandwich solves and the gather of z are
    shared; only the flow weights differ between times. The correction at
    (n, m) depends on the targets only through their distances to the
    support sites, so z, the solved sides and the correction GEMM run over
    the distinct rows of |n - site| (the distances 0..r for one site at the
    centre) and are gathered back onto the targets.
    """
    count = times.size
    if horizon is None:
        horizon = float(np.abs(times).max())
    sep_free = np.abs(targets[:, None] - targets[None, :])
    free_reach = int(sep_free.max())
    reach = free_reach
    if sys is not None:
        dist, cls = np.unique(
            np.abs(targets[:, None] - sys.sites[None, :]), axis=0, return_inverse=True
        )
        cls, classes = cls.ravel(), len(dist)
        reach = max(reach, int(dist.max()))
        corr = np.zeros((2 * count * classes, classes), dtype=complex)

    # the phase advances like E = mu^4 for the Schrodinger flow and like
    # sqrt(E) = mu^2 for the half-wave and beam flows
    phase_power = 4 if phase == "schrodinger" else 2
    # v K_-3 v mu^-3 has norm |V|_1 / sqrt(8) mu^-3: K_-3 = (i - 1)/4 at every separation
    knee = (np.sum(sys.v**2) / np.sqrt(8.0)) ** (1.0 / 3.0) if sys is not None else 0.0
    mu, wts, omq = _stone_nodes(horizon, phase_power, reach + 2.0, budget, regular, knee)
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
        phw = FLOWS[phase](times[:, None], mus**4) * mus**3 * ws
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
    FLOWS. Each band edge of V is checked once for the whole series; a
    non-regular one warns and truncates the band integral near it (see
    _stone_nodes) in every pass. A sandwich with an entry past the float
    range at the bulk's lower end, where it is largest, is refused with
    SingularSandwichError before any pass runs. The quadrature runs at
    budget 16 and then at half the budget; each pass builds one node set,
    sized for the largest |t|, and evaluates every time not yet accepted on
    it. A time is accepted at the first pass that has more nodes than the
    one before and differs from it by at most tol in every entry of that
    time; the finer pass is returned with that difference as its error
    estimate, and later passes leave it alone. Two passes on the same nodes
    agree exactly and prove nothing, so such a step halves again. The
    ladder stops once every time is accepted, or at budget 0.25, where each
    time whose estimate still misses tol warns.
    """
    if phase not in FLOWS:
        raise ValueError(f"phase must be one of {tuple(FLOWS)}")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or times.size == 0:
        raise ValueError("t must be a float or a non-empty 1-d sequence of times")
    series = np.atleast_1d(times)
    # each edge is decided once per call, so each non-regular edge warns once
    sys = decompose_potential(V) if V is not None else None
    regular = {
        threshold: sys is None or regular_point_check(sys, threshold).is_regular
        for threshold in ("zero", "sixteen")
    }
    for threshold, ok in regular.items():
        if not ok:
            warnings.warn(
                f"threshold {threshold!r} not regular; band integral "
                f"truncated at distance {_EDGE_CUTOFF:.1e} from that edge",
                stacklevel=2,
            )
    if sys is not None:
        # whether M stays in the float range must not depend on where a pass
        # puts its nodes; its mu^-3 term is largest at the bulk's lower end,
        # below every node of every pass
        low = _bulk_end(regular)
        if not np.isfinite(m_matrix_grid(np.array([low]), sys)).all():
            raise SingularSandwichError(
                "sandwich matrix numerically singular at energy "
                f"mu^4 = {low**4:.6g}: entries past the float range"
            )
    targets = np.arange(-observe_radius, observe_radius + 1)
    horizon = float(np.abs(series).max())
    slices = [None] * series.size
    pending = np.arange(series.size)
    budget = _BUDGET_START
    coarse, coarse_nodes = _stone_assemble(
        series, sys, targets, phase, regular, budget, horizon=horizon
    )
    while pending.size:
        budget /= 2.0
        fine, nodes = _stone_assemble(
            series[pending], sys, targets, phase, regular, budget, horizon=horizon
        )
        errs = np.abs(fine - coarse).max(axis=(1, 2))
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
