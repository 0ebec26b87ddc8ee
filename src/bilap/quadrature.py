"""Stationary phase analysis and budgeted quadrature of oscillatory integrals.

The phases handled here are x -> (2 -+ 2 cos x)^2 - s x on subintervals of
[-pi, 0], the phases that arise when lattice propagator kernels are written
as band integrals and the site separation is scaled against time. Roots of
the phase derivative are isolated by monotonicity splitting, classified by
order, and fed into a panel quadrature whose panel sizes are chosen so the
phase advances by at most a fixed budget per panel; Gauss nodes then resolve
each panel to near machine precision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PhaseSpec",
    "StationaryPoint",
    "phase_derivatives",
    "stationary_points",
    "decay_order_prediction",
    "oscillatory_integral",
    "cost_variation",
    "edges_from_budget",
    "gauss_panels",
    "gauss_rule",
]

_DERIVATIVE_FLOOR = 1e-8
_ROOT_RESIDUAL = 1e-10
# Grid points on which cost_variation accumulates the cost variation.
_EDGE_SCAN = 8193


@dataclass(frozen=True)
class PhaseSpec:
    """Phase (2 -+ 2 cos x)^2 - s x on an interval inside [-pi, 0].

    branch "minus_cos" takes 2 - 2 cos x (symbol vanishing at x = 0),
    "plus_cos" takes 2 + 2 cos x (vanishing at x = -pi). s is the scaled
    site separation.
    """

    branch: str
    s: float
    interval: Tuple[float, float] = (-np.pi, 0.0)

    def __post_init__(self):
        if self.branch not in ("minus_cos", "plus_cos"):
            raise ValueError(f"unknown branch {self.branch!r}")
        if not np.isfinite(self.s):
            raise ValueError("s must be finite")
        a, b = float(self.interval[0]), float(self.interval[1])
        if not (-np.pi - 1e-12 <= a < b <= 1e-12):
            raise ValueError(f"interval must be inside [-pi, 0], got {self.interval}")
        object.__setattr__(self, "interval", (a, b))


@dataclass(frozen=True)
class StationaryPoint:
    """Root of the phase derivative with its order and leading derivative.

    order k >= 2 means derivatives 1..k-1 vanish at x while the k-th does
    not; derivative_value holds that k-th derivative.
    """

    x: float
    order: int
    derivative_value: float


def phase_derivatives(spec: PhaseSpec, x, up_to: int = 4) -> list:
    """Phase value and derivatives [Phi, Phi', ..., Phi^(up_to)] at x.

    Stationary points of this phase have order at most four, so orders
    above four are never needed and up_to is capped there.
    """
    if not 0 <= up_to <= 4:
        raise ValueError("up_to must lie in 0..4")
    xa = np.asarray(x, dtype=float)
    c, sx = np.cos(xa), np.sin(xa)
    s = spec.s
    if spec.branch == "minus_cos":
        vals = [
            (2.0 - 2.0 * c) ** 2 - s * xa,
            8.0 * (1.0 - c) * sx - s,
            8.0 * (1.0 - c) * (1.0 + 2.0 * c),
            8.0 * sx * (4.0 * c - 1.0),
            8.0 * (8.0 * c * c - c - 4.0),
        ]
    else:
        vals = [
            (2.0 + 2.0 * c) ** 2 - s * xa,
            -8.0 * (1.0 + c) * sx - s,
            -8.0 * (1.0 + c) * (2.0 * c - 1.0),
            8.0 * sx * (4.0 * c + 1.0),
            8.0 * (8.0 * c * c + c - 4.0),
        ]
    out = vals[: up_to + 1]
    if np.ndim(x) == 0:
        return [float(v) for v in out]
    return out


def _phase_slope(spec: PhaseSpec, x):
    return phase_derivatives(spec, x, up_to=1)[1]


def _monotone_breakpoints(spec: PhaseSpec) -> List[float]:
    """Interior zeros of the second derivative, where the slope turns."""
    if spec.branch == "minus_cos":
        crit = [-2.0 * np.pi / 3.0]  # cos = -1/2; the cos = 1 zero sits at x = 0
    else:
        crit = [-np.pi / 3.0]  # cos = 1/2; the cos = -1 zero sits at x = -pi
    a, b = spec.interval
    return [x for x in crit if a < x < b]


def _bisect(spec: PhaseSpec, lo: float, hi: float, flo: float) -> float:
    """Root of the slope on [lo, hi], where it changes sign, to adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fmid = _phase_slope(spec, mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid


def stationary_points(spec: PhaseSpec) -> List[StationaryPoint]:
    """All roots of the phase derivative on the interval, with orders.

    The breakpoints where the slope changes direction are known in closed
    form, so each monotone piece is bisected independently; roots landing
    exactly on a breakpoint (tangencies) are picked up by direct
    evaluation. Each returned root satisfies |Phi'| <= 1e-10.
    """
    a, b = spec.interval
    knots = [a] + _monotone_breakpoints(spec) + [b]
    roots: List[float] = []

    def push(x: float):
        if not any(abs(x - r) <= 1e-9 for r in roots):
            roots.append(x)

    for lo, hi in zip(knots[:-1], knots[1:]):
        flo, fhi = _phase_slope(spec, lo), _phase_slope(spec, hi)
        if abs(flo) <= _ROOT_RESIDUAL:
            push(lo)
        if abs(fhi) <= _ROOT_RESIDUAL:
            push(hi)
        if flo * fhi < 0.0 and abs(flo) > _ROOT_RESIDUAL and abs(fhi) > _ROOT_RESIDUAL:
            push(_bisect(spec, lo, hi, flo))

    out: List[StationaryPoint] = []
    for x in sorted(roots):
        derivs = phase_derivatives(spec, x, up_to=4)
        order = next(
            (j for j in range(2, 5) if abs(derivs[j]) > _DERIVATIVE_FLOOR), None
        )
        if order is None:
            raise RuntimeError(f"degenerate stationary point at x = {x}")
        out.append(StationaryPoint(x=x, order=order, derivative_value=derivs[order]))
    return out


def decay_order_prediction(spec: PhaseSpec) -> Fraction:
    """Predicted time decay exponent 1/k from the worst stationary order k.

    Without stationary points the phase is non-degenerate and k = 1.
    """
    pts = stationary_points(spec)
    k = max((p.order for p in pts), default=1)
    return Fraction(1, k)


def cost_variation(lo: float, hi: float, cost: Callable[[np.ndarray], np.ndarray]):
    """Scan points on [lo, hi] and the summed absolute variation of cost up to each.

    cost maps an x grid to one cost function, or to a stack of them with
    shape (k, len(x)); the absolute variations of the stacked components
    are accumulated separately (no cancellation between components).
    """
    xs = np.linspace(lo, hi, _EDGE_SCAN)
    ys = np.atleast_2d(np.asarray(cost(xs)))
    return xs, np.concatenate([[0.0], np.cumsum(np.sum(np.abs(np.diff(ys, axis=-1)), axis=0))])


def edges_from_budget(
    lo: float, hi: float, cost, budget: float = 0.5, min_panels: int = 1
) -> np.ndarray:
    """Panel edges on [lo, hi] with bounded cost variation per panel.

    cost is a cost function as cost_variation takes it, or its scan
    cost_variation(lo, hi, cost), which a caller placing panels at several
    budgets computes once. The variation across each returned panel is at
    most budget, up to the scan resolution. The total panel count is at
    least min_panels.
    """
    xs, cum = cost_variation(lo, hi, cost) if callable(cost) else cost
    total = cum[-1]
    panels = max(int(np.ceil(total / budget)), min_panels)
    if total == 0.0:
        # flat cost carries no placement information; split uniformly
        return np.linspace(lo, hi, panels + 1)
    # strictly increasing interpolation abscissa, flat stretches collapse
    targets = np.linspace(0.0, total, panels + 1)
    edges = np.interp(targets, cum, xs)
    edges[0], edges[-1] = lo, hi
    # nondecreasing already; drop the repeats that flat stretches leave
    return edges[np.concatenate([[True], np.diff(edges) > 0])]


@lru_cache(maxsize=None)
def gauss_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of an order on [-1, 1], built once per order."""
    return np.polynomial.legendre.leggauss(order)


gauss_rule(15)  # at import, with numpy.polynomial (about 9 ms), not inside a run


def gauss_panels(edges: np.ndarray, order: int = 15) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of an order over consecutive panels, raveled."""
    gx, gw = gauss_rule(order)
    lo = edges[:-1]
    half = 0.5 * (edges[1:] - lo)
    mid = lo + half
    x = mid[:, None] + half[:, None] * gx[None, :]
    w = half[:, None] * gw[None, :]
    return x.ravel(), w.ravel()


def _quadrature_pass(
    spec: PhaseSpec,
    t: float,
    weight: Optional[Callable[[np.ndarray], np.ndarray]],
    budget: float,
) -> Tuple[complex, int]:
    a, b = spec.interval
    span = b - a

    def cost(xs):
        phase_part = t * phase_derivatives(spec, xs, up_to=0)[0]
        return np.stack([phase_part, (40.0 * budget / span) * xs])

    edges = edges_from_budget(a, b, cost, budget=budget)
    total = 0.0 + 0.0j
    chunk = 1 << 16
    for start in range(0, edges.size - 1, chunk):
        x, w = gauss_panels(edges[start : start + chunk + 1])
        phi = phase_derivatives(spec, x, up_to=0)[0]
        vals = np.exp(-1j * t * phi)
        if weight is not None:
            vals = vals * weight(x)
        total += np.sum(vals * w)
    return total, edges.size - 1


def oscillatory_integral(
    spec: PhaseSpec,
    t: float,
    weight: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tol: float = 1e-9,
    budget: float = 0.5,
    full_output: bool = False,
):
    """Integral of exp(-i t Phi_s(x)) weight(x) over the phase interval.

    Panels are sized so the phase advances by at most budget radians per
    panel (with a floor of roughly forty panels to resolve the weight), and
    each panel is integrated by a fifteen-point Gauss rule. A second pass
    with half the budget supplies the error estimate.

    Parameters
    ----------
    weight : callable, optional
        Vectorised amplitude; omitted means the constant 1.
    tol : float
        Absolute accuracy target. A miss triggers a warning and is exposed
        through full_output.
    full_output : bool
        When set, return (value, info) with the error estimate, panel
        count, convergence flag and stationary points.
    """
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    coarse, _ = _quadrature_pass(spec, t, weight, budget)
    fine, panels = _quadrature_pass(spec, t, weight, budget / 2.0)
    err = abs(fine - coarse)
    converged = err <= tol
    if not converged:
        warnings.warn(
            f"oscillatory integral reached error estimate {err:.3e} "
            f"above the requested tolerance {tol:.1e}",
            stacklevel=2,
        )
    if full_output:
        info = {
            "error_estimate": float(err),
            "panels": int(panels),
            "converged": bool(converged),
            "stationary_points": stationary_points(spec),
        }
        return fine, info
    return fine
