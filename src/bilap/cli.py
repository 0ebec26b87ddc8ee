"""Command line front end: reproducible experiment runs with file outputs.

Every command reads a JSON config, validates it against a per-command
schema before computing anything, and writes its results (CSV tables, a
JSON report carrying the claim under test, and a self-contained SVG plot
where a series is produced) into an output directory together with a run
manifest. Numeric text output uses seventeen significant digits so that
repeated runs with the same config and seed are byte-identical; the
manifest, which records wall time, is the one file exempt from that
guarantee. Exit status is 0 on success, 1 when a pass/fail check bound to
an acceptance band fails, and 2 on config or usage errors.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import sys
import time
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

# every command draws a generator: load it with the package, not in the run
import numpy.random  # noqa: F401

from . import __version__
from .decay import (
    FIT_MIN_POINTS,
    DecaySeries,
    fit_decay_exponent,
    free_decay_series,
    knapp_experiment,
    log_time_grid,
    perturbed_decay_series,
    strichartz_norm,
)
from .expansion import geometric_grid, remainder_norms, remainder_order
from .lattice import LatticeVector, PotentialSpec
from .propagator import (
    FREE_KINDS,
    auto_window_radius,
    pac_split,
    ring_size,
    stone_kernel_slice,
)
from .quadrature import PhaseSpec, decay_order_prediction, stationary_points
from .resolvent import _eps_ladder, windowed_boundary_resolvent
from .spectral import (
    LocalizationError,
    SingularSandwichError,
    decompose_potential,
    discrete_eigs,
    embedded_eig_scan,
    min_localizing_radius,
    minv_expansion_probe,
    perturbed_resolvent_boundary,
    regular_point_check,
)

__all__ = ["main"]

# Read from the installed distribution's metadata: only resolvent-check
# imports scipy, and the manifest of every command records its version.
try:
    _SCIPY_VERSION = importlib.metadata.version("scipy")
except importlib.metadata.PackageNotFoundError:
    _SCIPY_VERSION = None


class ConfigError(Exception):
    """Raised when a config file fails schema validation."""


_REQUIRED = object()

_SIX_ROOT_THREE = 6.0 * np.sqrt(3.0)

_GENERIC_SMALL = {"support": [-1, 1], "values": [0.3, -0.2, 0.1]}
_MINV_DEFAULT = {"support": [-1, 2], "values": [0.8, -0.5, 0.0, 0.3]}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# config casters


def _as_float(lo=None, hi=None, lo_open=False, hi_open=False):
    def cast(v):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"expected a number, got {v!r}")
        x = float(v)
        if not np.isfinite(x):
            raise ValueError("must be finite")
        if lo is not None and (x <= lo if lo_open else x < lo):
            raise ValueError(f"must be {'>' if lo_open else '>='} {lo}")
        if hi is not None and (x >= hi if hi_open else x > hi):
            raise ValueError(f"must be {'<' if hi_open else '<='} {hi}")
        return x

    return cast


def _as_int(lo=None, hi=None):
    def cast(v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"expected an integer, got {v!r}")
        if lo is not None and v < lo:
            raise ValueError(f"must be >= {lo}")
        if hi is not None and v > hi:
            raise ValueError(f"must be <= {hi}")
        return int(v)

    return cast


def _as_choice(options):
    def cast(v):
        if v not in options:
            raise ValueError(f"must be one of {sorted(options)}, got {v!r}")
        return v

    return cast


def _as_bool(v):
    if not isinstance(v, bool):
        raise ValueError(f"expected true or false, got {v!r}")
    return v


def _as_str(v):
    if not isinstance(v, str) or not v:
        raise ValueError("expected a nonempty string")
    return v


def _as_range(lo=None, hi=None, lo_open=False, hi_open=False):
    """Pair [a, b] with a < b, both inside the bounds of _as_float."""
    item = _as_float(lo, hi, lo_open, hi_open)

    def cast(v):
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            raise ValueError("expected [lo, hi]")
        a, b = item(v[0]), item(v[1])
        if not a < b:
            raise ValueError("band bounds must have lo < hi")
        return (a, b)

    return cast


_as_band = _as_range()
# minv-probe grids hold edge distances in (0, 2); much closer to an edge
# than 1e-12 the distance^-3 growth of the sandwich entries defeats its
# inversion (a singular-matrix error at 1e-30)
_as_edge_grid = _as_range(lo=1e-12, hi=2.0, hi_open=True)


def _as_float_list(lo=None, hi=None, min_len=1, lo_open=False, hi_open=False, distinct=False):
    item = _as_float(lo, hi, lo_open, hi_open)

    def cast(v):
        if not isinstance(v, (list, tuple)) or len(v) < min_len:
            raise ValueError(f"expected a list of at least {min_len} number(s)")
        vals = [item(x) for x in v]
        if distinct and len(set(vals)) < len(vals):
            raise ValueError(f"expected distinct numbers, got {vals!r}")
        return vals

    return cast


def _as_int_list(lo=None, min_len=1):
    item = _as_int(lo)

    def cast(v):
        if not isinstance(v, (list, tuple)) or len(v) < min_len:
            raise ValueError(f"expected a list of at least {min_len} integer(s)")
        return [item(x) for x in v]

    return cast


# Sites are int64 lattice indices; the bound keeps every separation
# between two of them representable.
_SITE_BOUND = 2**62


def _potential_entry(name, cast, value):
    try:
        return cast(value)
    except ValueError as exc:
        raise ValueError(f"potential {name!r}: {exc}") from exc


def _as_potential(v):
    """Potential object: {"delta": c, "site": s}, or support/values."""
    if not isinstance(v, dict):
        raise ValueError(f"expected an object describing a potential, got {v!r}")
    site = _as_int(lo=-_SITE_BOUND, hi=_SITE_BOUND)
    if "delta" in v:
        extra = set(v) - {"delta", "site"}
        if extra:
            raise ValueError(f"unknown potential field(s) {sorted(extra)}")
        return PotentialSpec.delta(
            _potential_entry("delta", _as_float(), v["delta"]),
            _potential_entry("site", site, v.get("site", 0)),
        )
    extra = set(v) - {"support", "values"}
    if extra:
        raise ValueError(f"unknown potential field(s) {sorted(extra)}")
    if "support" not in v or "values" not in v:
        raise ValueError("a potential needs 'delta', or 'support' and 'values'")
    support = v["support"]
    if not isinstance(support, (list, tuple)) or len(support) != 2:
        raise ValueError("potential 'support' must be [lo, hi]")
    return PotentialSpec(
        tuple(_potential_entry("support", site, x) for x in support),
        _potential_entry("values", _as_float_list(), v["values"]),
    )


def _as_potential_list(v):
    if not isinstance(v, (list, tuple)) or not v:
        raise ValueError("expected a nonempty list of potentials")
    return [None if x is None else _as_potential(x) for x in v]


def _potential_label(V) -> str:
    if V is None:
        return "free"
    lo, hi = V.support
    vals = ";".join(_fmt(x) for x in V.values)
    return f"[{lo},{hi}]:{vals}"


# ---------------------------------------------------------------------------
# deterministic writers


def _dump_json(obj, level=0) -> str:
    pad, pad_in = "  " * level, "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return _fmt(x) if np.isfinite(x) else json.dumps(_fmt(x))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_dump_json(x, level + 1) for x in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{pad_in}{json.dumps(str(k))}: {_dump_json(obj[k], level + 1)}"
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialise {type(obj)!r}")


def write_json(path: Path, obj) -> None:
    path.write_text(_dump_json(obj) + "\n")


def write_csv(path: Path, header, rows) -> None:
    def cell(x):
        if isinstance(x, str):
            return x
        if isinstance(x, (bool, int, np.integer)):
            return str(int(x))
        return _fmt(x)

    lines = [",".join(header)]
    lines.extend(",".join(cell(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def render_loglog_svg(curves, xlabel, ylabel, title, annotations=()) -> str:
    """Self-contained log-log SVG plot of one or more positive series."""
    if not curves:
        raise ConfigError("no series to plot")
    for c in curves:
        xs, ys = np.asarray(c["x"], float), np.asarray(c["y"], float)
        if xs.size == 0 or ys.size == 0:
            raise ConfigError(f"series {c.get('label', '?')!r} is empty")
        if np.any(xs <= 0) or np.any(ys <= 0):
            raise ConfigError("log-log plot needs strictly positive data")
    width, height = 720, 540
    ml, mr, mt, mb = 84, 24, 48, 60
    lx = np.concatenate([np.log10(np.asarray(c["x"], float)) for c in curves])
    ly = np.concatenate([np.log10(np.asarray(c["y"], float)) for c in curves])
    x0, x1 = float(lx.min()), float(lx.max())
    y0, y1 = float(ly.min()), float(ly.max())
    if x1 - x0 < 1e-9:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-9:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx, pady = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def sx(v):
        return ml + (np.log10(v) - x0) / (x1 - x0) * (width - ml - mr)

    def sy(v):
        return height - mb - (np.log10(v) - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" font-family="monospace" '
        f'font-size="15" text-anchor="middle">{title}</text>',
    ]
    axis = (
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" '
        f'height="{height - mt - mb}" fill="none" stroke="#444"/>'
    )
    parts.append(axis)
    for k in range(int(np.ceil(x0)), int(np.floor(x1)) + 1):
        gx = sx(10.0**k)
        parts.append(
            f'<line x1="{gx:.2f}" y1="{mt}" x2="{gx:.2f}" '
            f'y2="{height - mb}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{gx:.2f}" y="{height - mb + 18}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">1e{k}</text>'
        )
    for k in range(int(np.ceil(y0)), int(np.floor(y1)) + 1):
        gy = sy(10.0**k)
        parts.append(
            f'<line x1="{ml}" y1="{gy:.2f}" x2="{width - mr}" '
            f'y2="{gy:.2f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{gy + 4:.2f}" font-family="monospace" '
            f'font-size="12" text-anchor="end">1e{k}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 16}" '
        f'font-family="monospace" font-size="13" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{(mt + height - mb) / 2:.1f}" font-family="monospace" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 20 {(mt + height - mb) / 2:.1f})">{ylabel}</text>'
    )
    for i, c in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(c["x"], c["y"])
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )
        ly_leg = mt + 18 + 16 * i
        parts.append(
            f'<line x1="{width - mr - 180}" y1="{ly_leg}" '
            f'x2="{width - mr - 150}" y2="{ly_leg}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - mr - 144}" y="{ly_leg + 4}" '
            f'font-family="monospace" font-size="12">{c["label"]}</text>'
        )
    for i, note in enumerate(annotations):
        parts.append(
            f'<text x="{ml + 10}" y="{mt + 18 + 16 * i}" '
            f'font-family="monospace" font-size="12">{note}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_plot(path: Path, curves, xlabel, ylabel, title, annotations=()) -> None:
    path.write_text(render_loglog_svg(curves, xlabel, ylabel, title, annotations))


# ---------------------------------------------------------------------------
# command runners; each returns (exit_code, report dict, outputs list)


_FREE_BANDS = {
    "schrodinger_free_bilap": (0.23, 0.27),
    "schrodinger_free_lap": (0.31, 0.36),
}

_FREE_CLAIMS = {
    "schrodinger_free_bilap": (
        "the free fourth-difference flow on the integer lattice disperses "
        "in sup norm at the rate t^(-1/4)"
    ),
    "schrodinger_free_lap": (
        "the free second-difference flow on the integer lattice disperses "
        "in sup norm at the rate t^(-1/3)"
    ),
}


class _DecaySource(NamedTuple):
    """A decay command's series with its band, report fields and labels."""

    series: DecaySeries
    band: tuple
    label: str
    fields: dict
    claim: str
    title: str


def _free_source(cfg, times) -> _DecaySource:
    kind = cfg["kind"]
    band = cfg["band"] if cfg["band"] is not None else _FREE_BANDS[kind]
    fields = {"kind": kind, "ring_sizes": [ring_size(t, kind) for t in times]}
    return _DecaySource(
        free_decay_series(kind, times), band, kind, fields,
        _FREE_CLAIMS[kind], f"free decay, {kind}",
    )


def _perturbed_source(cfg, times) -> _DecaySource:
    V = cfg["potential"]
    series = perturbed_decay_series(V, times, observe_radius=cfg["observe_radius"])
    fields = {
        "potential": _potential_label(V),
        "observe_radius": cfg["observe_radius"],
        "stone_budgets": list(series.budgets),
        "stone_max_error_estimate": float(series.error_estimates.max()),
        "sup_sites": series.sup_sites.tolist(),
        "sup_at_window_edge": bool(
            (np.abs(series.sup_sites).max(axis=1) == cfg["observe_radius"]).any()
        ),
    }
    claim = (
        "for a small potential keeping both band edges regular, the "
        "continuous part of the perturbed fourth-difference flow keeps "
        "the free sup-norm decay rate t^(-1/4) on a fixed window"
    )
    return _DecaySource(
        series, cfg["band"], "perturbed", fields, claim,
        "perturbed decay (continuous part)",
    )


def _write_decay(outdir, named_series, report, title, notes):
    """Write (csv name, label, series) triples, fit.json and decay.svg."""
    curves = []
    for name, label, series in named_series:
        write_csv(outdir / name, ["t", "sup_norm"], zip(series.times, series.sup_norms))
        curves.append({"label": label, "x": series.times, "y": series.sup_norms})
    write_json(outdir / "fit.json", report)
    write_plot(
        outdir / "decay.svg",
        curves,
        "t",
        "sup norm",
        title,
        notes,
    )
    return [name for name, _, _ in named_series] + ["fit.json", "decay.svg"]


def _fitted_decay(source):
    """Runner fitting the decay exponent of one source's series against its band."""

    def run(cfg, outdir, rng):
        times = log_time_grid(cfg["t_min"], cfg["t_max"], cfg["per_decade"])
        src = source(cfg, times)
        fit = fit_decay_exponent(src.series)
        ok = src.band[0] <= fit.alpha <= src.band[1]
        report = {
            **src.fields,
            "alpha": fit.alpha,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "window": list(fit.window),
            "band": list(src.band),
            "band_pass": ok,
            "paper_claim": src.claim,
        }
        outputs = _write_decay(
            outdir, [("series.csv", src.label, src.series)], report, src.title,
            [f"fitted slope {-fit.alpha:+.4f}"],
        )
        return (0 if ok else 1), report, outputs

    return run


_SINC_RATE = 0.5


def _run_beam_decay(cfg, outdir, rng):
    times = log_time_grid(cfg["t_min"], cfg["t_max"], cfg["per_decade"])
    cos_series = free_decay_series("beam_cos", times)
    sinc_series = free_decay_series("beam_sinc", times)
    sum_series = DecaySeries(
        times, cos_series.sup_norms + sinc_series.sup_norms, "free:beam_sum"
    )
    fits = {
        "cos": fit_decay_exponent(cos_series),
        "sinc": fit_decay_exponent(sinc_series),
        "sum": fit_decay_exponent(sum_series),
    }
    band = cfg["band"]
    sinc_tol = (band[1] - band[0]) / 2.0
    # cos(t b) with b = 2 - 2 cos x is the real part of the second-difference
    # flow, sharp at t^(-1/3); the paper bounds the summed pair by that rate.
    pass_cos = band[0] <= fits["cos"].alpha <= band[1]
    pass_sum = fits["sum"].alpha >= band[0]
    # sin(t b)/(t b) is largest at n = 0, where b ~ x^2 gives
    # (2 pi t)^(-1/2) (1 + O(1/t)): within the paper's bound, at a sharper rate.
    pass_sinc = (
        fits["sinc"].alpha >= band[0]
        and abs(fits["sinc"].alpha - _SINC_RATE) <= sinc_tol
    )
    ok = pass_cos and pass_sinc and pass_sum
    report = {
        "alpha_cos": fits["cos"].alpha,
        "alpha_sinc": fits["sinc"].alpha,
        "alpha_sum": fits["sum"].alpha,
        "r_squared_cos": fits["cos"].r_squared,
        "r_squared_sinc": fits["sinc"].r_squared,
        "band": list(band),
        "sinc_rate": _SINC_RATE,
        "sinc_tolerance": sinc_tol,
        "pass_cos": pass_cos,
        "pass_sinc": pass_sinc,
        "pass_sum": pass_sum,
        "band_pass": ok,
        # both beam kinds move at group speed 2, so they share each ring
        "ring_sizes": [ring_size(t, "beam_cos") for t in times],
        "paper_claim": (
            "||cos(t sqrt(Delta^2))|| + ||sin(t sqrt(Delta^2))/(t sqrt(Delta^2))|| "
            "<~ |t|^(-1/3) from l^1 to l^infinity: the summed pair decays at "
            "least at the rate t^(-1/3), the cos kernel at exactly that rate, "
            "and the sinc kernel, whose symbol vanishes quadratically at x = 0, "
            "at the sharper rate t^(-1/2)"
        ),
    }
    outputs = _write_decay(
        outdir,
        [
            ("beam_cos.csv", "beam_cos", cos_series),
            ("beam_sinc.csv", "beam_sinc", sinc_series),
        ],
        report,
        "free beam decay",
        [
            f"cos slope {-fits['cos'].alpha:+.4f}",
            f"sinc slope {-fits['sinc'].alpha:+.4f}",
            f"sum slope {-fits['sum'].alpha:+.4f}",
        ],
    )
    return (0 if ok else 1), report, outputs


def _run_resolvent_check(cfg, outdir, rng):
    mu_values = cfg["mu_values"]
    potentials = cfg["potentials"]
    points = [(float(mu_values[rng.integers(len(mu_values))]), int(rng.integers(-8, 9)),
               int(rng.integers(-8, 9))) for _ in range(cfg["points"])]
    # one oracle call per distinct mu holds every entry drawn at it
    oracle, runs = {}, []
    for mu in sorted({mu for mu, _, _ in points}):
        pairs = sorted({(n, m) for p, n, m in points if p == mu})
        values, run = windowed_boundary_resolvent(mu, pairs, potentials)
        runs.append(run)
        oracle.update(((mu, *pair), values[:, j].tolist()) for j, pair in enumerate(pairs))
    rows = []
    for mu, n, m in points:
        for V, value in zip(potentials, oracle[mu, n, m]):
            closed = perturbed_resolvent_boundary(mu, V, n, m)
            err = abs(closed - value) / max(abs(closed), 1e-300)
            rows.append(
                (mu, n, m, _potential_label(V), closed.real, closed.imag,
                 value.real, value.imag, err)
            )
    write_csv(
        outdir / "checks.csv",
        ["mu", "n", "m", "potential", "closed_re", "closed_im",
         "oracle_re", "oracle_im", "rel_err"],
        rows,
    )
    # np.max keeps a NaN error, which then fails the check
    max_err = float(np.max([row[-1] for row in rows]))
    ok = max_err <= cfg["tolerance"]
    report = {
        "points": cfg["points"],
        "potentials": [_potential_label(V) for V in potentials],
        "max_rel_err": max_err,
        "tolerance": cfg["tolerance"],
        "band_pass": ok,
        "oracle": runs,
        "paper_claim": (
            "the closed boundary kernels of the fourth-difference resolvent, "
            "free and potential-corrected, agree with direct inversion of "
            "regularised window truncations"
        ),
    }
    write_json(outdir / "report.json", report)
    return (0 if ok else 1), report, ["checks.csv", "report.json"]


_EXPANSION_CLAIM = (
    "subtracting the first terms of the edge expansion of the boundary "
    "resolvent leaves a remainder vanishing at the next non-vanishing power "
    "of the edge distance, in weighted operator norm: integer powers at the "
    "lower edge, half powers at the upper edge"
)


def _run_expansion_check(cfg, outdir, rng):
    cases = []
    if cfg["threshold"] in ("zero", "both"):
        cases.extend(("zero", n) for n in cfg["orders_zero"])
    if cfg["threshold"] in ("sixteen", "both"):
        cases.extend(("sixteen", n) for n in cfg["orders_sixteen"])
    results = []
    curves = []
    outputs = []
    all_ok = True
    for threshold, n_order in cases:
        lemma_min = 0.5 + n_order + (4 if threshold == "zero" else 2)
        s = lemma_min + cfg["s_margin"]
        grid, norms = remainder_norms(
            threshold, n_order, s, window_radius=cfg["window_radius"]
        )
        slope = float(np.polyfit(np.log(grid), np.log(norms), 1)[0])
        expected = remainder_order(threshold, n_order)
        tol = cfg["tol_zero"] if threshold == "zero" else cfg["tol_sixteen"]
        ok = abs(slope - expected) <= tol
        all_ok = all_ok and ok
        name = f"remainder_{threshold}_N{n_order}.csv"
        write_csv(outdir / name, ["mu", "norm_residual"], zip(grid, norms))
        outputs.append(name)
        curves.append({"label": f"{threshold} N={n_order}", "x": grid, "y": norms})
        results.append(
            {
                "threshold": threshold,
                "n_order": n_order,
                "weight_s": s,
                "slope": slope,
                "expected": expected,
                "tolerance": tol,
                "band_pass": ok,
            }
        )
    report = {
        "cases": results,
        "band_pass": all_ok,
        "paper_claim": _EXPANSION_CLAIM,
    }
    write_json(outdir / "report.json", report)
    write_plot(
        outdir / "remainders.svg",
        curves,
        "distance to edge",
        "weighted remainder norm",
        "edge expansion remainders",
        [f"{r['threshold']} N={r['n_order']}: slope {r['slope']:+.3f}" for r in results],
    )
    outputs.extend(["report.json", "remainders.svg"])
    return (0 if all_ok else 1), report, outputs


def _run_minv_probe(cfg, outdir, rng):
    V = cfg["potential"]
    sys_ = decompose_potential(V)
    outputs = []
    curves = []
    report = {"potential": _potential_label(V)}
    all_ok = True
    # both probes run before any file is written, so a refusal leaves none
    probes = {
        threshold: minv_expansion_probe(sys_, threshold, geometric_grid(*cfg[f"grid_{threshold}"]))
        for threshold in ("zero", "sixteen")
    }
    for threshold, probe in probes.items():
        min_slope = cfg[f"min_slope_{threshold}"]
        if probe.skipped:
            report[threshold] = {"skipped": True, "diagnostic": probe.diagnostic}
            all_ok = False
            continue
        name = f"minv_{threshold}.csv"
        write_csv(
            outdir / name,
            ["mu", "inverse_norm", "leakage_norm"],
            zip(probe.grid, probe.inverse_norms, probe.leakage_norms),
        )
        outputs.append(name)
        curves.append(
            {"label": f"{threshold} leakage", "x": probe.grid, "y": probe.leakage_norms}
        )
        ok = (
            probe.leakage_slope >= min_slope
            and probe.sup_inverse_norm <= cfg["bound_cap"]
        )
        all_ok = all_ok and ok
        report[threshold] = {
            "skipped": False,
            "leakage_slope": probe.leakage_slope,
            "min_slope": min_slope,
            "sup_inverse_norm": probe.sup_inverse_norm,
            "bound_cap": cfg["bound_cap"],
            "band_pass": ok,
        }
    report["band_pass"] = all_ok
    report["paper_claim"] = (
        "at regular band edges the inverse of the sandwich matrix stays "
        "bounded, and its component against the edge subspace vanishes "
        "linearly in the edge distance at the lower edge and like the "
        "square root of the distance at the upper edge"
    )
    write_json(outdir / "report.json", report)
    if curves:
        write_plot(
            outdir / "leakage.svg",
            curves,
            "distance to edge",
            "leakage norm",
            "sandwich inverse leakage",
            [
                f"{t}: slope {report[t]['leakage_slope']:+.4f}"
                for t in ("zero", "sixteen")
                if not report[t].get("skipped")
            ],
        )
        outputs.append("leakage.svg")
    outputs.append("report.json")
    return (0 if all_ok else 1), report, outputs


def _run_regular_check(cfg, outdir, rng):
    V = cfg["potential"]
    sys_ = decompose_potential(V)
    report = {"potential": _potential_label(V)}
    for threshold in ("zero", "sixteen"):
        rep = regular_point_check(sys_, threshold)
        report[threshold] = {
            "smallest_singular_value": rep.smallest_singular_value,
            "is_regular": rep.is_regular,
            "tolerance_used": rep.tolerance_used,
            "vacuous": not np.isfinite(rep.smallest_singular_value),
        }
    report["paper_claim"] = (
        "a band edge is regular when the limit operator of the sandwich "
        "matrix is invertible on the edge subspace; single-site potentials "
        "are vacuously regular at the lower edge"
    )
    write_json(outdir / "report.json", report)
    return 0, report, ["report.json"]


def _run_eig_scan(cfg, outdir, rng):
    V = cfg["potential"]
    found = discrete_eigs(V, cfg["discrete_window"])
    scan = embedded_eig_scan(V, cfg["window_radii"])
    write_csv(
        outdir / "discrete.csv",
        ["index", "eigenvalue"],
        [(i, lam) for i, (lam, _) in enumerate(found)],
    )
    report = {
        "potential": _potential_label(V),
        "discrete_window": cfg["discrete_window"],
        "discrete_eigenvalues": [lam for lam, _ in found],
        "embedded": {
            "window_radii": list(scan.window_radii),
            "stable_candidates": list(scan.stable_candidates),
            "verdict": scan.verdict,
        },
        "paper_claim": (
            "a finitely supported potential produces finitely many "
            "eigenvalues outside the band and, generically, none embedded "
            "inside it"
        ),
    }
    write_json(outdir / "report.json", report)
    return 0, report, ["discrete.csv", "report.json"]


def _run_stone_vs_spectral(cfg, outdir, rng):
    tol = cfg["tolerance"]
    obs = cfg["observe_radius"]
    rows = []
    combos = []
    bound = {}
    for V in cfg["potentials"]:
        window = auto_window_radius(max(cfg["times"]), obs)
        split = pac_split(V, window)
        bound[_potential_label(V)] = [E for E, _ in split.bound_states]
        slices = stone_kernel_slice(cfg["times"], V, obs, phase="schrodinger")
        for t, stone in zip(cfg["times"], slices):
            reference = split.kernel_ac(t, obs)
            err = float(np.abs(stone.entries - reference.entries).max())
            combos.append(
                {
                    "potential": _potential_label(V),
                    "t": t,
                    "max_abs_err": err,
                    "stone_budget": stone.budget,
                    "stone_nodes": stone.nodes,
                    "stone_error_estimate": stone.error_estimate,
                }
            )
            for _ in range(cfg["n_pairs"]):
                n = int(rng.integers(-obs, obs + 1))
                m = int(rng.integers(-obs, obs + 1))
                for label, slc in (("stone", stone), ("spectral", reference)):
                    val = slc.entry(n, m)
                    rows.append((t, n, m, val.real, val.imag, label))
    write_csv(outdir / "kernels.csv", ["t", "n", "m", "re", "im", "method"], rows)
    max_err = float(np.max([c["max_abs_err"] for c in combos]))
    ok = max_err <= tol
    report = {
        "tolerance": tol,
        "max_abs_err": max_err,
        "combos": combos,
        "bound_states": bound,
        "band_pass": ok,
        "paper_claim": (
            "the band quadrature of the resolvent jump reproduces the "
            "continuous part of the flow computed by dense diagonalisation"
        ),
    }
    write_json(outdir / "report.json", report)
    return (0 if ok else 1), report, ["kernels.csv", "report.json"]


def _certify_roots(s, pts):
    """Known root certificates at s = 0 and s = -6 sqrt(3), else None."""
    def match(x, order):
        return any(abs(p.x - x) <= 1e-10 and p.order == order for p in pts)

    if abs(s) <= 1e-12:
        checks = [
            match(-np.pi, 2),
            match(0.0, 4),
            len(pts) == 2,
        ]
        if checks[0]:
            p = min(pts, key=lambda p: abs(p.x + np.pi))
            checks.append(abs(p.derivative_value + 16.0) <= 1e-10)
        if checks[1]:
            p = min(pts, key=lambda p: abs(p.x))
            checks.append(abs(p.derivative_value - 24.0) <= 1e-10)
        return all(checks)
    if abs(s + _SIX_ROOT_THREE) <= 1e-12:
        return len(pts) == 1 and match(-2.0 * np.pi / 3.0, 3)
    return None


def _run_stationary_phase(cfg, outdir, rng):
    interval = tuple(cfg["interval"])
    entries = []
    all_ok = True
    for s in cfg["s_values"]:
        spec = PhaseSpec(cfg["branch"], s, interval)
        pts = stationary_points(spec)
        pred = decay_order_prediction(spec)
        certified = _certify_roots(s, pts) if cfg["certify"] else None
        if certified is False:
            all_ok = False
        entries.append(
            {
                "s": s,
                "roots": [
                    {
                        "x": p.x,
                        "order": p.order,
                        "derivative_value": p.derivative_value,
                    }
                    for p in pts
                ],
                "decay_order_prediction": f"{pred.numerator}/{pred.denominator}",
                "certified": certified,
            }
        )
    report = {
        "branch": cfg["branch"],
        "interval": list(interval),
        "results": entries,
        "band_pass": all_ok,
        "paper_claim": (
            "the kernel phase has two stationary points at zero separation "
            "speed, of orders two and four, and a single order-three point "
            "at the critical speed 6 sqrt(3), giving the t^(-1/4) and "
            "t^(-1/3) kernel envelopes"
        ),
    }
    write_json(outdir / "roots.json", report)
    return (0 if all_ok else 1), report, ["roots.json"]


def _run_strichartz(cfg, outdir, rng):
    r = np.inf if cfg["r"] == "inf" else float(cfg["r"])
    psi0 = LatticeVector.delta(1, 0)
    norms = [
        strichartz_norm(cfg["q"], r, T, psi0) for T in cfg["T_values"]
    ]
    write_csv(outdir / "norms.csv", ["T", "norm"], zip(cfg["T_values"], norms))
    lo, hi = min(norms), max(norms)
    # a horizon so short that the norm underflows to 0 has no finite spread
    spread = hi / lo - 1.0 if lo > 0 else np.inf
    if cfg["expect"] == "bounded":
        ok = spread <= cfg["ratio_tol"]
    else:
        ok = all(b > a * (1.0 + cfg["ratio_tol"]) for a, b in zip(norms, norms[1:]))
    report = {
        "q": cfg["q"],
        "r": "inf" if np.isinf(r) else r,
        "T_values": list(cfg["T_values"]),
        "norms": norms,
        "spread": spread,
        "expect": cfg["expect"],
        "band_pass": ok,
        "paper_claim": (
            "space-time norms of the free fourth-difference flow stay "
            "bounded in the horizon for exponent pairs satisfying the "
            "scaling relation 1/q >= 4 (1/2 - 1/r) capped at 1, and grow "
            "otherwise"
        ),
    }
    write_json(outdir / "report.json", report)
    return (0 if ok else 1), report, ["norms.csv", "report.json"]


def _run_knapp(cfg, outdir, rng):
    eps = np.asarray(cfg["epsilons"], dtype=float)
    pairs = [knapp_experiment(e, cfg["q"], cfg["r"]) for e in eps]
    lhs = np.array([p[0] for p in pairs])
    rhs = np.array([p[1] for p in pairs])
    write_csv(outdir / "pairs.csv", ["epsilon", "lhs", "rhs"], zip(eps, lhs, rhs))
    lhs_exp = float(np.polyfit(np.log(eps), np.log(lhs), 1)[0])
    rhs_exp = float(np.polyfit(np.log(eps), np.log(rhs), 1)[0])
    rhs_expected = 1.0 / cfg["r"] + 4.0 / cfg["q"]
    ok = abs(lhs_exp - 0.5) <= cfg["lhs_tol"] and abs(rhs_exp - rhs_expected) <= cfg["rhs_tol"]
    report = {
        "q": cfg["q"],
        "r": cfg["r"],
        "epsilons": list(eps),
        "lhs": list(lhs),
        "rhs": list(rhs),
        "lhs_exponent": lhs_exp,
        "lhs_expected": 0.5,
        "rhs_exponent": rhs_exp,
        "rhs_expected": rhs_expected,
        "band_pass": ok,
        "paper_claim": (
            "the frequency-cap example scales as eps^(1/2) on the datum "
            "side and eps^(1/r + 4/q) on the dual-norm side, so exponent "
            "pairs below the scaling line admit no uniform space-time bound"
        ),
    }
    write_json(outdir / "report.json", report)
    write_plot(
        outdir / "scaling.svg",
        [
            {"label": "lhs", "x": eps, "y": lhs},
            {"label": "rhs", "x": eps, "y": rhs},
        ],
        "epsilon",
        "value",
        "frequency-cap scaling",
        [f"lhs slope {lhs_exp:+.4f}", f"rhs slope {rhs_exp:+.4f}"],
    )
    return (0 if ok else 1), report, ["pairs.csv", "report.json", "scaling.svg"]


# ---------------------------------------------------------------------------
# schemas


def _schema_common():
    return {"output_dir": (_as_str, None)}


_COMMANDS = {
    "free-decay": (
        _fitted_decay(_free_source),
        {
            "kind": (_as_choice(FREE_KINDS), "schrodinger_free_bilap"),
            "t_min": (_as_float(lo=0, lo_open=True), 1e2),
            "t_max": (_as_float(lo=0, lo_open=True), 1e4),
            "per_decade": (_as_int(lo=4, hi=64), 16),
            "band": (_as_band, None),
        },
        "sup-norm decay of a free flow, fitted exponent against its band",
    ),
    "perturbed-decay": (
        _fitted_decay(_perturbed_source),
        {
            "potential": (_as_potential, {"delta": 0.5}),
            "t_min": (_as_float(lo=0, lo_open=True), 1e2),
            "t_max": (_as_float(lo=0, lo_open=True), 5e3),
            "per_decade": (_as_int(lo=4, hi=64), 6),
            "observe_radius": (_as_int(lo=1, hi=256), 32),
            "band": (_as_band, (0.22, 0.28)),
        },
        "windowed decay of the perturbed flow's continuous part",
    ),
    "beam-decay": (
        _run_beam_decay,
        {
            "t_min": (_as_float(lo=0, lo_open=True), 1e2),
            "t_max": (_as_float(lo=0, lo_open=True), 1e4),
            "per_decade": (_as_int(lo=4, hi=64), 16),
            "band": (_as_band, (0.30, 0.37)),
        },
        "sup-norm decay of the free beam kernels (cos and sinc)",
    ),
    "resolvent-check": (
        _run_resolvent_check,
        {
            "mu_values": (_as_float_list(lo=0, hi=2, lo_open=True, hi_open=True), [0.3, 0.7, 1.0, 1.4, 1.8]),
            "potentials": (_as_potential_list, [None, {"delta": 0.5}, _GENERIC_SMALL]),
            "points": (_as_int(lo=1, hi=1000), 25),
            "tolerance": (_as_float(lo=0, lo_open=True), 1e-6),
        },
        "closed boundary kernels against direct window inversion",
    ),
    "expansion-check": (
        _run_expansion_check,
        {
            "threshold": (_as_choice(("zero", "sixteen", "both")), "both"),
            "orders_zero": (_as_int_list(lo=-3), [0, 1, 2]),
            "orders_sixteen": (_as_int_list(lo=-1), [0, 1]),
            "window_radius": (_as_int(lo=64, hi=512), 64),
            "s_margin": (_as_float(lo=0.1, hi=4.0), 0.5),
            "tol_zero": (_as_float(lo=0, lo_open=True), 0.15),
            "tol_sixteen": (_as_float(lo=0, lo_open=True), 0.10),
        },
        "decay order of edge expansion remainders",
    ),
    "minv-probe": (
        _run_minv_probe,
        {
            "potential": (_as_potential, _MINV_DEFAULT),
            "grid_zero": (_as_edge_grid, (1e-3, 1e-1)),
            "grid_sixteen": (_as_edge_grid, (1e-8, 1e-5)),
            "min_slope_zero": (_as_float(), 0.85),
            "min_slope_sixteen": (_as_float(), 0.4),
            "bound_cap": (_as_float(lo=0, lo_open=True), 100.0),
        },
        "boundedness and leakage of the sandwich inverse at the edges",
    ),
    "regular-check": (
        _run_regular_check,
        {"potential": (_as_potential, {"delta": 0.5})},
        "threshold regularity report at both band edges",
    ),
    "eig-scan": (
        _run_eig_scan,
        {
            "potential": (_as_potential, {"delta": 0.5}),
            "discrete_window": (_as_int(lo=8, hi=4096), 512),
            "window_radii": (_as_int_list(lo=8, min_len=2), [128, 256, 384]),
        },
        "discrete spectrum and embedded-eigenvalue stability scan",
    ),
    "stone-vs-spectral": (
        _run_stone_vs_spectral,
        {
            "potentials": (_as_potential_list, [None, {"delta": 0.5}, _GENERIC_SMALL]),
            "times": (_as_float_list(lo=0, lo_open=True), [1.0, 5.0, 20.0]),
            "n_pairs": (_as_int(lo=1, hi=100), 5),
            "observe_radius": (_as_int(lo=1, hi=64), 10),
            "tolerance": (_as_float(lo=0, lo_open=True), 1e-5),
        },
        "band quadrature kernels against dense spectral kernels",
    ),
    "stationary-phase": (
        _run_stationary_phase,
        {
            "branch": (_as_choice(("minus_cos", "plus_cos")), "minus_cos"),
            "s_values": (_as_float_list(), [0.0, -_SIX_ROOT_THREE]),
            "interval": (_as_range(lo=-np.pi, hi=0.0), (-np.pi, 0.0)),
            "certify": (_as_bool, True),
        },
        "stationary points, orders and decay prediction of the kernel phase",
    ),
    "strichartz": (
        _run_strichartz,
        {
            "q": (_as_float(lo=1), 8.0),
            "r": ((lambda v: v if v == "inf" else _as_float(lo=1)(v)), 64.0),
            "T_values": (_as_float_list(lo=0, lo_open=True, min_len=2), [1e2, 1e3]),
            "ratio_tol": (_as_float(lo=0, lo_open=True), 0.1),
            "expect": (_as_choice(("bounded", "growth")), "bounded"),
        },
        "space-time norms of the free flow across horizons",
    ),
    "knapp": (
        _run_knapp,
        {
            "epsilons": (_as_float_list(lo=0, hi=0.1, lo_open=True, min_len=2, distinct=True), [0.1, 0.05, 0.025, 0.0125]),
            "q": (_as_float(lo=1, lo_open=True), 8.0),
            "r": (_as_float(lo=1, lo_open=True), 8.0),
            "lhs_tol": (_as_float(lo=0, lo_open=True), 0.05),
            "rhs_tol": (_as_float(lo=0, lo_open=True), 0.10),
        },
        "scaling exponents of the frequency-cap example",
    ),
}


# resolvent-check's window oracle reaches past the potential, so its
# memory grows with the support radius.
_ORACLE_SITE_BOUND = 2**16
# Its free tails grow like 1 / mu and 1 / sqrt(2 - mu) at the band edges; a
# tail of 2^21 sites peaks near 670 MB and takes 6 s on a 2-core host.
_ORACLE_TAIL_BOUND = 2**21


def _window_rules(command, cfg):
    """(fields, potential or mu, window, needed, given) for each window a command sizes."""
    if command == "resolvent-check":
        for i, V in enumerate(cfg["potentials"]):
            if V is not None:
                yield (f"field 'potentials' entry {i}", V, "the window oracle's "
                       "site limit", V.support_radius, _ORACLE_SITE_BOUND)
        for i, mu in enumerate(cfg["mu_values"]):
            yield (f"field 'mu_values' entry {i}", mu, "the window oracle's "
                   "tail limit", _eps_ladder(mu)[1][0], _ORACLE_TAIL_BOUND)
    if command == "eig-scan":
        V = cfg["potential"]
        yield ("fields 'potential', 'discrete_window'", V, "discrete_window",
               min_localizing_radius(V), cfg["discrete_window"])
        # build_hamiltonian keeps the stencil two sites clear of the support
        yield ("fields 'potential', 'window_radii'", V, "every window radius",
               V.support_radius + 2, min(cfg["window_radii"]))
    if command == "stone-vs-spectral":
        window = auto_window_radius(max(cfg["times"]), cfg["observe_radius"])
        for i, V in enumerate(cfg["potentials"]):
            if V is not None:
                yield (f"field 'potentials' entry {i}", V, "the dense reference "
                       "window set by 'times' and 'observe_radius'",
                       V.support_radius + 2, window)


def _check_config(raw: dict, schema: dict, command: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"config for {command} must be a JSON object")
    full = dict(schema)
    full.update(_schema_common())
    unknown = sorted(set(raw) - set(full))
    if unknown:
        raise ConfigError(
            f"unknown field(s) {unknown} for command {command!r}; "
            f"allowed: {sorted(full)}"
        )
    out = {}
    for key, (caster, default) in full.items():
        if key in raw:
            value = raw[key]
        elif default is _REQUIRED:
            raise ConfigError(f"missing required field {key!r} for {command!r}")
        else:
            value = default
        if value is None and default is None:
            out[key] = None
            continue
        try:
            out[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"field {key!r}: {exc}") from exc
    if "t_min" in out and not out["t_min"] < out["t_max"]:
        raise ConfigError(
            f"fields 't_min', 't_max': need t_min < t_max, got "
            f"{out['t_min']} and {out['t_max']}"
        )
    if "per_decade" in out:
        points = log_time_grid(out["t_min"], out["t_max"], out["per_decade"]).size
        if points < FIT_MIN_POINTS:
            raise ConfigError(
                f"fields 't_min', 't_max', 'per_decade': the time grid has "
                f"{points} points, the fit needs at least {FIT_MIN_POINTS}"
            )
    for fields, V, window, need, given in _window_rules(command, out):
        if not given >= need:
            what = f"mu = {V!r}" if isinstance(V, float) else f"support radius {V.support_radius}"
            raise ConfigError(f"{fields}: {what} needs {window} >= {need:.17g}, got {given}")
    if command == "stone-vs-spectral":
        # a bound state's phase t E rounds by about t |E| 2^-52 in any double route
        top = max([np.abs(V.values).max() for V in out["potentials"] if V is not None] + [0.0])
        lost = max(out["times"]) * (16.0 + top) * 2.0**-52
        if lost > out["tolerance"]:
            raise ConfigError(f"fields 'potentials', 'times', 'tolerance': a state near |V| = "
                              f"{top:.6g} has its phase t E lost to rounding, {lost:.3g} > tolerance")
    return out


def _manifest_value(v):
    if isinstance(v, PotentialSpec):
        return _potential_label(v)
    if isinstance(v, (list, tuple)):
        return [_manifest_value(x) for x in v]
    return v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bilap",
        description="lattice fourth-difference dispersion toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None, help="JSON parameter file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    runner, schema, _ = _COMMANDS[args.command]
    try:
        raw = {}
        if args.config is not None:
            try:
                raw = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
        cfg = _check_config(raw, schema, args.command)
    except ConfigError as exc:
        print(f"bilap {args.command}: config error: {exc}", file=sys.stderr)
        return 2

    outdir = args.out or Path(cfg.get("output_dir") or f"bilap_out_{args.command}")
    # directories this run makes, innermost first
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    threads = None
    if args.threads is not None:
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:
            pass
        else:
            threadpool_limits(args.threads)
            threads = args.threads

    started = time.monotonic()
    # the library's own warnings (a non-regular edge, a quadrature short of
    # its target) are part of the run's output: one stderr line each, and
    # listed in the manifest; other categories keep the active filters
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            code, report, outputs = runner(cfg, outdir, rng)
        except (ConfigError, LocalizationError, SingularSandwichError) as exc:
            refusal = exc
        else:
            refusal = None
    for w in caught:
        print(f"bilap {args.command}: warning: {w.message}", file=sys.stderr)
    if refusal is not None:
        for d in created:
            if any(d.iterdir()):
                break
            d.rmdir()
        what = "config error" if isinstance(refusal, ConfigError) else "numerical refusal"
        print(f"bilap {args.command}: {what}: {refusal}", file=sys.stderr)
        return 2
    wall = time.monotonic() - started

    manifest = {
        "command": args.command,
        "config": {k: _manifest_value(v) for k, v in cfg.items()},
        "seed": args.seed,
        "threads": threads,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": _SCIPY_VERSION,
        "python_version": sys.version.split()[0],
        "wall_time_seconds": wall,
        "outputs": outputs,
        "warnings": [str(w.message) for w in caught],
        "exit_code": code,
    }
    write_json(outdir / "manifest.json", manifest)
    if code != 0:
        print(f"bilap {args.command}: check failed, see {outdir}/", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
