"""Span tracer for the traced benchmark pass, installed from outside the library.

Each wrapped function records a span (name, start, end, parent span) and,
for a few, a work counter read from its arguments or result. A span's self
time is its duration minus the time its child spans cover, so the self
times of all layers add up to the traced wall time of a pass.

A function imported by name into several bilap modules (boundary_kernel_plus
lives in resolvent and is imported by propagator, spectral and expansion) is
replaced in every bilap module that holds a reference to it.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

# layer -> (module, wrapped attributes). Layers are the bilap modules; the
# dense eigensolver (numpy.linalg.eigh) is counted in the spectral layer.
WRAPPED = {
    "cli": ("bilap.cli", ["main", "write_json", "write_csv", "write_plot"]),
    "decay": ("bilap.decay", [
        "fit_decay_exponent", "free_decay_series",
        "perturbed_decay_series", "strichartz_norm", "knapp_experiment",
    ]),
    "propagator": ("bilap.propagator", [
        "kernel_spectral", "pac_split", "PacSplit.kernel_ac",
        "free_kernel_full", "free_kernel_fft", "stone_kernel_slice",
    ]),
    "resolvent": ("bilap.resolvent", ["boundary_kernel_plus", "windowed_boundary_resolvent"]),
    "spectral": ("bilap.spectral", [
        "decompose_potential", "m_matrix_grid", "regular_point_check",
        "perturbed_resolvent_boundary", "minv_expansion_probe", "discrete_eigs",
        "embedded_eig_scan",
    ]),
    "quadrature": ("bilap.quadrature", [
        "edges_from_budget", "gauss_panels", "stationary_points", "decay_order_prediction",
    ]),
    "expansion": ("bilap.expansion", ["remainder_norms"]),
    "lattice": ("bilap.lattice", ["build_hamiltonian", "weighted_operator_norm"]),
}
LAYERS = tuple(WRAPPED)


def _count_kernel(counts, args, kwargs, result):
    import numpy as np

    counts["kernel_evals"] += result.size
    # computed bytes: the complex output plus mu, 1 - mu^2/4 and k
    counts["kernel_bytes"] += result.nbytes + 2 * np.asarray(args[0]).nbytes + np.asarray(args[1]).nbytes


def _count_fft(counts, args, kwargs, result):
    counts["fft_points"] += result.size
    # computed bytes: x and band (float64), symbol weight and ring (complex128)
    counts["fft_bytes"] += 48 * result.size


def _count_panels(counts, args, kwargs, result):
    counts["panels"] += len(result) - 1


def _count_nodes(counts, args, kwargs, result):
    counts["nodes"] += result[0].size


def _count_mats(counts, args, kwargs, result):
    counts["m_mats"] += result.shape[0]


COUNTERS = {
    "resolvent.boundary_kernel_plus": _count_kernel,
    "propagator.free_kernel_full": _count_fft,
    "quadrature.edges_from_budget": _count_panels,
    "quadrature.gauss_panels": _count_nodes,
    "spectral.m_matrix_grid": _count_mats,
}


class Tracer:
    """Records spans of wrapped calls for one pass and aggregates them."""

    def __init__(self):
        self.spans = []  # [qualname, layer, start, end, parent index]
        self.stack = []
        self.counts = {k: 0 for k in ("kernel_evals", "kernel_bytes", "fft_points",
                                       "fft_bytes", "panels", "nodes", "m_mats")}
        self.eigh_inputs = set()

    def _wrap(self, qualname, layer, fn, count=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([qualname, layer, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][2:4] = start, end
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def _count_eigh(self, counts, args, kwargs, result):
        import numpy as np

        a = np.ascontiguousarray(args[0])
        self.eigh_inputs.add((a.shape, hashlib.blake2b(a.tobytes(), digest_size=16).digest()))

    def install(self):
        """Wrap every function in WRAPPED, in every bilap module that holds it."""
        import importlib

        import numpy

        modules = [m for name, m in sys.modules.items() if name == "bilap" or name.startswith("bilap.")]
        for layer, (module_name, names) in WRAPPED.items():
            module = importlib.import_module(module_name)
            for name in names:
                qualname = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                if owner_name:  # a method: patch the class once
                    owner = getattr(module, owner_name)
                    setattr(owner, attr, self._wrap(qualname, layer, getattr(owner, attr)))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(qualname, layer, original, COUNTERS.get(qualname))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
        numpy.linalg.eigh = self._wrap("numpy.linalg.eigh", "spectral", numpy.linalg.eigh, self._count_eigh)

    def summary(self) -> dict:
        """Per-function self time and calls, per-layer self time, and counters."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for (name, layer, start, end, parent), inner in zip(self.spans, child):
            own = end - start - inner
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            layer_self[layer] += own
        counts = dict(self.counts, eigh_unique=len(self.eigh_inputs))
        return {"self_s": self_s, "calls": calls, "layer_self_s": layer_self, "counts": counts}


# per-layer metric name -> unit; values come from layer_metrics below
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "resolvent.kernel_s": "s", "resolvent.kernel_evals": "count",
    "resolvent.ns_per_eval": "ns", "resolvent.kernel_bytes": "B",
    "resolvent.banded_s": "s", "resolvent.banded_calls": "count",
    "propagator.stone_s": "s", "propagator.stone_calls": "count",
    "propagator.fft_s": "s", "propagator.fft_points": "count", "propagator.fft_bytes": "B",
    "propagator.dense_s": "s",
    "quadrature.edges_s": "s", "quadrature.panels": "count", "quadrature.nodes_per_slice": "count",
    "spectral.m_grid_s": "s", "spectral.m_mats": "count", "spectral.eig_s": "s",
    "spectral.eigh_calls": "count", "spectral.eigh_unique": "count", "spectral.eigh_reuse": "1",
    "decay.strichartz_s": "s", "decay.series_s": "s",
    "expansion.remainder_s": "s",
    "lattice.norm_s": "s", "lattice.hamiltonian_s": "s",
    "cli.write_s": "s", "cli.cpu_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unaccounted_s": "s",
}


def layer_metrics(agg: dict, traced_wall: float, untraced_wall: float, cpu_s: float) -> dict:
    """Per-layer metrics of one pass from a (pass-averaged) summary()."""
    s, c, n = agg["self_s"], agg["calls"], agg["counts"]

    def own(*names):
        return sum(s.get(x, 0.0) for x in names)

    stone_calls = c.get("propagator.stone_kernel_slice", 0)
    eigh_calls = c.get("numpy.linalg.eigh", 0)
    kernel_s = own("resolvent.boundary_kernel_plus")
    return {
        **{f"{layer}.self_s": agg["layer_self_s"][layer] for layer in LAYERS},
        "resolvent.kernel_s": kernel_s,
        "resolvent.kernel_evals": n["kernel_evals"],
        "resolvent.ns_per_eval": 1e9 * kernel_s / n["kernel_evals"] if n["kernel_evals"] else 0.0,
        "resolvent.kernel_bytes": n["kernel_bytes"],
        "resolvent.banded_s": own("resolvent.windowed_boundary_resolvent"),
        "resolvent.banded_calls": c.get("resolvent.windowed_boundary_resolvent", 0),
        "propagator.stone_s": own("propagator.stone_kernel_slice"),
        "propagator.stone_calls": stone_calls,
        "propagator.fft_s": own("propagator.free_kernel_full"),
        "propagator.fft_points": n["fft_points"],
        "propagator.fft_bytes": n["fft_bytes"],
        "propagator.dense_s": own("propagator.kernel_spectral", "propagator.PacSplit.kernel_ac"),
        "quadrature.edges_s": own("quadrature.edges_from_budget"),
        "quadrature.panels": n["panels"],
        "quadrature.nodes_per_slice": n["nodes"] / stone_calls if stone_calls else 0.0,
        "spectral.m_grid_s": own("spectral.m_matrix_grid"),
        "spectral.m_mats": n["m_mats"],
        "spectral.eig_s": own("numpy.linalg.eigh"),
        "spectral.eigh_calls": eigh_calls,
        "spectral.eigh_unique": n["eigh_unique"],
        "spectral.eigh_reuse": n["eigh_unique"] / eigh_calls if eigh_calls else 0.0,
        "decay.strichartz_s": own("decay.strichartz_norm"),
        "decay.series_s": own("decay.free_decay_series", "decay.perturbed_decay_series"),
        "expansion.remainder_s": own("expansion.remainder_norms"),
        "lattice.norm_s": own("lattice.weighted_operator_norm"),
        "lattice.hamiltonian_s": own("lattice.build_hamiltonian"),
        "cli.write_s": own("cli.write_json", "cli.write_csv", "cli.write_plot"),
        "cli.cpu_s": cpu_s,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unaccounted_s": traced_wall - sum(agg["layer_self_s"].values()),
    }
