"""One benchmark process: a pass of a workload's CLI commands, or the accuracy probe.

    python3 perfbench/child.py pass  --workload W --seed S --out DIR [--traced]
    python3 perfbench/child.py check --workload W --seed S --out DIR

Writes DIR/result.json. A pass records the monotonic time at which the
first command can run (set-up ends there), times the commands, and then,
off the clock, hashes every output file except the manifest.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bilap.cli as cli  # noqa: E402

import workloads  # noqa: E402


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    found = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _run_command(command, cfg_path, out, seed):
    try:
        return cli.main([command, "--config", str(cfg_path), "--out", str(out), "--seed", str(seed)]), None
    except SystemExit as exc:
        return exc.code, None
    except Exception:
        return None, traceback.format_exc()


def _outputs(out: Path) -> tuple:
    """(digests of the CSV and JSON outputs except the manifest, the JSON report if any)."""
    manifest = json.loads((out / "manifest.json").read_text())
    digests, report = {}, {}
    for name in manifest["outputs"]:
        if not name.endswith((".csv", ".json")):
            continue
        data = (out / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        if name.endswith(".json"):
            report = json.loads(data)
    return digests, report


def run_pass(args) -> dict:
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    plan = workloads.commands(args.workload, args.seed)
    for i, (command, cfg) in enumerate(plan):
        (args.out / f"{i}.json").write_text(json.dumps(cfg))
    ready = time.monotonic()
    ops = []
    for i, (command, _) in enumerate(plan):
        start = time.perf_counter()
        code, tb = _run_command(command, args.out / f"{i}.json", args.out / f"{i}-{command}", args.seed)
        ops.append({"command": command, "exit": code, "traceback": tb, "seconds": time.perf_counter() - start})
    end = time.monotonic()
    for i, op in enumerate(ops):
        try:
            op["digests"], op["report"] = _outputs(args.out / f"{i}-{op['command']}")
        except (OSError, ValueError, KeyError) as exc:
            op["digests"], op["report"] = None, {}
            op["traceback"] = op["traceback"] or f"unreadable outputs: {exc!r}"
    return {
        "ready": ready,
        "wall": end - ready,
        "ops": ops,
        "blas_threads": blas_threads(),
        "trace": tracer.summary() if tracer else None,
    }


def run_check(args) -> dict:
    import numpy as np

    from bilap.lattice import PotentialSpec
    from bilap.propagator import (
        PropagatorRequest, auto_window_radius, free_kernel_fft, kernel_spectral,
        pac_split, stone_kernel_slice,
    )

    probe = workloads.accuracy_probe(args.workload)
    out = {}
    if probe["dense"] is not None:
        pot, t, r = probe["dense"]
        window = auto_window_radius(t, r)
        if pot is None:
            V = None
            reference = kernel_spectral(PropagatorRequest("schrodinger_free_bilap", None, t, window, r))
        else:
            V = PotentialSpec.delta(pot["delta"], 0)
            reference = pac_split(V, window).kernel_ac(t, r)
        out["stone_err"] = float(np.abs(stone_kernel_slice(t, V, r).entries - reference.entries).max())
    t, r = probe["fft"]
    sites = np.arange(-r, r + 1)
    fft = free_kernel_fft(t, "schrodinger_free_bilap", 2 * r)[np.abs(sites[:, None] - sites[None, :])]
    out["stone_fft_err"] = float(np.abs(stone_kernel_slice(t, None, r).entries - fft).max())
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("pass", "check"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    result = run_pass(args) if args.mode == "pass" else run_check(args)
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
