"""bilap benchmark: time to a verified CLI result, per workload.

    python3 perfbench/run.py --workload {perturbed,free,crosscheck} --seed N --seconds S --trace {0,1}

Run from the repository root. Each pass is a fresh Python process (closed
loop, one client) that imports bilap.cli and runs the workload's commands
in turn; passes repeat until S seconds have gone by, and the first one
is not timed. With --trace 0 the last line of output is a JSON object
with the end-to-end metrics; with --trace 1 the timed passes alternate
untraced and traced, and it carries the per-layer metrics instead. README.md in this directory explains the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import PER_LAYER_UNITS, layer_metrics  # noqa: E402

STONE_TOL = 1e-5  # stone-vs-spectral's default tolerance
STONE_FFT_TOL = 1e-8  # stone_kernel_slice's default half-budget error target
# Errors below this read as it, so float reordering at the rounding floor
# (about 1e-14 for a delta potential) does not count as a regression.
ERR_FLOOR = 1e-12
CROSS_ROUTE = ("stone-vs-spectral", "resolvent-check")
CHILD_TIMEOUT = 150.0


def spawn(mode, workload, seed, out, env, traced=False):
    """Run child.py to completion; (spawn time, result or None, rusage, stderr)."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", workload,
           "--seed", str(seed), "--out", str(out)] + (["--traced"] if traced else [])
    with open(out / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - spawned > CHILD_TIMEOUT:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_file = out / "result.json"
    result = json.loads(result_file.read_text()) if proc.returncode == 0 and result_file.exists() else None
    return spawned, result, usage, (out / "stderr.txt").read_text(errors="replace")


def tail_text(walls) -> str:
    n = len(walls)
    if n > 10:
        return f"p{100.0 * (n - 10) / n:.0f} {sorted(walls)[n - 11]:.4f} s (ten passes beyond it)"
    return f"max {max(walls):.4f} s (no percentile has ten passes beyond it at n = {n})"


def mean_summary(summaries):
    """Average of tracer summaries, leaf by leaf (keys may differ by pass)."""
    if isinstance(summaries[0], dict):
        keys = set().union(*summaries)
        return {k: mean_summary([s.get(k, 0) for s in summaries]) for k in keys}
    return sum(summaries) / len(summaries)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bilap" / "cli.py").is_file():
        print(f"bilap sources not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    plan = workloads.commands(args.workload, args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, plan, env, threads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def measure(args, plan, env, threads, work) -> int:
    # Pass 0 is a warm-up: its outputs are checked like any other, but its
    # times are not used, as it runs while the machine wakes from idle.
    passes, started = [], time.monotonic()
    while len(passes) < 2 + args.trace or time.monotonic() - started < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 0 and len(passes) > 0
        out = work / f"pass-{len(passes)}"
        spawned, result, usage, stderr = spawn("pass", args.workload, args.seed, out, env, traced)
        passes.append({"traced": traced, "result": result, "stderr": stderr,
                       "setup": result["ready"] - spawned if result else None,
                       "rss_mb": usage.ru_maxrss / 1024.0, "cpu": usage.ru_utime + usage.ru_stime})
        shutil.rmtree(out, ignore_errors=True)

    attempted = failed = 0
    reference = [None] * len(plan)
    for p in passes:
        if p["result"] is None:
            attempted += len(plan)
            failed += len(plan)
            print(f"pass process failed:\n{p['stderr'][-2000:]}", file=sys.stderr)
            continue
        for i, op in enumerate(p["result"]["ops"]):
            attempted += 1
            reasons = []
            if op["traceback"]:
                reasons.append(op["traceback"])
            elif op["exit"] not in (0, 1):
                reasons.append(f"exit status {op['exit']}")
            if op["command"] in CROSS_ROUTE and op["report"].get("band_pass") is False:
                reasons.append("error beyond the command's tolerance")
            if reference[i] is None:
                reference[i] = op["digests"]
            elif op["digests"] != reference[i]:
                reasons.append("outputs differ from the first pass with the same seed")
            if reasons:
                failed += 1
                print(f"{op['command']} failed: " + "; ".join(reasons), file=sys.stderr)

    done = [p for p in passes if p["result"] is not None]
    if not done:
        print("no pass completed", file=sys.stderr)
        return 1
    first = done[0]["result"]
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes of "
          f"{len(plan)} commands, BLAS threads requested {threads}, "
          f"in effect {first['blas_threads'] or 'unknown'}")
    for op in first["ops"]:
        print(f"  {op['command']}: exit {op['exit']}, band_pass "
              f"{json.dumps(op['report'].get('band_pass'))}, {op['seconds']:.3f} s")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4g} (operations = CLI invocations)")
    reports = {op["command"]: op["report"] for op in first["ops"]}
    if "max_rel_err" in reports.get("resolvent-check", {}):
        print(f"resolvent_err {reports['resolvent-check']['max_rel_err']:.4g} 1 "
              f"(tolerance {reports['resolvent-check']['tolerance']:.1e}; not a bounded metric: it moves with the seed)")

    if args.trace:
        metrics = traced_metrics(args, passes)
        if metrics is None:
            return 3
        correct = failed == 0
    else:
        metrics, accurate = end_to_end(args, passes, reports, env, work)
        if metrics is None:
            return 1
        correct = failed == 0 and accurate
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(args, passes, reports, env, work):
    done = [p for p in passes[1:] if p["result"] is not None]
    if not done:
        print("no timed pass completed", file=sys.stderr)
        return None, False
    walls = [p["result"]["wall"] for p in done]
    _, check, _, stderr = spawn("check", args.workload, args.seed, work / "check", env)
    if check is None:
        print(f"accuracy probe failed:\n{stderr[-2000:]}", file=sys.stderr)
        return None, False
    if "stone_err" not in check:  # taken from the fixed stone-vs-spectral potentials
        fixed = len(workloads.CROSSCHECK_FIXED_POTENTIALS) * len(workloads.CROSSCHECK_TIMES)
        combos = reports["stone-vs-spectral"]["combos"]
        check["stone_err"] = max(c["max_abs_err"] for c in combos[:fixed])
        print(f"stone_err of the seeded potential {max(c['max_abs_err'] for c in combos[fixed:]):.4g} 1 "
              "(checked against the tolerance, outside the bounded metric)")
    print(f"wall_s median {statistics.median(walls):.4f} s over n = {len(walls)} passes; {tail_text(walls)}; "
          f"passes {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"raw errors: stone_err {check['stone_err']:.4g}, stone_fft_err {check['stone_fft_err']:.4g} "
          f"(reported values are floored at {ERR_FLOOR:g})")
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(p["setup"] for p in done), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["rss_mb"] for p in done), "unit": "MB"},
        "stone_err": {"value": max(check["stone_err"], ERR_FLOOR), "unit": "1"},
        "stone_fft_err": {"value": max(check["stone_fft_err"], ERR_FLOOR), "unit": "1"},
    }
    accurate = check["stone_err"] <= STONE_TOL and check["stone_fft_err"] <= STONE_FFT_TOL
    if not accurate:
        print("cross-route error beyond tolerance", file=sys.stderr)
    return metrics, accurate


def traced_metrics(args, passes):
    done = [p for p in passes[1:] if p["result"] is not None]
    traced = [p for p in done if p["traced"]]
    untraced = [p for p in done if not p["traced"]]
    if not traced or not untraced:
        print("need one traced and one untraced pass", file=sys.stderr)
        return None
    agg = mean_summary([p["result"]["trace"] for p in traced])
    silent = [name for name in workloads.MUST_CALL[args.workload] if not agg["calls"].get(name)]
    if silent:
        print(f"tracer self-check failed: {silent} recorded zero calls on workload "
              f"{args.workload}; a wrapped function was renamed or bypassed", file=sys.stderr)
        return None
    values = layer_metrics(
        agg,
        statistics.median(p["result"]["wall"] for p in traced),
        statistics.median(p["result"]["wall"] for p in untraced),
        statistics.mean(p["cpu"] for p in traced),
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())
