"""Acceptance gate: one test per primary band check, run on runner defaults.

Each test materialises the command's default config, runs it in-process
with a fixed seed, prints a single measured-value line, and asserts the
stated band.  Two bands hold the claim the derivation gives rather than a
generic rate:

* the beam estimate bounds the summed pair cos + sinc by t^(-1/3); the
  cos kernel attains that rate, while the sinc kernel sin(tb)/(tb), with
  b = 2 - 2cos x vanishing like x^2, has sup norm (2 pi t)^(-1/2)(1 + O(1/t))
  at n = 0 and is held to 1/2 within the band's half-width;
* a lower-edge remainder decays at the first order above the partial sum
  whose coefficient does not vanish; orders j = 2 (mod 4) vanish
  identically, so through order one the remainder decays at the third
  power.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bilap import cli


def _run_default(command, tmp_path, overrides=None):
    runner, schema = cli._COMMANDS[command][:2]
    cfg = cli._check_config(dict(overrides or {}), schema, command)
    started = time.monotonic()
    report, files = runner(cfg, np.random.default_rng(0))
    for name, writer, *data in files:
        writer(tmp_path / name, *data)
    elapsed = time.monotonic() - started
    return report, elapsed


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def test_criterion_01_free_fourth_difference_decay(tmp_path):
    report, elapsed = _run_default("free-decay", tmp_path)
    alpha = report["alpha"]
    ok = 0.23 <= alpha <= 0.27
    print(
        f"criterion 01 free fourth-difference decay: alpha={alpha:.4f} "
        f"band=[0.23,0.27] elapsed={elapsed:.1f}s -> {_verdict(ok)}"
    )
    assert elapsed <= 300.0
    assert 0.23 <= alpha <= 0.27
    assert report["band_pass"] is True


def test_criterion_02_free_second_difference_decay(tmp_path):
    report, elapsed = _run_default(
        "free-decay", tmp_path, {"kind": "schrodinger_free_lap"}
    )
    alpha = report["alpha"]
    ok = 0.31 <= alpha <= 0.36
    print(
        f"criterion 02 free second-difference decay: alpha={alpha:.4f} "
        f"band=[0.31,0.36] elapsed={elapsed:.1f}s -> {_verdict(ok)}"
    )
    assert elapsed <= 300.0
    assert 0.31 <= alpha <= 0.36
    assert report["band_pass"] is True


def test_criterion_03_beam_kernel_decay(tmp_path):
    report, _ = _run_default("beam-decay", tmp_path)
    a_cos, a_sinc, a_sum = report["alpha_cos"], report["alpha_sinc"], report["alpha_sum"]
    print(
        f"criterion 03 beam kernels: alpha_cos={a_cos:.4f} band=[0.30,0.37] "
        f"({_verdict(report['pass_cos'])}), alpha_sinc={a_sinc:.4f} "
        f"0.5+-0.035 ({_verdict(report['pass_sinc'])}), alpha_sum={a_sum:.4f} "
        f">=0.30 ({_verdict(report['pass_sum'])}) -> {_verdict(report['band_pass'])}"
    )
    assert report["band"] == [0.30, 0.37]
    # The cos kernel is the real part of the second-difference flow, sharp
    # at t^(-1/3).
    assert 0.30 <= a_cos <= 0.37
    # PAPER.md bounds the sum of the two norms by t^(-1/3).
    assert a_sum >= 0.30
    # The sinc symbol sin(tb)/(tb) is flat where b ~ x^2 vanishes, so its
    # kernel peaks at n = 0 at (2 pi t)^(-1/2): sharper than the paper's
    # bound and within it.
    assert a_sinc >= 0.30
    assert abs(a_sinc - 0.5) <= 0.035
    assert report["band_pass"] is True


def test_criterion_04_resolvent_oracle_equivalence(tmp_path):
    report, elapsed = _run_default("resolvent-check", tmp_path)
    err = report["max_rel_err"]
    ok = err <= 1e-6
    print(
        f"criterion 04 resolvent equivalence: max_rel_err={err:.3e} "
        f"tol=1e-06 points={report['points']} elapsed={elapsed:.1f}s "
        f"-> {_verdict(ok)}"
    )
    assert elapsed <= 120.0
    assert report["points"] == 25
    assert err <= 1e-6
    assert report["band_pass"] is True


def test_criterion_05_expansion_remainder_orders(tmp_path):
    report, _ = _run_default("expansion-check", tmp_path)
    parts = [
        f"{c['threshold']} N={c['n_order']} slope={c['slope']:.3f} "
        f"expected={c['expected']} ({_verdict(c['band_pass'])})"
        for c in report["cases"]
    ]
    print(
        f"criterion 05 expansion remainders: {'; '.join(parts)} "
        f"-> {_verdict(report['band_pass'])}"
    )
    # Lower edge: the order-j coefficient carries the factor i - i^(j+3),
    # zero for j = 2 (mod 4), so the remainder through N = 1 decays at the
    # third power like the one through N = 2. Upper edge: (N + 1)/2.
    got = [(c["threshold"], c["n_order"], c["expected"]) for c in report["cases"]]
    assert got == [
        ("zero", 0, 1.0), ("zero", 1, 3.0), ("zero", 2, 3.0),
        ("sixteen", 0, 0.5), ("sixteen", 1, 1.0),
    ]
    for case in report["cases"]:
        slope, expected, tol = case["slope"], case["expected"], case["tolerance"]
        assert tol == (0.15 if case["threshold"] == "zero" else 0.10)
        assert abs(slope - expected) <= tol, (
            f"{case['threshold']} N={case['n_order']}: slope {slope:.4f} "
            f"vs expected {expected} +- {tol}"
        )
        if case["threshold"] == "zero":
            mu = np.loadtxt(
                tmp_path / f"remainder_zero_N{case['n_order']}.csv",
                delimiter=",", skiprows=1, usecols=0,
            )
            assert mu[0] == 1e-3 and mu[-1] == 1e-1
    assert report["band_pass"] is True


def test_criterion_06_sandwich_inverse_structure(tmp_path):
    report, _ = _run_default("minv-probe", tmp_path)
    zero, sixteen = report["zero"], report["sixteen"]
    ok = report["band_pass"]
    print(
        f"criterion 06 sandwich inverse: zero slope="
        f"{zero['leakage_slope']:.4f} (>=0.85), sixteen slope="
        f"{sixteen['leakage_slope']:.4f} (>=0.4), sup norms "
        f"{zero['sup_inverse_norm']:.2f}/{sixteen['sup_inverse_norm']:.2f} "
        f"(<=100) -> {_verdict(ok)}"
    )
    assert zero["leakage_slope"] >= 0.85
    assert sixteen["leakage_slope"] >= 0.4
    assert zero["sup_inverse_norm"] <= 100.0
    assert sixteen["sup_inverse_norm"] <= 100.0
    assert report["band_pass"] is True


def test_criterion_07_stone_vs_spectral_kernels(tmp_path):
    report, _ = _run_default("stone-vs-spectral", tmp_path)
    err = report["max_abs_err"]
    ok = err <= 1e-5
    print(
        f"criterion 07 stone vs spectral: max_abs_err={err:.3e} tol=1e-05 "
        f"combos={len(report['combos'])} -> {_verdict(ok)}"
    )
    assert err <= 1e-5
    assert report["band_pass"] is True


def test_criterion_08_stationary_phase_certificate(tmp_path):
    report, _ = _run_default("stationary-phase", tmp_path)
    by_s = {round(e["s"], 9): e for e in report["results"]}
    flat = by_s[0.0]
    crit = by_s[round(-6.0 * np.sqrt(3.0), 9)]
    ok = report["band_pass"]
    print(
        f"criterion 08 stationary phase: s=0 roots "
        f"{[(round(r['x'], 6), r['order']) for r in flat['roots']]}, "
        f"s=-6sqrt3 roots "
        f"{[(round(r['x'], 6), r['order']) for r in crit['roots']]} "
        f"-> {_verdict(ok)}"
    )
    roots = {r["order"]: r for r in flat["roots"]}
    assert set(roots) == {2, 4}
    assert abs(roots[2]["x"] + np.pi) <= 1e-10
    assert abs(roots[2]["derivative_value"] + 16.0) <= 1e-10
    assert abs(roots[4]["x"]) <= 1e-10
    assert abs(roots[4]["derivative_value"] - 24.0) <= 1e-10
    assert flat["decay_order_prediction"] == "1/4"
    [single] = crit["roots"]
    assert single["order"] == 3
    assert abs(single["x"] + 2.0 * np.pi / 3.0) <= 1e-10
    assert crit["decay_order_prediction"] == "1/3"
    assert flat["certified"] is True and crit["certified"] is True
    assert report["band_pass"] is True


def test_criterion_09_knapp_scaling_exponents(tmp_path):
    report, _ = _run_default("knapp", tmp_path)
    lhs, rhs = report["lhs_exponent"], report["rhs_exponent"]
    expected_rhs = report["rhs_expected"]
    ok = report["band_pass"]
    print(
        f"criterion 09 knapp scaling: lhs={lhs:.4f} (0.5+-0.05), "
        f"rhs={rhs:.4f} ({expected_rhs}+-0.1) -> {_verdict(ok)}"
    )
    assert abs(lhs - 0.5) <= 0.05
    assert abs(rhs - expected_rhs) <= 0.1
    assert expected_rhs == 1.0 / 8.0 + 4.0 / 8.0
    assert report["band_pass"] is True


def test_criterion_10_property_suites():
    suite = Path(__file__).with_name("test_properties.py")
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(suite)],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - started
    ok = proc.returncode == 0
    print(
        f"criterion 10 property suites: exit={proc.returncode} "
        f"elapsed={elapsed:.1f}s -> {_verdict(ok)}"
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert elapsed <= 900.0


def test_criterion_11_perturbed_decay_band(tmp_path):
    # No sharp constant is claimed for the perturbed flow; the check is
    # the exponent band for the half-strength single-site potential.
    report, elapsed = _run_default("perturbed-decay", tmp_path)
    alpha = report["alpha"]
    ok = 0.22 <= alpha <= 0.28
    print(
        f"criterion 11 perturbed decay: alpha={alpha:.4f} band=[0.22,0.28] "
        f"r2={report['r_squared']:.5f} elapsed={elapsed:.1f}s "
        f"-> {_verdict(ok)}"
    )
    assert 0.22 <= alpha <= 0.28
    assert report["r_squared"] >= 0.99
    assert report["band_pass"] is True
