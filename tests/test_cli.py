"""Command line front end: exit codes, file outputs, byte-level determinism."""

import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilap import cli, propagator, spectral
from bilap.cli import ConfigError, main, render_loglog_svg, write_csv, write_json
from bilap.lattice import PotentialSpec
from bilap.spectral import SingularSandwichError


def _write_config(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# config and usage errors (exit 2)


def test_unknown_field_exits_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, "cfg", {"bogus": 1})
    out = tmp_path / "out"
    code = main(["stationary-phase", "--config", cfg, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "bogus" in err
    # validation happens before any output directory is created
    assert not out.exists()


def test_wrong_field_type_exits_two(tmp_path, capsys):
    for command, payload in (
        ("resolvent-check", {"points": "many"}),
        ("minv-probe", {"grid_zero": [None, 1]}),
    ):
        cfg = _write_config(tmp_path, "cfg", payload)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert next(iter(payload)) in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command,payload",
    [
        ("free-decay", {"t_min": 1e3, "t_max": 1e2}),
        ("beam-decay", {"t_min": 1e2, "t_max": 1e2}),
        ("perturbed-decay", {"potential": None}),
        ("minv-probe", {"potential": None}),
        ("regular-check", {"potential": None}),
        ("eig-scan", {"potential": None}),
        # at |V| = 1e20 the reference's degree, 5e19, is past its work bound
        ("stone-vs-spectral", {"potentials": [{"delta": -1e20}], "times": [1.0], "observe_radius": 2}),
        ("stone-vs-spectral", {"potentials": [{"delta": 1e20}], "times": [1.0], "observe_radius": 2}),
        # outside the window oracle's accepted mu range
        ("resolvent-check", {"mu_values": [0.5, 0.001]}),
        ("resolvent-check", {"mu_values": [1.999999]}),
    ],
)
def test_cross_field_config_errors_exit_two_before_mkdir(
    tmp_path, capsys, command, payload
):
    cfg = _write_config(tmp_path, "cfg", payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


# the fields that only moved or skipped a verdict, each at its old default;
# the band or tolerance is now a constant beside its claim
_VERDICT_FIELDS = [
    ("free-decay", "band", [0.23, 0.27]),
    ("perturbed-decay", "band", [0.22, 0.28]),
    ("beam-decay", "band", [0.30, 0.37]),
    ("resolvent-check", "tolerance", 1e-6),
    ("stone-vs-spectral", "tolerance", 1e-5),
    ("expansion-check", "tol_zero", 0.15),
    ("expansion-check", "tol_sixteen", 0.10),
    ("minv-probe", "min_slope_zero", 0.85),
    ("minv-probe", "min_slope_sixteen", 0.4),
    ("minv-probe", "bound_cap", 100.0),
    ("stationary-phase", "certify", True),
    ("strichartz", "ratio_tol", 0.1),
    ("knapp", "lhs_tol", 0.05),
    ("knapp", "rhs_tol", 0.10),
]


@pytest.mark.parametrize("command,field,value", _VERDICT_FIELDS)
def test_verdict_fields_are_unknown_fields(tmp_path, capsys, command, field, value):
    cfg = _write_config(tmp_path, "cfg", {field: value})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"unknown field(s) ['{field}']" in err
    assert not out.exists()


def test_schemas_hold_forty_fields():
    assert sum(len(schema) for _, schema, _, _ in cli._COMMANDS.values()) == 40


def test_readme_field_table_matches_the_schemas():
    # one row per field, the command named on its first row; a field added
    # to or removed from a schema without the README fails here
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| command | field | default | fixed band or tolerance |") + 2
    table, command = {}, None
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split(" | ")]
        command = cells[0].strip("`") or command
        table.setdefault(command, {})[cells[1].strip("`")] = json.loads(cells[2].strip("`"))
    # a default as a JSON config spells it: tuples as lists
    assert table == {
        name: {field: json.loads(json.dumps(default)) for field, (_, default) in schema.items()}
        for name, (_, schema, _, _) in cli._COMMANDS.items()
    }


def test_reference_work_bounds_bound_state_phase_rounding():
    # Each Chebyshev degree is at least |t| h, 2h >= 16 + max|V|, and the
    # work rule caps the summed degrees at 2^31 / 4096 = 2^19; so where it
    # admits a run, a bound state's phase t E rounds by at most 2^20 2^-52,
    # far inside stone-vs-spectral's tolerance. Large couplings reach it.
    lost = []
    for values in ([0.5], [-1e3], [1e5], [0.3, -2e4, 0.1], [-1e9]):
        def admitted(t):
            cfg = {"potentials": [PotentialSpec((0, len(values) - 1), values)], "times": [t],
                   "observe_radius": 1}
            return next(cli._reference_work(cfg), None) is None

        lo, hi = 1e-9, 1e9
        assert admitted(lo) and not admitted(hi)
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
        lost.append(lo * (16.0 + max(abs(v) for v in values)) * 2.0**-52)
    assert 2.3e-10 <= max(lost) <= 2.4e-10 <= cli._STONE_TOLERANCE



@pytest.mark.parametrize(
    "command,payload",
    [
        ("free-decay", {"t_max": 1e300}),
        ("free-decay", {"kind": "schrodinger_free_lap", "t_max": 1e10}),
        ("beam-decay", {"t_max": 1e10}),
        ("strichartz", {"T_values": [1e2, 1e10]}),
    ],
)
def test_rings_past_the_bound_exit_two_before_allocating(tmp_path, capsys, command, payload):
    # ring_size reads the largest ring from t alone; nothing ring-sized is
    # allocated before the refusal
    cfg = _write_config(tmp_path, "cfg", payload)
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config error" in err and "Traceback" not in err
    assert next(iter(payload.keys() - {"kind"})) in err and "2^24" in err
    assert not out.exists()


def _admitted_configs(command):
    """The default config and every config of the benchmark workloads, seeds 0-3."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [{}] + [cfg for workload in workloads.WORKLOADS for seed in range(4)
                   for c, cfg in workloads.commands(workload, seed) if c == command]


# (admitted, refused, field) at the edge of each bound of a command's limits:
# the FFT ring's, then every other limit's
_RING_EDGES = {
    # the bound falls between t = 7e5 and 9e5 for the fourth-difference ring
    "free-decay": [({"t_max": 7e5}, {"t_max": 9e5}, "'t_max'")],
}


# a thousand distinct mu in the oracle's range: with 1,000 points the run
# can draw each of them
_THOUSAND_MU = [0.1 + 0.0018 * k for k in range(1000)]


def _sites(d):
    """d consecutive nonzero sites, valued 0.3 to 0.5, centred on 0."""
    return {"support": [-(d // 2), d - 1 - d // 2], "values": np.linspace(0.3, 0.5, d).tolist()}


def _wide(radius):
    """A two-site potential at -radius and radius: a window oracle of 2 radius + 1 sites."""
    return {"support": [-radius, radius], "values": [0.5] + [0.0] * (2 * radius - 1) + [0.3]}


_LIMIT_EDGES = {
    "resolvent-check": [
        # 1,000 draws and points: 14 and 15 delta potentials on 17 sites lie
        # either side of 2^21 units of work
        ({"mu_values": _THOUSAND_MU, "points": 1000, "potentials": [{"delta": 0.5}] * 14},
         {"mu_values": _THOUSAND_MU, "points": 1000, "potentials": [{"delta": 0.5}] * 15},
         "'potentials'"),
        # and one potential of support radius 984 and 985
        ({"mu_values": _THOUSAND_MU, "points": 1000, "potentials": [_wide(984)]},
         {"mu_values": _THOUSAND_MU, "points": 1000, "potentials": [_wide(985)]}, "'potentials'"),
        # one mu: the closed forms of 32 and 33 potentials at 1,000 points
        ({"mu_values": [0.7], "points": 1000, "potentials": [{"delta": 0.5}] * 32},
         {"mu_values": [0.7], "points": 1000, "potentials": [{"delta": 0.5}] * 33}, "'points'"),
    ],
    "perturbed-decay": [
        # 32 and 33 nonzero sites either side of the potential's bound
        ({"potential": _sites(32)}, {"potential": _sites(33)}, "'potential'"),
        # the flow bound falls between t = 8e5 and 9e5 at the default observe radius 32
        ({"t_max": 8e5}, {"t_max": 9e5}, "'t_max'"),
        # 15 and 16 times of 513^2 entries lie either side of 2^22
        ({"observe_radius": 256, "per_decade": 8}, {"observe_radius": 256, "per_decade": 9},
         "'observe_radius'"),
    ],
    "eig-scan": [
        # the largest window beside a small one is admitted, a third window
        # of radius 1536 passes 7e10 units; so do nine windows of 2048
        ({"window_radii": [8, 4096]}, {"window_radii": [8, 4096, 1536]}, "'window_radii'"),
        ({"window_radii": [2048] * 8}, {"window_radii": [2048] * 9}, "'window_radii'"),
    ],
    "stone-vs-spectral": [
        # 252 and 253 times of 129^2 entries lie either side of 2^22
        ({"times": [1.0] * 252, "observe_radius": 64}, {"times": [1.0] * 253, "observe_radius": 64},
         "'times'"),
        # 285 and 286 potentials at the default times lie either side of 2^31
        # units of reference work
        ({"potentials": [{"delta": 0.5}] * 285}, {"potentials": [{"delta": 0.5}] * 286},
         "'potentials'"),
    ],
    "strichartz": [
        # 1.3e8 and 1.4e8 ring points either side of 2^27
        ({"T_values": [1e2, 1.7e5]}, {"T_values": [1e2, 1.8e5]}, "'T_values'"),
    ],
    "stationary-phase": [
        ({"s_values": [0.0] * 65536}, {"s_values": [0.0] * 65537}, "'s_values'"),
    ],
    "expansion-check": [
        ({"orders_zero": [90]}, {"orders_zero": [91]}, "'orders_zero'"),
        ({"orders_sixteen": [204]}, {"orders_sixteen": [205]}, "'orders_sixteen'"),
        # 6 and 7 cases at radius 512 lie either side of 2.5e10 units of work
        ({"window_radius": 512, "orders_zero": [0, 1, 2, 3]},
         {"window_radius": 512, "orders_zero": [0, 1, 2, 3], "orders_sixteen": [0, 1, 2]},
         "'window_radius'"),
    ],
    "knapp": [
        # ceil(400 pi / eps) sites either side of 2^27
        ({"epsilons": [0.1, 9.37e-6]}, {"epsilons": [0.1, 9.36e-6]}, "'epsilons'"),
        # ten and eleven epsilons near 1e-4, 1.25e8 and 1.38e8 sites in all
        ({"epsilons": [1e-4 * (1 + k / 1000) for k in range(10)]},
         {"epsilons": [1e-4 * (1 + k / 1000) for k in range(11)]}, "'epsilons'"),
        # spreads of 1 + 2e-5 and 1 + 2e-7 either side of 1 + 1e-6
        ({"epsilons": [0.05, 0.050001]}, {"epsilons": [0.05, 0.05000001]}, "'epsilons'"),
    ],
}


def _assert_edges(command, edges):
    schema = cli._COMMANDS[command][1]
    configs = _admitted_configs(command)
    # every command runs once per pass of one workload, free-decay twice
    assert len(configs) == 1 + 4 * (2 if command == "free-decay" else 1)
    for raw in configs:
        cli._check_config(raw, schema, command)
    for admitted, refused, field in edges.get(command, []):
        cli._check_config(admitted, schema, command)
        with pytest.raises(ConfigError, match=field):
            cli._check_config(refused, schema, command)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_ring_bound_admits_defaults_and_benchmark_configs(command):
    _assert_edges(command, _RING_EDGES)


@pytest.mark.parametrize("t_max", [1e9, 1e300, 1.7e308])
def test_stone_flow_past_the_bound_exits_two_before_running(tmp_path, capsys, monkeypatch, t_max):
    # stone_flow_points sizes the flow integral from t alone; the series is
    # refused before any Stone pass runs
    def no_stone(*args, **kwargs):
        raise AssertionError("the Stone series ran")

    monkeypatch.setattr(cli, "perturbed_decay_series", no_stone)
    cfg = _write_config(tmp_path, "cfg", {"t_max": t_max})
    out = tmp_path / "o"
    assert main(["perturbed-decay", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config error" in err and "Traceback" not in err
    assert "'t_max'" in err and "2^24" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,payload,work,field",
    [
        # sums of ceil(400 pi / eps) sites: inf, 1.3e303 and 1.3e10
        ("knapp", {"epsilons": [0.1, 5e-324]}, ["knapp_experiment"], "'epsilons'"),
        ("knapp", {"epsilons": [0.1, 1e-300]}, ["knapp_experiment"], "'epsilons'"),
        ("knapp", {"epsilons": [0.1, 1e-7]}, ["knapp_experiment"], "'epsilons'"),
        # 19,393 times of 513^2 entries: one array of the series asked 38 GiB
        ("perturbed-decay",
         {"t_min": 1e-300, "t_max": 1e3, "per_decade": 64, "observe_radius": 256},
         ["perturbed_decay_series"], "'observe_radius'"),
        ("stone-vs-spectral", {"times": [1.0] * 253, "observe_radius": 64},
         ["pac_split", "stone_kernel_slice"], "'times'"),
        # Taylor tables of 192 GiB and 20.9 GiB
        ("expansion-check", {"threshold": "zero", "orders_zero": [10**8]},
         ["remainder_norms"], "'orders_zero'"),
        ("expansion-check", {"orders_sixteen": [10**8]}, ["remainder_norms"], "'orders_sixteen'"),
        # 3,252 cases at radius 64 and 7 at radius 512, past 2.5e10 units of work
        ("expansion-check", {"threshold": "zero", "orders_zero": [90] * 3252},
         ["remainder_norms"], "'window_radius'"),
        ("expansion-check",
         {"window_radius": 512, "orders_zero": [0, 1, 2, 3], "orders_sixteen": [0, 1, 2]},
         ["remainder_norms"], "'window_radius'"),
        # the next float up from 0.001: a rank-deficient exponent fit
        ("knapp", {"epsilons": [0.001, 0.0010000000000000002]}, ["knapp_experiment"],
         "'epsilons'"),
        # 600 potentials, and a coupling whose hull asks the reference for
        # degree 5e9 on a window of radius 30
        ("stone-vs-spectral", {"potentials": [{"delta": 0.5}] * 600},
         ["pac_split", "stone_kernel_slice"], "'potentials'"),
        ("stone-vs-spectral", {"potentials": [{"delta": 1e10}], "times": [1.0]},
         ["pac_split", "stone_kernel_slice"], "'potentials'"),
        # 1.5e8 ring points, and 2^17 + 2 root searches
        ("strichartz", {"T_values": [1e2, 2e5]}, ["strichartz_norm"], "'T_values'"),
        ("stationary-phase", {"s_values": [0.0] * 65537}, ["stationary_points"], "'s_values'"),
        # its window radius would overflow; an OverflowError traceback before
        ("stone-vs-spectral", {"times": [1e308]}, ["pac_split", "stone_kernel_slice"], "'times'"),
        # 1,000 draws of mu for 600 potentials, a window of 2,035 sites, and
        # 1,000 points at one mu for 600 potentials
        ("resolvent-check", {"mu_values": _THOUSAND_MU, "points": 1000, "potentials": [None] * 600},
         ["windowed_boundary_resolvent", "perturbed_resolvent_boundary"], "'potentials'"),
        ("resolvent-check", {"mu_values": _THOUSAND_MU, "points": 1000, "potentials": [_wide(1017)]},
         ["windowed_boundary_resolvent", "perturbed_resolvent_boundary"], "'mu_values'"),
        ("resolvent-check", {"mu_values": [0.7], "points": 1000, "potentials": [None] * 600},
         ["windowed_boundary_resolvent", "perturbed_resolvent_boundary"], "'points'"),
        # every site of the widest admitted support nonzero: one closed form
        # would be a 131,073^2 complex sandwich; and one site past the bound
        ("resolvent-check", {"potentials": [{"support": [-65536, 65536], "values": [0.5] * 131073}]},
         ["windowed_boundary_resolvent", "perturbed_resolvent_boundary"], "'potentials'"),
        ("perturbed-decay", {"potential": _sites(33)}, ["perturbed_decay_series"], "'potential'"),
    ],
)
def test_costly_configs_exit_two_before_running(tmp_path, capsys, monkeypatch, command,
                                                payload, work, field):
    # each limit reads the size from the config alone; the work it guards
    # never starts
    def not_run(*args, **kwargs):
        raise AssertionError(f"{command} started its work")

    for name in work:
        monkeypatch.setattr(cli, name, not_run)
    cfg = _write_config(tmp_path, "cfg", payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config error" in err and "Traceback" not in err
    assert field in err
    assert not out.exists()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_stone_flow_bound_admits_defaults_and_benchmark_configs(command):
    _assert_edges(command, _LIMIT_EDGES)


def test_parser_is_built_once_per_process_and_not_at_import(tmp_path, capsys):
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["knapp", "--config", _write_config(tmp_path, "bad", [1]),
                         "--out", str(tmp_path / "o")]) == 2
            with pytest.raises(SystemExit) as exit_info:
                main(["no-such-command"])
            assert exit_info.value.code == 2
        info = cli._parser.cache_info()
    finally:
        cli._parser.cache_clear()
    assert (info.misses, info.hits) == (1, 3)
    err = capsys.readouterr().err
    assert err.count("invalid choice: 'no-such-command'") == 2
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = "import bilap.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert proc.stdout.strip() == "0"


def _counted_scans(monkeypatch):
    """Calls of the wave-cost scan from an empty per-reach cache on, one entry per call."""
    scans, variation = [], propagator.cost_variation
    propagator._wave_scans.cache_clear()
    monkeypatch.setattr(propagator, "cost_variation", lambda *args: scans.append(1) or variation(*args))
    return scans


def test_perturbed_run_scans_each_wave_cost_once(tmp_path, monkeypatch):
    # the limit's stone_flow_points and the run's Stone passes share one
    # scan of the bulk and one of the strip at reach 2r + 2 = 34
    scans = _counted_scans(monkeypatch)
    cfg = _write_config(tmp_path, "cfg", {"t_min": 50.0, "t_max": 100.0, "per_decade": 24,
                                          "observe_radius": 16})
    assert main(["perturbed-decay", "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 1)
    assert len(scans) == 2
    assert propagator._wave_scans.cache_info().currsize == 1


def test_stone_vs_spectral_potentials_share_one_scan(tmp_path, monkeypatch):
    # all default potentials reach 2 x 10 + 2 sites
    scans = _counted_scans(monkeypatch)
    slices = []
    stone = cli.stone_kernel_slice
    monkeypatch.setattr(cli, "stone_kernel_slice", lambda *a, **k: slices.append(1) or stone(*a, **k))
    assert main(["stone-vs-spectral", "--out", str(tmp_path / "o")]) == 0
    assert len(slices) == 3 and len(scans) == 2


def test_wave_scans_are_read_only_and_not_made_at_import():
    for xs, cum in propagator._wave_scans(34.0, propagator._INNER_CUTOFF, propagator._EDGE_CUTOFF):
        for scan in (xs, cum):
            with pytest.raises(ValueError):
                scan[0] = 0.0
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import bilap.cli as c, bilap.propagator as p; "
             "print(c._parser.cache_info().currsize, p._wave_scans.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert proc.stdout.split() == ["0", "0"]


def test_knapp_repeated_epsilons_exit_two_before_mkdir(tmp_path, capsys):
    # one distinct abscissa leaves both exponent fits rank-deficient
    cfg = _write_config(tmp_path, "cfg", {"epsilons": [0.05, 0.025, 0.05]})
    out = tmp_path / "o"
    assert main(["knapp", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'epsilons'" in err and "distinct" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "potential,field",
    [
        ({"delta": True}, "delta"),
        ({"delta": "0.5"}, "delta"),
        ({"delta": 0.5, "site": 1.5}, "site"),
        ({"delta": 0.5, "site": 10**30}, "site"),
        ({"delta": 0.5, "beta": "inf"}, "beta"),
        ({"support": [0.5, 1.7], "values": [1, 2]}, "support"),
        ({"support": [0, 1], "values": [1, True]}, "values"),
        ({"support": [0, 1], "values": ["1", 2]}, "values"),
        ({"support": [0], "values": [1]}, "support"),
        ({"values": [1]}, "support"),
        # beta is no potential field, even as a valid number
        ({"delta": 0.5, "beta": 2.0}, "unknown potential field"),
        ({"support": [0, 1], "values": [1, 2], "beta": 2.0}, "unknown potential field"),
    ],
)
def test_malformed_potential_entries_exit_two(tmp_path, capsys, potential, field):
    # every entry is cast strictly: no bool as a number, no numeric string,
    # no truncated fractional site
    cfg = _write_config(tmp_path, "cfg", {"potential": potential})
    out = tmp_path / "o"
    assert main(["regular-check", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,payload,named",
    [
        ("eig-scan", {"potential": {"delta": 0.5, "site": 600}}, "window_radii"),
        (
            "eig-scan",
            {"potential": {"delta": 0.5, "site": 600}, "window_radii": [602, 601]},
            "window_radii",
        ),
        (
            "stone-vs-spectral",
            {"potentials": [{"delta": 0.5, "site": 600}], "times": [1.0]},
            "'potentials' entry 0",
        ),
        (
            "resolvent-check",
            {"potentials": [None, {"delta": 0.5, "site": 10**5}]},
            "'potentials' entry 1",
        ),
        (
            "stone-vs-spectral",
            {"potentials": [{"delta": 0.5, "site": 30}], "times": [1.0], "observe_radius": 1},
            "'potentials' entry 0",
        ),
    ],
)
def test_off_centre_potentials_exit_two_before_mkdir(
    tmp_path, capsys, command, payload, named
):
    # the windows these commands diagonalise or solve on must reach past
    # the potential; the config is refused before anything runs
    cfg = _write_config(tmp_path, "cfg", payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err and "Traceback" not in err
    assert not out.exists()


def test_off_centre_potential_at_the_window_limit_runs(tmp_path):
    cfg = _write_config(
        tmp_path,
        "cfg",
        {
            "potential": {"delta": 5.0, "site": 20},
            "window_radii": [22, 40],
        },
    )
    assert main(["eig-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_stone_reference_window_needs_only_the_support(tmp_path):
    # the reference window (radius 22) holds the support and the
    # stencil; the shallow state at 16.008 need not localise in it
    cfg = _write_config(tmp_path, "cfg", {
        "potentials": [{"delta": 0.5, "site": 10}], "times": [1.0], "observe_radius": 1,
    })
    out = tmp_path / "o"
    assert main(["stone-vs-spectral", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["max_abs_err"] <= 1e-9


def test_stone_vs_spectral_mixed_sign_draw_passes(tmp_path):
    # one state sits 3e-6 above the band, far too shallow for the dense
    # window to localise; the reference subtracts it in closed form
    values = [-0.219381, 0.20846, 0.158265, -0.146959, -0.002739]
    cfg = _write_config(tmp_path, "cfg", {"potentials": [{"support": [-2, 2], "values": values}]})
    out = tmp_path / "o"
    assert main(["stone-vs-spectral", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["max_abs_err"] <= 1e-9
    (energies,) = report["bound_states"].values()
    assert len(energies) == 3 and energies[0] < energies[1] < 0.0 < 16.0 < energies[2]


def _no_window(*args, **kwargs):
    raise AssertionError("a window was diagonalised")


@pytest.mark.parametrize("delta", [1.7e308, -1.7e308])
def test_numerical_refusal_exits_two_without_output(tmp_path, capsys, monkeypatch, delta):
    # bound_states refuses a coupling whose kernel leaves the float range
    # before eig-scan builds a window: one line, no overflow warning
    monkeypatch.setattr(spectral, "eigensystem", _no_window)
    cfg = _write_config(tmp_path, "cfg", {"potential": {"delta": delta}})
    out = tmp_path / "o"
    assert main(["eig-scan", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"bilap eig-scan: numerical refusal: sandwich matrix numerically "
                   f"singular at energy {delta:.6g}: kernel past the float range\n")
    assert not out.exists()
    # nested directories the run made are all removed again
    nested = tmp_path / "a" / "b" / "c"
    assert main(["eig-scan", "--config", cfg, "--out", str(nested)]) == 2
    assert not (tmp_path / "a").exists()
    # an output directory the run did not create is left in place
    out.mkdir()
    assert main(["eig-scan", "--config", cfg, "--out", str(out)]) == 2
    assert out.is_dir()


def test_eig_scan_window_radii_are_capped_before_mkdir(tmp_path, capsys, monkeypatch):
    # radius 4097 would be a dense matrix of 8195 sites; the config is
    # refused before any window is built
    monkeypatch.setattr(spectral, "eigensystem", _no_window)
    cfg = _write_config(tmp_path, "cfg", {"window_radii": [8, 4097]})
    out = tmp_path / "o"
    assert main(["eig-scan", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'window_radii'" in err and "<= 4096" in err
    assert not out.exists()


@pytest.mark.parametrize("t", [1e3, 1e5])
def test_stone_reference_window_is_capped_before_mkdir(tmp_path, capsys, monkeypatch, t):
    # at the default observe radius 10, t = 1e3 asks the Chebyshev reference
    # for degrees 8,257 to 8,509 on a window of radius 12,489, 9.0e9 units of
    # work over the three default potentials; the config is refused before
    # the split, the reference or Stone runs
    for module, name in ((cli, "pac_split"), (cli, "stone_kernel_slice"),
                         (propagator, "kernel_spectral")):
        monkeypatch.setattr(module, name, _no_window)
    cfg = _write_config(tmp_path, "cfg", {"times": [t]})
    out = tmp_path / "o"
    assert main(["stone-vs-spectral", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config error" in err and "'times'" in err
    assert "units of work, above the bound of 2147483648 (2^31)" in err
    assert not out.exists()


def test_stone_vs_spectral_diagonalises_no_window(tmp_path, monkeypatch):
    # the reference is a Chebyshev expansion; the one eigh left on the route
    # is bound_states' on a sandwich of the support's side, at most 3
    eigh = np.linalg.eigh

    def sandwich_only(a, *args, **kwargs):
        if np.shape(a)[0] > 3:
            raise AssertionError(f"a window of side {np.shape(a)[0]} was diagonalised")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", sandwich_only)
    out = tmp_path / "o"
    assert main(["stone-vs-spectral", "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["band_pass"] is True


def test_eig_scan_reports_the_closed_form_bound_states(tmp_path):
    # the 3-site default of resolvent-check and stone-vs-spectral: its state
    # 1.3e-3 above the band spreads past every default window
    V = PotentialSpec((-1, 1), [0.3, -0.2, 0.1])
    cfg = _write_config(tmp_path, "cfg", {"potential": cli._GENERIC_SMALL})
    out = tmp_path / "o"
    assert main(["eig-scan", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    want = [E for E, _ in spectral.bound_states(V)]
    assert len(want) == 1 and report["discrete_eigenvalues"] == want
    assert (out / "discrete.csv").read_text() == f"index,eigenvalue\n0,{want[0]:.17g}\n"
    # window 1024 holds it: one dense eigh of 2049 sites
    ((lam, _),) = spectral.discrete_eigs(V, 1024)
    assert abs(want[0] - lam) <= 1e-10


@pytest.mark.parametrize(
    "potential,window_radii",
    [
        # two states below the band that window 96 holds, one 3e-6 above it
        ({"support": [-2, 2], "values": [-0.219381, 0.20846, 0.158265, -0.146959, -0.002739]},
         [96, 64]),
        # a state 1.3e-3 above the band and no window eigenvalue off it
        ({"support": [-1, 1], "values": [0.3, -0.2, 0.1]}, [16, 32]),
    ],
)
def test_eig_scan_window_check_measures_the_largest_window(tmp_path, potential, window_radii):
    cfg = _write_config(tmp_path, "cfg", {"potential": potential, "window_radii": window_radii})
    out = tmp_path / "o"
    assert main(["eig-scan", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    radius = max(window_radii)
    window = [lam for lam, _ in spectral.discrete_eigs(PotentialSpec(**potential), radius)]
    check = report["window_check"]
    assert check["window_radius"] == radius and check["window_eigenvalues"] == window
    assert check["distances"] == [
        min(abs(E - lam) for lam in window) if window else None
        for E in report["discrete_eigenvalues"]
    ]


@pytest.mark.parametrize("window_radii", [None, [32, 16, 24]])
def test_eig_scan_keeps_one_eigensystem(tmp_path, window_radii):
    # the scan diagonalises its largest window last, the one the cache
    # keeps, and its cross-check reads it back; the report keeps the radii
    # in config order
    payload = {} if window_radii is None else {"window_radii": window_radii}
    out = tmp_path / "o"
    spectral._eigensystem.cache_clear()
    assert main(["eig-scan", "--config", _write_config(tmp_path, "cfg", payload),
                 "--out", str(out)]) == 0
    info = spectral._eigensystem.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 1, 1)
    report = json.loads((out / "report.json").read_text())
    radii = window_radii or [128, 256, 384]
    assert report["embedded"]["window_radii"] == radii
    assert report["window_check"]["window_radius"] == max(radii)


def test_eig_scan_diagonalises_only_its_window_radii(tmp_path, monkeypatch):
    asked = []
    eigensystem = spectral.eigensystem

    def record(V, window_radius):
        asked.append(window_radius)
        return eigensystem(V, window_radius)

    monkeypatch.setattr(spectral, "eigensystem", record)
    assert main(["eig-scan", "--out", str(tmp_path / "o")]) == 0
    assert sorted(set(asked)) == [128, 256, 384]


def test_singular_sandwich_refusal_exits_two_without_output(tmp_path, capsys, monkeypatch):
    grid = spectral.m_matrix_grid

    def one_singular(mu, sys, one_minus_q=None):
        m = grid(mu, sys, one_minus_q=one_minus_q)
        m[m.shape[0] // 2] = 0.0
        return m

    monkeypatch.setattr(spectral, "m_matrix_grid", one_singular)
    monkeypatch.setattr(propagator, "m_matrix_grid", one_singular)
    # Stone, the closed perturbed resolvent and the sandwich probe all refuse
    for command, payload in (
        ("perturbed-decay", {"t_min": 10.0, "t_max": 100.0, "per_decade": 8, "observe_radius": 4}),
        ("resolvent-check", {"points": 1, "mu_values": [1.0], "potentials": [{"delta": 0.5}]}),
        ("minv-probe", {}),
    ):
        cfg = _write_config(tmp_path, "cfg", payload)
        out = tmp_path / "a" / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "numerical refusal" in err and "possible embedded eigenvalue" in err
        assert not (tmp_path / "a").exists()


def test_refusal_after_a_recorded_file_leaves_no_directory(tmp_path, capsys, monkeypatch):
    # the first case's table is recorded before the second case refuses;
    # nothing reaches the disk before the run returns
    norms = cli.remainder_norms
    calls = []

    def second_refuses(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise SingularSandwichError("sandwich matrix numerically singular")
        return norms(*args, **kwargs)

    monkeypatch.setattr(cli, "remainder_norms", second_refuses)
    cfg = _write_config(tmp_path, "cfg", {"threshold": "zero", "orders_zero": [0, 1]})
    out = tmp_path / "o"
    assert main(["expansion-check", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "numerical refusal" in err
    assert len(calls) == 2 and not out.exists()


def test_overflowing_sandwich_exits_two_without_output(tmp_path, capsys):
    # couplings near 1e300 overflow M at the bulk's lower end, mu = 1e-9;
    # Stone refuses them there, so the verdict does not depend on the
    # horizon or radius that place the nodes of its passes
    for potential in ({"delta": 1e300}, {"delta": -1e300},
                      {"support": [0, 1], "values": [1e300, 1e300]}):
        for t_min, t_max in ((1, 20), (10, 100)):
            for radius in (1, 4, 32):
                payload = {"potential": potential, "t_min": t_min, "t_max": t_max,
                           "per_decade": 8, "observe_radius": radius}
                out = tmp_path / "a" / "o"
                code = main(["perturbed-decay", "--config", _write_config(tmp_path, "cfg", payload),
                             "--out", str(out)])
                err = capsys.readouterr().err
                assert code == 2, (potential, t_min, radius)
                assert "Traceback" not in err and "numerical refusal" in err
                assert not (tmp_path / "a").exists()


def test_library_warnings_reach_stderr_and_manifest(tmp_path, capsys, monkeypatch):
    # a regular lower edge near a resonance: budgets 16 to 4 share one node
    # set, so with the ladder stopped at budget 2 the slice's one estimate
    # compares budget 2 with budget 4 and misses the tolerance; the run
    # reports the warning and goes on
    monkeypatch.setattr(propagator, "_BUDGET_FLOOR", 2.0)
    payload = {"potentials": [{"support": [-1, 1], "values": [0.5, -0.79, 0.5]}],
               "times": [1.0], "observe_radius": 1}
    out = tmp_path / "o"
    code = main(["stone-vs-spectral", "--config", _write_config(tmp_path, "cfg", payload), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 0
    warned = json.loads((out / "manifest.json").read_text())["warnings"]
    assert len(warned) == 1 and "error estimate" in warned[0] and "budget 2" in warned[0]
    assert [line for line in err.splitlines() if ": warning: " in line] == [
        f"bilap stone-vs-spectral: warning: {w}" for w in warned
    ]



def test_non_regular_edge_is_refused_where_a_claim_needs_it(tmp_path, capsys):
    # the lower edge of [0.5, -0.8, 0.5] is not regular: the commands whose
    # claims need both edges regular refuse with one line and write
    # nothing, and regular-check reports the verdict
    nonregular = {"support": [-1, 1], "values": [0.5, -0.8, 0.5]}
    for command, payload in (
        ("perturbed-decay", {"potential": nonregular}),
        ("stone-vs-spectral", {"potentials": [nonregular], "times": [1.0], "observe_radius": 1}),
        ("minv-probe", {"potential": nonregular}),
    ):
        out = tmp_path / "a" / "o"
        assert main([command, "--config", _write_config(tmp_path, "cfg", payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"bilap {command}: numerical refusal: threshold 'zero' not regular")
        assert not (tmp_path / "a").exists()
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, "cfg", {"potential": nonregular})
    assert main(["regular-check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["zero"]["is_regular"] is False and report["sixteen"]["is_regular"] is True


def test_manifest_records_fft_workers(tmp_path, monkeypatch):
    out = tmp_path / "o"
    assert main(["stationary-phase", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["fft_workers"] == propagator.fft_workers() in (1, 2)
    monkeypatch.setattr(propagator, "_FFT_WORKERS", 1)
    assert main(["stationary-phase", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["fft_workers"] == 1


def test_nan_errors_fail_their_check(tmp_path, monkeypatch):
    # max(0.0, nan) is 0.0: a NaN error must still fail, and stay in the report
    stone = cli.stone_kernel_slice

    def nan_resolvent(mu, V, n, m):
        return complex(np.nan, 0.0)

    def nan_stone(*args, **kwargs):
        return [
            dataclasses.replace(slc, entries=np.full_like(slc.entries, np.nan))
            for slc in stone(*args, **kwargs)
        ]

    monkeypatch.setattr(cli, "perturbed_resolvent_boundary", nan_resolvent)
    monkeypatch.setattr(cli, "stone_kernel_slice", nan_stone)
    for command, payload, key in (
        ("resolvent-check", {"points": 1, "mu_values": [1.0], "potentials": [None]}, "max_rel_err"),
        ("stone-vs-spectral", {"potentials": [None], "times": [1.0], "observe_radius": 2},
         "max_abs_err"),
    ):
        cfg = _write_config(tmp_path, "cfg", payload)
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report[key] == "nan" and report["band_pass"] is False


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_SITE = st.integers(-6, 6) | st.sampled_from([2**63, -(2**63) - 1, 10**30]) | _JSON
_NUMBER = st.floats(-4.0, 4.0) | st.integers(-3, 3) | _JSON
_POTENTIAL = (
    st.fixed_dictionaries({"delta": _NUMBER}, optional={"site": _SITE})
    | st.fixed_dictionaries(
        {"support": st.lists(_SITE, min_size=1, max_size=3),
         "values": st.lists(_NUMBER, max_size=4)},
    )
    | st.dictionaries(
        st.sampled_from(["delta", "site", "beta", "support", "values", "x"]),
        _JSON,
        max_size=3,
    )
    | _JSON
)
_CONFIG = (
    st.fixed_dictionaries({"potential": _POTENTIAL})
    | st.dictionaries(
        st.sampled_from(["potential", "output_dir", "bogus"]), _JSON, max_size=2
    )
    | _JSON
)


def _assert_cli_contract(command, config):
    # exit 0, 1 or 2, never a traceback, and no output directory on exit 2
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not out.exists()
        # a passing report holds no NaN, which write_json spells "nan"
        for path in out.glob("*.json"):
            text = path.read_text()
            if json.loads(text).get("band_pass") is True:
                assert '"nan"' not in text, path.name
    return code


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config=_CONFIG)
def test_cli_contract_holds_for_arbitrary_configs(config):
    _assert_cli_contract("regular-check", config)


# The costly commands draw mostly valid configs, so that most examples
# run the command; junk values reach the number and list casters through
# regular-check's potential above. Fields that scale cost are capped (t_max
# and T_values <= 1e3, per_decade <= 8, epsilons >= 1e-3), and t_max and
# per_decade are always present, since their defaults start longer runs.
# Epsilons past knapp's site bound (5e-324, 1e-300, 1e-7) are mixed in; they
# are refused before anything runs.
_POWER = st.floats(1.0, 64.0)
_DECAY = {"t_max": st.floats(1e2, 1e3), "per_decade": st.integers(4, 8)}
_DECAY_OPTIONAL = {"t_min": st.floats(1e-3, 1e2)}
_COSTLY_COMMAND_CONFIGS = {
    "free-decay": st.fixed_dictionaries(_DECAY, optional={
        **_DECAY_OPTIONAL,
        "kind": st.sampled_from(list(cli.FREE_KINDS)),
    }),
    "beam-decay": st.fixed_dictionaries(_DECAY, optional=_DECAY_OPTIONAL),
    "strichartz": st.fixed_dictionaries(
        {"T_values": st.lists(st.floats(0.0, 1e3), min_size=2, max_size=3)},
        optional={
            "q": _POWER,
            "r": _POWER | st.just("inf"),
            "expect": st.sampled_from(["bounded", "growth"]),
        },
    ),
    "knapp": st.fixed_dictionaries({}, optional={
        "epsilons": st.lists(st.floats(1e-3, 0.1) | st.sampled_from([5e-324, 1e-300, 1e-7]),
                             min_size=2, max_size=4),
        "q": _POWER,
        "r": _POWER,
    }),
}


def _assert_contract_per_command(strategies, examples, floor=5):
    # each command draws its own fixed share of examples, so a change to one
    # command's strategy leaves how often the others run as it was; at least
    # floor examples of each share pass the config checks and run
    for command, configs in strategies.items():
        codes = []

        @settings(max_examples=examples, deadline=None, derandomize=True)
        @given(config=configs)
        def check(config):
            codes.append(_assert_cli_contract(command, config))

        check()
        ran = sum(code != 2 for code in codes)
        assert ran >= floor, (command, ran, len(codes))


def test_cli_contract_holds_for_costly_commands():
    _assert_contract_per_command(_COSTLY_COMMAND_CONFIGS, 50)


# The analysis commands, on mostly valid configs with potentials of small
# support. Couplings are mostly of order one, with magnitudes 1e20, 1e150
# and 1e300 of either sign mixed in, where the sandwich overflows. Fields
# that scale cost are capped: dense windows (window_radii <= 160,
# expansion-check's window_radius <= 80), Stone and
# dense-reference times (times <= 5, observe_radius <= 8; perturbed-decay's
# t_max <= 20, per_decade 8, observe_radius <= 4) and expansion orders
# (<= 4 at zero, <= 3 at sixteen); window and time fields are always
# present, since their defaults diagonalise larger matrices or run longer.
# Values past each limit are mixed in, all refused before anything runs:
# orders past the casters' bounds, and Stone series past 2^22 kernel entries
# (perturbed-decay grids from t_min <= 1e-300 at 64 per decade, and 253
# stone-vs-spectral times at observe_radius 64).
_COUPLING = st.sampled_from([sign * mag for mag in (1e20, 1e150, 1e300) for sign in (1.0, -1.0)])
_SMALL_POTENTIAL = st.fixed_dictionaries(
    {"delta": st.floats(-4.0, 4.0) | _COUPLING}, optional={"site": st.integers(-3, 3)}
) | st.integers(-2, 1).flatmap(
    lambda lo: st.integers(0, 3).flatmap(
        lambda extra: st.fixed_dictionaries({
            "support": st.just([lo, lo + extra]),
            "values": st.lists(
                st.floats(-1.0, 1.0) | _COUPLING, min_size=extra + 1, max_size=extra + 1
            ),
        })
    )
)


def _pair(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True).map(sorted)


_ANALYSIS_COMMAND_CONFIGS = {
    "eig-scan": st.fixed_dictionaries(
        {"window_radii": st.lists(st.integers(8, 160), min_size=2, max_size=3)},
        optional={"potential": _SMALL_POTENTIAL},
    ),
    "expansion-check": st.fixed_dictionaries(
        {"window_radius": st.integers(64, 80)},
        optional={
            "threshold": st.sampled_from(["zero", "sixteen", "both"]),
            "orders_zero": st.lists(st.integers(-3, 4), min_size=1, max_size=2)
            | st.sampled_from([[91], [10**8]]),
            "orders_sixteen": st.lists(st.integers(-1, 3), min_size=1, max_size=2)
            | st.sampled_from([[205], [10**8]]),
            "s_margin": st.floats(0.1, 4.0),
        },
    ),
    "minv-probe": st.fixed_dictionaries({}, optional={
        "potential": _SMALL_POTENTIAL,
        "grid_zero": _pair(0.0, 2.5),
        "grid_sixteen": _pair(0.0, 2.5),
    }),
    "stone-vs-spectral": st.fixed_dictionaries(
        {"potentials": st.lists(st.none() | _SMALL_POTENTIAL, min_size=1, max_size=2),
         "times": st.lists(st.floats(0.0, 5.0), min_size=1, max_size=2),
         "observe_radius": st.integers(1, 8)},
        optional={"n_pairs": st.integers(1, 5)},
    )
    | st.fixed_dictionaries(
        {"times": st.floats(0.0, 5.0).map(lambda t: [t] * 253), "observe_radius": st.just(64)},
    ),
    "perturbed-decay": st.fixed_dictionaries(
        {"t_min": st.floats(1.0, 2.0), "t_max": st.floats(15.0, 20.0),
         "per_decade": st.just(8), "observe_radius": st.integers(1, 4)},
        optional={"potential": _SMALL_POTENTIAL},
    )
    | st.fixed_dictionaries(
        {"t_min": st.sampled_from([5e-324, 1e-300]), "t_max": st.floats(15.0, 20.0),
         "per_decade": st.just(64), "observe_radius": st.integers(8, 256)},
    ),
    "stationary-phase": st.fixed_dictionaries({}, optional={
        "branch": st.sampled_from(["minus_cos", "plus_cos"]),
        "s_values": st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
        "interval": _pair(-4.0, 1.0),
    }),
}


def test_cli_contract_holds_for_analysis_commands():
    _assert_contract_per_command(_ANALYSIS_COMMAND_CONFIGS, 50)


def test_out_of_range_field_exits_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, "cfg", {"points": 0})
    code = main(["resolvent-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "points" in capsys.readouterr().err


def test_malformed_json_exits_two(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code = main(["stationary-phase", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name, (_, _, summary, _) in cli._COMMANDS.items():
        assert name in text and summary in text
    # one parser serves every command, so each command's help is that page
    for name in cli._COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == text
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert "invalid choice: 'no-such-command'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# a full run: report, manifest, defaults


def test_stationary_phase_default_run(tmp_path, monkeypatch):
    # without threadpoolctl --threads cannot be applied
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    out = tmp_path / "run"
    assert main(["stationary-phase", "--out", str(out), "--threads", "1"]) == 0

    report = json.loads((out / "roots.json").read_text())
    assert report["band_pass"] is True
    assert "paper_claim" in report

    by_s = {round(entry["s"], 9): entry for entry in report["results"]}
    flat = by_s[0.0]
    assert sorted(r["order"] for r in flat["roots"]) == [2, 4]
    assert flat["decay_order_prediction"] == "1/4"
    assert flat["certified"] is True
    crit = by_s[round(-6.0 * np.sqrt(3.0), 9)]
    [root] = crit["roots"]
    assert root["order"] == 3
    assert root["x"] == pytest.approx(-2.0 * np.pi / 3.0, abs=1e-10)
    assert crit["decay_order_prediction"] == "1/3"
    assert crit["certified"] is True

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "stationary-phase"
    assert manifest["exit_code"] == 0
    assert manifest["seed"] == 0
    assert manifest["threads"] is None
    assert manifest["outputs"] == ["roots.json"]
    assert manifest["wall_time_seconds"] >= 0.0
    assert manifest["warnings"] == []
    # defaults are materialised into the recorded config
    assert manifest["config"]["branch"] == "minus_cos"
    assert manifest["config"]["interval"] == pytest.approx([-np.pi, 0.0])


def test_stationary_phase_reruns_byte_identical(tmp_path):
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["stationary-phase", "--out", str(out)]) == 0
        blobs.append((out / "roots.json").read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# seeded sampling: same seed, same bytes


RESOLVENT_SMALL = {
    "points": 3,
    "mu_values": [0.7, 1.3],
    "potentials": [None, {"delta": 0.5}],
}


def _run_resolvent(tmp_path, name, seed):
    cfg = _write_config(tmp_path, name, RESOLVENT_SMALL)
    out = tmp_path / name
    code = main(["resolvent-check", "--config", cfg, "--out", str(out), "--seed", str(seed)])
    return code, out


def test_resolvent_check_same_seed_same_bytes(tmp_path):
    code_a, out_a = _run_resolvent(tmp_path, "a", 3)
    code_b, out_b = _run_resolvent(tmp_path, "b", 3)
    assert code_a == 0 and code_b == 0
    assert (out_a / "checks.csv").read_bytes() == (out_b / "checks.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    report = json.loads((out_a / "report.json").read_text())
    assert report["max_rel_err"] <= report["tolerance"]
    assert report["potentials"] == ["free", "[0,0]:0.5"]


def test_resolvent_report_shows_each_oracle_run(tmp_path):
    _, out = _run_resolvent(tmp_path, "a", 3)
    report = json.loads((out / "report.json").read_text())
    rows = (out / "checks.csv").read_text().splitlines()[1:]
    drawn = {}
    for row in rows:
        mu, n, m = row.split(",")[:3]
        drawn.setdefault(float(mu), set()).update((abs(int(n)), abs(int(m))))
    assert [run["mu"] for run in report["oracle"]] == sorted(drawn)
    for run in report["oracle"]:
        # the delta potential sits at 0, so the drawn sites set the block
        assert run["half_width"] == max(2, *drawn[run["mu"]])
        assert len(run["eps"]) == len(run["tail_levels"]) == 4
        assert run["eps"] == sorted(run["eps"])
        # each doubling of eps takes one doubling level off the free tail
        assert np.diff(run["tail_levels"]).tolist() == [-1, -1, -1]


def test_resolvent_check_seed_changes_sample(tmp_path):
    _, out_a = _run_resolvent(tmp_path, "a", 3)
    _, out_b = _run_resolvent(tmp_path, "c", 4)
    assert (out_a / "checks.csv").read_bytes() != (out_b / "checks.csv").read_bytes()


def test_resolvent_checks_csv_reads_back_as_its_report(tmp_path):
    # a potential label such as [-1,1]:0.3;... holds a comma, so its cell is
    # quoted and every row keeps the header's nine fields
    out = tmp_path / "o"
    assert main(["resolvent-check", "--out", str(out)]) == 0
    with open(out / "checks.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    report = json.loads((out / "report.json").read_text())
    assert len(rows) == 25 * 3 and all(len(row) == 9 and None not in row for row in rows)
    assert [row["potential"] for row in rows[:3]] == report["potentials"]
    assert max(float(row["rel_err"]) for row in rows) == report["max_rel_err"]


# ---------------------------------------------------------------------------
# a failing band check (exit 1)


def test_expansion_band_failure_exits_one(tmp_path, capsys, monkeypatch):
    # No finite grid fits the slope to within 1e-6 of its exact order, so
    # the band fails.  The run must report that honestly: exit 1,
    # band_pass false, manifest still written.  The expected order after
    # N = 1 is three, as the order-two coefficient vanishes identically.
    monkeypatch.setitem(cli._EXPANSION_TOLERANCES, "zero", 1e-6)
    cfg = _write_config(tmp_path, "cfg", {"threshold": "zero", "orders_zero": [1]})
    out = tmp_path / "out"
    code = main(["expansion-check", "--config", cfg, "--out", str(out)])
    assert code == 1
    assert "check failed" in capsys.readouterr().err

    report = json.loads((out / "report.json").read_text())
    assert report["band_pass"] is False
    [case] = report["cases"]
    assert case["expected"] == 3.0
    assert case["band_pass"] is False and case["tolerance"] == 1e-6
    assert 2.5 < case["slope"] < 3.3

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 1
    assert "remainder_zero_N1.csv" in manifest["outputs"]


def test_perturbed_decay_reports_where_its_sups_sit(tmp_path):
    # the sup of delta 0.5 sits near the diagonal at n = -2.6 t^(1/4), -6
    # to -8 over t = 50..100: inside radius 16, past the edge of radius 4,
    # where the window's corner holds it. Horizons this short fit no rate
    # near 1/4, so the band fails (exit 1) and the report is still written.
    for radius, at_edge in ((16, False), (4, True)):
        cfg = _write_config(tmp_path, f"r{radius}", {
            "t_min": 50.0, "t_max": 100.0, "per_decade": 24, "observe_radius": radius,
        })
        out = tmp_path / f"r{radius}"
        assert main(["perturbed-decay", "--config", cfg, "--out", str(out)]) == 1
        fit = json.loads((out / "fit.json").read_text())
        sites = fit["sup_sites"]
        assert len(sites) == len(fit["stone_budgets"]) == 8
        if at_edge:
            assert sites == [[-4, -4]] * 8
        else:
            assert all(-8 <= n <= -6 and -8 <= m <= -6 for n, m in sites)
        assert fit["sup_at_window_edge"] is at_edge

def test_stone_reports_show_quadrature_budgets(tmp_path):
    # t = 1..2 is far too short for the claimed rate: the band fails, exit 1
    cfg = _write_config(tmp_path, "decay", {
        "t_min": 1.0, "t_max": 2.0, "per_decade": 32, "observe_radius": 2,
    })
    out = tmp_path / "decay"
    assert main(["perturbed-decay", "--config", cfg, "--out", str(out)]) == 1
    fit = json.loads((out / "fit.json").read_text())
    assert len(fit["stone_budgets"]) == 11
    assert all(0.25 <= b <= 8.0 for b in fit["stone_budgets"])
    assert 0.0 < fit["stone_max_error_estimate"] <= 1e-8

    cfg = _write_config(tmp_path, "svs", {
        "potentials": [None, {"delta": 0.5}], "times": [1.0, 20.0], "observe_radius": 2,
    })
    out = tmp_path / "svs"
    assert main(["stone-vs-spectral", "--config", cfg, "--out", str(out)]) == 0
    for combo in json.loads((out / "report.json").read_text())["combos"]:
        assert 0.25 <= combo["stone_budget"] <= 8.0
        assert combo["stone_nodes"] > 0
        assert combo["stone_error_estimate"] <= 1e-8


# ---------------------------------------------------------------------------
# output directory resolution


@pytest.mark.parametrize("command,kinds", [
    ("free-decay", ["schrodinger_free_bilap"]),
    ("beam-decay", ["beam_cos", "beam_sinc"]),
])
def test_free_decay_reports_ring_sizes(tmp_path, command, kinds):
    cfg = _write_config(tmp_path, "ring", {"t_min": 1.0, "t_max": 300.0, "per_decade": 4})
    out = tmp_path / "ring"
    main([command, "--config", cfg, "--out", str(out)])
    sizes = json.loads((out / "fit.json").read_text())["ring_sizes"]
    rows = sorted(out.glob("*.csv"))[0].read_text().splitlines()[1:]
    times = [float(row.split(",")[0]) for row in rows]
    assert len(sizes) == len(times) == 11
    for kind in kinds:
        assert sizes == [propagator.ring_size(t, kind) for t in times]
        assert sizes[-1] == 2 * (propagator.free_kernel_full(times[-1], kind).size - 1)
    assert sizes[0] == 256 < sizes[-1]


_CHEAP_CONFIGS = {
    "free-decay": {"t_min": 1.0, "t_max": 300.0, "per_decade": 4},
    "perturbed-decay": {"t_min": 1.0, "t_max": 20.0, "per_decade": 8, "observe_radius": 2},
    "beam-decay": {"t_min": 1.0, "t_max": 300.0, "per_decade": 4},
    "resolvent-check": {"points": 2, "mu_values": [1.0]},
    "expansion-check": {"threshold": "sixteen", "orders_sixteen": [0]},
    "minv-probe": {},
    "regular-check": {},
    "eig-scan": {"window_radii": [16, 32]},
    "stone-vs-spectral": {"times": [1.0], "observe_radius": 2},
    "stationary-phase": {},
    "strichartz": {"T_values": [10.0, 20.0]},
    "knapp": {},
}


def test_output_directory_holds_exactly_the_manifest_outputs(tmp_path):
    assert list(_CHEAP_CONFIGS) == list(cli._COMMANDS)
    codes = set()
    for command, payload in _CHEAP_CONFIGS.items():
        out = tmp_path / command
        codes.add(main([command, "--config", _write_config(tmp_path, command, payload),
                        "--out", str(out)]))
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["manifest.json"])
    # a failed band writes every file too
    assert codes == {0, 1}


def test_output_path_through_a_file_exits_two_before_running(tmp_path, capsys, monkeypatch):
    def not_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "stationary_points", not_run)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "nowhere")
    cfg = _write_config(tmp_path, "cfg", {"output_dir": str(blocker / "sub")})
    # a file, a path below one, a dangling link, and output_dir below a file
    for argv in (["--out", str(blocker)], ["--out", str(blocker / "sub")],
                 ["--out", str(link)], ["--config", cfg]):
        assert main(["stationary-phase", *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "usage error" in err and "not a directory" in err
    assert blocker.read_text() == "kept\n"


def test_output_dir_from_config(tmp_path):
    target = tmp_path / "from_config"
    cfg = _write_config(tmp_path, "cfg", {"output_dir": str(target)})
    assert main(["stationary-phase", "--config", cfg]) == 0
    assert (target / "roots.json").exists()


def test_out_flag_overrides_config(tmp_path):
    loser = tmp_path / "loser"
    winner = tmp_path / "winner"
    cfg = _write_config(tmp_path, "cfg", {"output_dir": str(loser)})
    assert main(["stationary-phase", "--config", cfg, "--out", str(winner)]) == 0
    assert (winner / "roots.json").exists()
    assert not loser.exists()


# ---------------------------------------------------------------------------
# infinite spatial exponent goes through the config path


def test_strichartz_inf_r(tmp_path):
    cfg = _write_config(tmp_path, "cfg", {"r": "inf", "T_values": [100.0, 200.0]})
    out = tmp_path / "out"
    assert main(["strichartz", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["r"] == "inf"
    assert report["expect"] == "bounded"
    assert report["band_pass"] is True
    assert report["spread"] <= 0.1


# ---------------------------------------------------------------------------
# deterministic writers


def test_write_json_round_trips_doubles(tmp_path):
    values = [1.0 / 3.0, 0.1, 6.0 * np.sqrt(3.0), 1e-300, -2.5e17]
    path = tmp_path / "x.json"
    write_json(path, {"vals": values, "one": 1, "flag": True, "none": None})
    back = json.loads(path.read_text())
    # seventeen significant digits recover every double exactly
    assert back["vals"] == values
    assert back["one"] == 1
    assert back["flag"] is True
    assert back["none"] is None


def test_write_json_sorts_keys(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, {"z": 1, "alpha": 2})
    write_json(b, {"alpha": 2, "z": 1})
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.index('"alpha"') < text.index('"z"')


def test_write_json_numpy_and_nonfinite(tmp_path):
    path = tmp_path / "n.json"
    write_json(
        path,
        {"i": np.int64(7), "f": np.float64(0.25), "arr": np.arange(3.0),
         "nan": float("nan"), "inf": float("inf")},
    )
    back = json.loads(path.read_text())  # stays parseable JSON
    assert back["i"] == 7
    assert back["f"] == 0.25
    assert back["arr"] == [0.0, 1.0, 2.0]
    assert back["nan"] == "nan"
    assert back["inf"] == "inf"


def test_write_csv_cell_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["name", "k", "value"], [("row", 3, 1.0 / 3.0)])
    header, row = path.read_text().splitlines()
    assert header == "name,k,value"
    name, k, value = row.split(",")
    assert name == "row"
    assert k == "3"
    assert float(value) == 1.0 / 3.0
    # RFC 4180: a cell with a comma or a double quote is quoted, its quotes doubled
    write_csv(path, ["a", "b", "c"], [("[-1,1]:0.5", 'say "hi"', "plain")])
    assert path.read_text() == 'a,b,c\n"[-1,1]:0.5","say ""hi""",plain\n'
    with open(path, newline="") as f:
        assert list(csv.reader(f))[1] == ["[-1,1]:0.5", 'say "hi"', "plain"]


# ---------------------------------------------------------------------------
# svg rendering


def test_svg_contains_plot_elements():
    svg = render_loglog_svg(
        [{"label": "decay", "x": [1.0, 10.0, 100.0], "y": [1.0, 0.5, 0.25]}],
        "time",
        "sup norm",
        "kernel decay",
        ["slope -0.25"],
    )
    assert "<svg" in svg
    assert "kernel decay" in svg
    assert "slope -0.25" in svg
    assert "decay" in svg


def test_svg_rejects_missing_or_empty_series():
    with pytest.raises(ConfigError, match="no series"):
        render_loglog_svg([], "x", "y", "t")
    with pytest.raises(ConfigError, match="empty"):
        render_loglog_svg([{"label": "e", "x": [], "y": []}], "x", "y", "t")


def test_svg_rejects_nonpositive_data():
    with pytest.raises(ConfigError, match="strictly positive"):
        render_loglog_svg(
            [{"label": "bad", "x": [1.0, 2.0], "y": [1.0, -1.0]}], "x", "y", "t"
        )
