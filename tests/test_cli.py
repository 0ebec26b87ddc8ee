"""Command line front end: exit codes, file outputs, byte-level determinism."""

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilap import cli, propagator, spectral
from bilap.cli import ConfigError, main, render_loglog_svg, write_csv, write_json


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
        ("free-decay", {"band": [None, 1]}),
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
        # t |E| 2^-52 = 2.2e4 at |V| = 1e20: a bound state's phase is noise
        ("stone-vs-spectral", {"potentials": [{"delta": -1e20}], "times": [1.0], "observe_radius": 2}),
        ("stone-vs-spectral", {"potentials": [{"delta": 1e20}], "times": [1.0], "observe_radius": 2}),
        # the oracle's free tails would hold 48,000,058 and 12.0M sites
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
        ("eig-scan", {"potential": {"delta": 0.5, "site": 600}}, "discrete_window"),
        (
            "eig-scan",
            {"potential": {"delta": 0.5, "site": 600}, "discrete_window": 2400},
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
            "discrete_window": 80,
            "window_radii": [22, 40],
        },
    )
    assert main(["eig-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_stone_reference_window_needs_only_the_support(tmp_path):
    # the dense reference window (radius 22) holds the support and the
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


def test_localization_refusal_exits_two_without_output(tmp_path, capsys):
    # discrete_window 80 cannot localise the shallow bound state of delta 0.5
    cfg = _write_config(tmp_path, "cfg", {"discrete_window": 80})
    out = tmp_path / "o"
    assert main(["eig-scan", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "numerical refusal" in err and "localization ratio" in err
    assert not out.exists()
    # nested directories the run made are all removed again
    nested = tmp_path / "a" / "b" / "c"
    assert main(["eig-scan", "--config", cfg, "--out", str(nested)]) == 2
    assert not (tmp_path / "a").exists()
    # an output directory the run did not create is left in place
    out.mkdir()
    assert main(["eig-scan", "--config", cfg, "--out", str(out)]) == 2
    assert out.is_dir()


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


def test_library_warnings_reach_stderr_and_manifest(tmp_path, capsys):
    # a lower edge that is not regular: Stone truncates near it, warns once,
    # and misses its tolerance there; the run reports both and goes on
    payload = {"potentials": [{"support": [-1, 1], "values": [0.5, -0.8, 0.5]}],
               "times": [1.0], "observe_radius": 1}
    out = tmp_path / "o"
    code = main(["stone-vs-spectral", "--config", _write_config(tmp_path, "cfg", payload), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    warned = json.loads((out / "manifest.json").read_text())["warnings"]
    assert len(warned) == 2 and "'zero' not regular" in warned[0] and "error estimate" in warned[1]
    assert [line for line in err.splitlines() if ": warning: " in line] == [
        f"bilap stone-vs-spectral: warning: {w}" for w in warned
    ]


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config=_CONFIG)
def test_cli_contract_holds_for_arbitrary_configs(config):
    _assert_cli_contract("regular-check", config)


# The costly commands draw mostly valid configs, so that most examples
# run the command; junk values reach the number and list casters through
# regular-check's potential above. Fields that scale cost are capped (t_max
# and T_values <= 1e3, per_decade <= 8, epsilons >= 1e-3), and t_max and
# per_decade are always present, since their defaults start longer runs.
_POWER = st.floats(1.0, 64.0)
_TOL = st.floats(0.0, 1.0)
_DECAY = {"t_max": st.floats(1e2, 1e3), "per_decade": st.integers(4, 8)}
_DECAY_OPTIONAL = {
    "t_min": st.floats(1e-3, 1e2),
    "band": st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=2, unique=True).map(sorted),
}
_COSTLY_COMMAND_CONFIGS = (
    st.tuples(
        st.just("free-decay"),
        st.fixed_dictionaries(_DECAY, optional={
            **_DECAY_OPTIONAL,
            "kind": st.sampled_from(list(cli.FREE_KINDS)),
        }),
    )
    | st.tuples(
        st.just("beam-decay"), st.fixed_dictionaries(_DECAY, optional=_DECAY_OPTIONAL)
    )
    | st.tuples(
        st.just("strichartz"),
        st.fixed_dictionaries(
            {"T_values": st.lists(st.floats(0.0, 1e3), min_size=2, max_size=3)},
            optional={
                "q": _POWER,
                "r": _POWER | st.just("inf"),
                "ratio_tol": _TOL,
                "expect": st.sampled_from(["bounded", "growth"]),
            },
        ),
    )
    | st.tuples(
        st.just("knapp"),
        st.fixed_dictionaries({}, optional={
            "epsilons": st.lists(st.floats(1e-3, 0.1), min_size=2, max_size=4),
            "q": _POWER,
            "r": _POWER,
            "lhs_tol": _TOL,
            "rhs_tol": _TOL,
        }),
    )
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command_config=_COSTLY_COMMAND_CONFIGS)
def test_cli_contract_holds_for_costly_commands(command_config):
    _assert_cli_contract(*command_config)


# The analysis commands, on mostly valid configs with potentials of small
# support. Couplings are mostly of order one, with magnitudes 1e20, 1e150
# and 1e300 of either sign mixed in, where the sandwich overflows. Fields
# that scale cost are capped: dense windows (discrete_window and
# window_radii <= 160, expansion-check's window_radius <= 80), Stone and
# dense-reference times (times <= 5, observe_radius <= 8; perturbed-decay's
# t_max <= 20, per_decade 8, observe_radius <= 4) and expansion orders
# (<= 4 at zero, <= 3 at sixteen); window and time fields are always
# present, since their defaults diagonalise larger matrices or run longer.
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


_ANALYSIS_COMMAND_CONFIGS = (
    st.tuples(
        st.just("eig-scan"),
        st.fixed_dictionaries(
            {"discrete_window": st.integers(8, 160),
             "window_radii": st.lists(st.integers(8, 160), min_size=2, max_size=3)},
            optional={"potential": _SMALL_POTENTIAL},
        ),
    )
    | st.tuples(
        st.just("expansion-check"),
        st.fixed_dictionaries(
            {"window_radius": st.integers(64, 80)},
            optional={
                "threshold": st.sampled_from(["zero", "sixteen", "both"]),
                "orders_zero": st.lists(st.integers(-3, 4), min_size=1, max_size=2),
                "orders_sixteen": st.lists(st.integers(-1, 3), min_size=1, max_size=2),
                "s_margin": st.floats(0.1, 4.0),
                "tol_zero": _TOL,
                "tol_sixteen": _TOL,
            },
        ),
    )
    | st.tuples(
        st.just("minv-probe"),
        st.fixed_dictionaries({}, optional={
            "potential": _SMALL_POTENTIAL,
            "grid_zero": _pair(0.0, 2.5),
            "grid_sixteen": _pair(0.0, 2.5),
            "min_slope_zero": st.floats(-1.0, 2.0),
            "min_slope_sixteen": st.floats(-1.0, 2.0),
            "bound_cap": st.floats(0.0, 1e3),
        }),
    )
    | st.tuples(
        st.just("stone-vs-spectral"),
        st.fixed_dictionaries(
            {"potentials": st.lists(st.none() | _SMALL_POTENTIAL, min_size=1, max_size=2),
             "times": st.lists(st.floats(0.0, 5.0), min_size=1, max_size=2),
             "observe_radius": st.integers(1, 8)},
            optional={"n_pairs": st.integers(1, 5), "tolerance": _TOL},
        ),
    )
    | st.tuples(
        st.just("perturbed-decay"),
        st.fixed_dictionaries(
            {"t_min": st.floats(1.0, 2.0), "t_max": st.floats(15.0, 20.0),
             "per_decade": st.just(8), "observe_radius": st.integers(1, 4)},
            optional={"potential": _SMALL_POTENTIAL},
        ),
    )
    | st.tuples(
        st.just("stationary-phase"),
        st.fixed_dictionaries({}, optional={
            "branch": st.sampled_from(["minus_cos", "plus_cos"]),
            "s_values": st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
            "interval": _pair(-4.0, 1.0),
            "certify": st.booleans(),
        }),
    )
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command_config=_ANALYSIS_COMMAND_CONFIGS)
def test_cli_contract_holds_for_analysis_commands(command_config):
    _assert_cli_contract(*command_config)


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
    for name in cli._COMMANDS:
        assert name in text


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
    assert manifest["config"]["certify"] is True
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
        assert run["tail_solves"] == len(run["eps"]) == len(run["rung_radii"]) == 4
        assert run["eps"] == sorted(run["eps"])
        assert run["rung_radii"] == sorted(run["rung_radii"], reverse=True)


def test_resolvent_check_seed_changes_sample(tmp_path):
    _, out_a = _run_resolvent(tmp_path, "a", 3)
    _, out_b = _run_resolvent(tmp_path, "c", 4)
    assert (out_a / "checks.csv").read_bytes() != (out_b / "checks.csv").read_bytes()


# ---------------------------------------------------------------------------
# a failing band check (exit 1)


def test_expansion_band_failure_exits_one(tmp_path, capsys):
    # No finite grid fits the slope to within 1e-6 of its exact order, so
    # the band fails.  The run must report that honestly: exit 1,
    # band_pass false, manifest still written.  The expected order after
    # N = 1 is three, as the order-two coefficient vanishes identically.
    cfg = _write_config(
        tmp_path, "cfg", {"threshold": "zero", "orders_zero": [1], "tol_zero": 1e-6}
    )
    out = tmp_path / "out"
    code = main(["expansion-check", "--config", cfg, "--out", str(out)])
    assert code == 1
    assert "check failed" in capsys.readouterr().err

    report = json.loads((out / "report.json").read_text())
    assert report["band_pass"] is False
    [case] = report["cases"]
    assert case["expected"] == 3.0
    assert case["band_pass"] is False
    assert 2.5 < case["slope"] < 3.3

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 1
    assert "remainder_zero_N1.csv" in manifest["outputs"]


def test_perturbed_decay_reports_where_its_sups_sit(tmp_path):
    # the sup of delta 0.5 sits near the diagonal at n = -2.6 t^(1/4), -6
    # to -8 over t = 50..100: inside radius 16, past the edge of radius 4,
    # where the window's corner holds it
    for radius, at_edge in ((16, False), (4, True)):
        cfg = _write_config(tmp_path, f"r{radius}", {
            "t_min": 50.0, "t_max": 100.0, "per_decade": 24, "observe_radius": radius,
            "band": [-1.0, 1.0],
        })
        out = tmp_path / f"r{radius}"
        assert main(["perturbed-decay", "--config", cfg, "--out", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        sites = fit["sup_sites"]
        assert len(sites) == len(fit["stone_budgets"]) == 8
        if at_edge:
            assert sites == [[-4, -4]] * 8
        else:
            assert all(-8 <= n <= -6 and -8 <= m <= -6 for n, m in sites)
        assert fit["sup_at_window_edge"] is at_edge

def test_stone_reports_show_quadrature_budgets(tmp_path):
    cfg = _write_config(tmp_path, "decay", {
        "t_min": 1.0, "t_max": 2.0, "per_decade": 32, "observe_radius": 2,
        "band": [-1.0, 1.0],
    })
    out = tmp_path / "decay"
    assert main(["perturbed-decay", "--config", cfg, "--out", str(out)]) == 0
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
    cfg = _write_config(tmp_path, "ring", {
        "t_min": 1.0, "t_max": 300.0, "per_decade": 4, "band": [-1.0, 1.0],
    })
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
