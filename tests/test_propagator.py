"""Propagator evaluation routes: spectral truncation, FFT ring, band quadrature."""

import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from bilap import propagator, spectral

from bilap.lattice import (
    SPEED_BOUND,
    PotentialSpec,
    build_hamiltonian,
)
from bilap.propagator import (
    FLOWS,
    FREE_KINDS,
    KINDS,
    KernelSlice,
    PropagatorRequest,
    auto_window_radius,
    free_kernel_fft,
    free_kernel_full,
    kernel_spectral,
    pac_split,
    ring_size,
    ring_weight,
    stone_kernel_slice,
)
from bilap.spectral import SingularSandwichError, decompose_potential, eigensystem

import oracles

DELTA_HALF = PotentialSpec.delta(0.5)
NONREGULAR = PotentialSpec((-1, 1), [0.5, -0.8, 0.5])
GENERIC_SMALL = PotentialSpec((-1, 1), [0.3, -0.2, 0.1])
FIVE_SITE = PotentialSpec((-2, 2), [0.5, 0.6, 0.7, 0.45, 0.55])


def _assemble(t, V, targets, budget, phase="schrodinger"):
    # one Stone pass at one time
    sys_ = None if V is None else decompose_potential(V)
    entries, nodes = propagator._stone_assemble(np.array([t]), sys_, targets, phase, budget)
    return entries[0], nodes


def _req(kind, V, t, observe):
    return PropagatorRequest(kind, V, t, auto_window_radius(t, observe), observe)


def _banded_eigensystem(V, window_radius):
    # dense reference eigensystem, band part only
    ev, vecs = np.linalg.eigh(build_hamiltonian(V, window_radius))
    keep = (ev > -1e-6) & (ev < 16.0 + 1e-6)
    return ev, vecs, keep


def test_request_validation():
    with pytest.raises(ValueError, match="unknown kind"):
        PropagatorRequest("heat", None, 1.0, 64, 0)
    with pytest.raises(ValueError, match="finite"):
        PropagatorRequest("schrodinger_h", None, np.nan, 64, 0)
    with pytest.raises(ValueError, match="free"):
        PropagatorRequest("schrodinger_free_bilap", DELTA_HALF, 1.0, 64, 0)
    with pytest.raises(ValueError, match="causal range"):
        PropagatorRequest("schrodinger_h", None, 10.0, 64, 0)
    with pytest.raises(ValueError, match="observe_radius"):
        PropagatorRequest("schrodinger_h", None, 0.0, 16, 32)
    with pytest.raises(ValueError, match="potential support"):
        PropagatorRequest("schrodinger_h", PotentialSpec((-9, 9), np.ones(19)), 0.0, 9, 0)


def test_kernel_slice_validation():
    with pytest.raises(ValueError, match="entries"):
        KernelSlice(0.0, 2, np.eye(3), "spectral")
    with pytest.raises(ValueError, match="method"):
        KernelSlice(0.0, 1, np.eye(3), "exact")
    sl = KernelSlice(0.0, 1, np.eye(3), "spectral")
    assert sl.entry(-1, -1) == 1.0
    with pytest.raises(ValueError, match="observation window"):
        sl.entry(2, 0)


def test_auto_window_covers_causal_range():
    for t, r in ((0.0, 0), (3.0, 5), (250.0, 32)):
        n = auto_window_radius(t, r)
        PropagatorRequest("schrodinger_h", None, t, n, r)  # must not raise


def test_time_zero_is_identity_for_all_kinds():
    for kind in KINDS:
        V = DELTA_HALF if kind in ("schrodinger_h", "beam_cos", "beam_sinc") else None
        sl = kernel_spectral(PropagatorRequest(kind, V, 0.0, 32, 4))
        np.testing.assert_allclose(sl.entries, np.eye(9), atol=1e-12)


def test_unitarity_of_fourth_difference_flow():
    # observed at twice the causal window, the kernel keeps all of the norm
    rng = np.random.default_rng(0)
    psi0 = rng.normal(size=17) + 1j * rng.normal(size=17)
    norm0 = np.linalg.norm(psi0)
    for t in (0.7, 4.0):
        r = 2 * auto_window_radius(t, 8)
        vec = np.zeros(2 * r + 1, dtype=complex)
        vec[r - 8 : r + 9] = psi0
        out = kernel_spectral(_req("schrodinger_h", DELTA_HALF, t, r)).entries @ vec
        assert np.linalg.norm(out) == pytest.approx(norm0, abs=1e-10)


def test_kernel_spectral_matches_dense_oracle():
    # the Chebyshev route against scipy's eigh of the assembled window for
    # every kind, with delta -5 (a state below 0) and delta 5 (a state above
    # 16); its error is relative to the flow's largest modulus on the hull
    # [min(0, V), 16 + max(0, V)], cosh(t sqrt 5) for the beam flows at -5
    r = 6
    for kind in KINDS:
        flow, free = propagator._KIND_TABLE[kind][0], kind in FREE_KINDS
        for V in [None] if free else [PotentialSpec.delta(-5.0), PotentialSpec.delta(5.0)]:
            for t in (0.0, 1.0, 5.0, 20.0):
                n = auto_window_radius(t, r)
                if kind == "schrodinger_free_lap":
                    h = oracles.neg_laplacian_matrix(n)
                else:
                    h = oracles.dense_hamiltonian(2 * n + 1, None if V is None else V.on_window(n))
                want = oracles.matrix_function(lambda ev: FLOWS[flow](t, ev), h)
                got = kernel_spectral(PropagatorRequest(kind, V, t, n, r)).entries
                lo = 0.0 if V is None else min(0.0, V.values.min())
                scale = max(1.0, abs(FLOWS[flow](t, np.array(lo))))
                err = np.abs(got - want[n - r : n + r + 1, n - r : n + r + 1]).max()
                assert err <= 1e-13 * scale, (kind, V, t, err)


@pytest.mark.parametrize(
    "V", [DELTA_HALF, PotentialSpec((-1, 1), [1.0, -0.5, 0.8])], ids=["delta", "three-site"]
)
def test_stone_meets_chebyshev_reference_at_large_time(V):
    # at t = 300 the reference window has radius 3,752, past any dense
    # diagonalisation a test could afford; Stone's half-budget estimate
    # (1.2e-11 and 3.7e-12) bounds its distance from the reference
    # (5.5e-14 and 3.4e-14)
    t, r = 300.0, 2
    sl = stone_kernel_slice(t, V, r)
    ref = pac_split(V, auto_window_radius(t, r)).kernel_ac(t, r)
    assert np.abs(sl.entries - ref.entries).max() <= sl.error_estimate


@pytest.mark.parametrize(
    "kind,sym",
    [
        ("schrodinger_free_lap", lambda m: np.exp(-2.0j * m)),
        ("schrodinger_free_bilap", lambda m: np.exp(-2.0j * m**2)),
        ("beam_cos", lambda m: np.cos(2.0 * m)),
        ("beam_sinc", lambda m: np.sinc(2.0 * m / np.pi)),
    ],
)
def test_free_kernels_match_symbol_integral(kind, sym):
    # sym expresses each weight through the second-difference symbol at t = 2
    t = 2.0
    fft_vals = free_kernel_fft(t, kind, 4)
    for k in range(5):
        want = oracles.symbol_kernel(sym, k)
        assert fft_vals[k] == pytest.approx(want, abs=1e-8)
    sl = kernel_spectral(_req(kind, None, t, 4))
    for k in range(5):
        assert sl.entry(k, 0) == pytest.approx(fft_vals[k], abs=1e-8)


def test_pac_split_free_keeps_everything():
    split = pac_split(None, 48)
    assert split.bound_states == []
    got = split.kernel_ac(1.5, 4).entries
    want = kernel_spectral(PropagatorRequest("schrodinger_h", None, 1.5, 48, 4)).entries
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_pac_split_removes_bound_state():
    r = 80
    split = pac_split(PotentialSpec.delta(5.0), auto_window_radius(2.0, r))
    assert len(split.bound_states) == 1
    lam, psi = split.bound_states[0]
    assert lam > 16.0
    # the state falls by e^-0.33 per site, below 1e-11 past |n| = 80, so
    # there the continuous-part kernel annihilates it at every time, and at
    # t = 0 it is a projection
    state = psi(np.arange(-r, r + 1))
    ac = split.kernel_ac(2.0, r).entries
    assert np.abs(ac @ state).max() < 1e-10
    proj = split.kernel_ac(0.0, r).entries
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)


def test_pac_split_bound_plus_continuous_is_everything():
    V = PotentialSpec.delta(5.0)
    split = pac_split(V, 48)
    t, r = 2.0, 5
    total = kernel_spectral(PropagatorRequest("schrodinger_h", V, t, 48, r)).entries
    ac = split.kernel_ac(t, r).entries
    lam, psi = split.bound_states[0]
    piece = psi(np.arange(-r, r + 1))
    bound = np.exp(-1j * t * lam) * np.outer(piece, piece)
    np.testing.assert_allclose(ac + bound, total, atol=1e-10)


def test_stone_free_matches_spectral():
    got = stone_kernel_slice(1.0, None, 0).entry(0, 0)
    want = kernel_spectral(_req("schrodinger_free_bilap", None, 1.0, 0)).entry(0, 0)
    assert got == pytest.approx(want, abs=1e-8)


def test_stone_perturbed_matches_continuous_reference():
    got = stone_kernel_slice(5.0, DELTA_HALF, 1).entry(1, -1)
    ref = pac_split(DELTA_HALF, auto_window_radius(5.0, 4)).kernel_ac(5.0, 4)
    assert got == pytest.approx(ref.entry(1, -1), abs=1e-7)


def test_kernel_time_reversal_conjugates():
    fwd = stone_kernel_slice(2.0, DELTA_HALF, 1).entry(1, 0)
    bwd = stone_kernel_slice(-2.0, DELTA_HALF, 1).entry(1, 0)
    assert bwd == pytest.approx(np.conj(fwd), abs=1e-10)
    a = kernel_spectral(_req("schrodinger_h", DELTA_HALF, 1.5, 3)).entries
    b = kernel_spectral(_req("schrodinger_h", DELTA_HALF, -1.5, 3)).entries
    np.testing.assert_allclose(b, np.conj(a), atol=1e-12)


def test_halfwave_at_time_zero_is_identity():
    sl = stone_kernel_slice(0.0, None, 4, phase="halfwave")
    np.testing.assert_allclose(sl.entries, np.eye(9), atol=1e-8)


def test_stone_at_time_zero_projects_out_bound_state():
    from bilap.spectral import discrete_eigs

    lam, state = discrete_eigs(DELTA_HALF, 256)[0]
    want = 1.0 - abs(state[2]) ** 2
    got = stone_kernel_slice(0.0, DELTA_HALF, 2, phase="halfwave").entry(2, 2)
    assert got == pytest.approx(want, abs=1e-6)


def test_beam_cos_is_real_part_of_halfwave():
    hw = stone_kernel_slice(3.0, DELTA_HALF, 3, phase="halfwave")
    bc = stone_kernel_slice(3.0, DELTA_HALF, 3, phase="beam_cos")
    np.testing.assert_allclose(bc.entries, hw.entries.real, atol=1e-12)


def test_stone_beam_kernels_match_banded_spectral():
    # the beam weights have branch points at the band edges, so the
    # truncation reference converges slowly; a deep window is needed
    t, r, n = 3.0, 3, 384
    ev, vecs, keep = _banded_eigensystem(DELTA_HALF, n)
    rows = vecs[n - r : n + r + 1]
    root = np.sqrt(np.abs(ev))
    for phase, wfun in (("beam_cos", np.cos), ("beam_sinc",
                        lambda x: np.sinc(x / np.pi))):
        got = stone_kernel_slice(t, DELTA_HALF, r, phase=phase).entries
        w = np.where(keep, wfun(t * root), 0.0)
        want = (rows * w[None, :]) @ rows.T
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_beam_sinc_is_time_average_of_beam_cos():
    # (1/t) int_0^t cos(s sqrt(H)) ds = sinc(t sqrt(H)), via Gauss nodes
    t, r = 3.0, 3
    n = auto_window_radius(t, r)
    xs, ws = np.polynomial.legendre.leggauss(48)
    s_nodes = 0.5 * t * (xs + 1.0)
    avg = np.zeros((2 * r + 1, 2 * r + 1), dtype=complex)
    for s, w in zip(s_nodes, ws):
        sl = kernel_spectral(PropagatorRequest("beam_cos", DELTA_HALF, s, n, r))
        avg += 0.5 * w * sl.entries
    want = kernel_spectral(PropagatorRequest("beam_sinc", DELTA_HALF, t, n, r))
    np.testing.assert_allclose(avg, want.entries, atol=1e-10)


def test_stone_refuses_non_regular_threshold(monkeypatch):
    # the band integral needs both edges regular; NONREGULAR fails at the
    # lower edge, so the slice is refused before any scan or node is built
    built = []
    monkeypatch.setattr(propagator, "_stone_scans", lambda *args: built.append(args))
    monkeypatch.setattr(propagator, "_stone_nodes", lambda *args: built.append(args))
    with pytest.raises(SingularSandwichError, match="threshold 'zero' not regular"):
        stone_kernel_slice(1.0, NONREGULAR, 0)
    assert not built


def _recorded_nodes(monkeypatch, V):
    # every node of every pass of one slice, and the warnings it raised
    nodes, stone_nodes = [], propagator._stone_nodes

    def recorded(*args):
        out = stone_nodes(*args)
        nodes.append(out)
        return out

    monkeypatch.setattr(propagator, "_stone_nodes", recorded)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stone_kernel_slice(1.0, V, 0)
    return nodes, caught


@pytest.mark.parametrize("V", [None, DELTA_HALF, GENERIC_SMALL], ids=["free", "one-site", "three-site"])
def test_stone_bulk_reaches_inner_cutoff_at_regular_edges(monkeypatch, V):
    # the theta bulk down to mu = 1e-9 and the w strip at the upper edge
    # cover (1e-9, 2); no lower strip adds nodes under the bulk
    nodes, warned = _recorded_nodes(monkeypatch, V)
    assert not warned
    for mu, wts, *_ in nodes:
        assert wts.sum() == pytest.approx(2.0 - propagator._INNER_CUTOFF, abs=1e-13)


@pytest.mark.parametrize("c", [1e-12, 1e-8, -1e-8])
def test_stone_resolves_weak_potential_knee(c):
    # the sandwich of a weak delta turns over at mu ~ (|c| / sqrt 8)^(1/3),
    # far inside the bulk's last panel; graded there, the first budget step
    # converges (no warning) to the dense continuous-part reference
    V = PotentialSpec.delta(c)
    sl = stone_kernel_slice(1.0, V, 3)
    ref = pac_split(V, auto_window_radius(1.0, 3)).kernel_ac(1.0, 3)
    assert sl.budget == 4.0
    assert np.abs(sl.entries - ref.entries).max() <= 2e-9


def test_stone_error_check_warns_when_unreachable():
    with pytest.warns(UserWarning, match="error estimate"):
        stone_kernel_slice(1.0, None, 1, tol=1e-30)


# ---------------------------------------------------------------------------
# the Stone budget ladder against the finest budget it may reach


@pytest.mark.parametrize("t", [1.0, 20.0, 100.0])
@pytest.mark.parametrize("V", [None, DELTA_HALF], ids=["free", "delta"])
def test_stone_ladder_matches_floor_budget(t, V):
    r = 3
    sl = stone_kernel_slice(t, V, r)
    ref, _ = _assemble(t, V, np.arange(-r, r + 1), 0.25)
    assert np.abs(sl.entries - ref).max() <= 1e-12
    assert sl.budget >= 0.25 and sl.error_estimate <= 1e-8
    assert sl.nodes > 0


def test_stone_ladder_multi_site_within_floor():
    # the accepted pass is within its own error estimate of the finest budget
    V, t, r = GENERIC_SMALL, 1.0, 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sl = stone_kernel_slice(t, V, r)
    ref, _ = _assemble(t, V, np.arange(-r, r + 1), 0.25)
    assert np.abs(sl.entries - ref).max() <= 2e-9
    assert sl.error_estimate <= 1e-8


@pytest.mark.parametrize("t", [1.0, 20.0])
@pytest.mark.parametrize(
    "V",
    [GENERIC_SMALL, PotentialSpec((-2, 2), [0.5, 0.6, 0.7, 0.45, 0.55])],
    ids=["three-site", "five-site"],
)
def test_stone_multi_site_budgets_agree(t, V):
    # the solved sandwich leaves no accuracy floor near mu = 0, where
    # cond(M) grows like mu^-3: budget 4 already matches the finest budget
    targets = np.arange(-10, 11)
    coarse, _ = _assemble(t, V, targets, 4.0)
    fine, _ = _assemble(t, V, targets, 0.25)
    assert np.abs(coarse - fine).max() <= 1e-13


@pytest.mark.parametrize("V", [DELTA_HALF, GENERIC_SMALL], ids=["one-site", "three-site"])
@pytest.mark.parametrize("scale", [0.0, 1e-12, np.nan], ids=["singular", "near-singular", "nan"])
def test_stone_refuses_singular_sandwich(monkeypatch, V, scale):
    # one node's sandwich becomes scale * identity, whose inverse norm is
    # infinite, sqrt(d) 1e12 (above the 1e10 refusal threshold) or NaN
    grid = propagator.m_matrix_grid

    def one_singular(mu, sys, one_minus_q=None):
        m = grid(mu, sys, one_minus_q=one_minus_q)
        m[m.shape[0] // 2] = scale * np.eye(m.shape[1])
        return m

    monkeypatch.setattr(propagator, "m_matrix_grid", one_singular)
    with pytest.raises(SingularSandwichError, match="possible embedded eigenvalue"):
        _assemble(1.0, V, np.arange(-2, 3), 8.0)


def _ladder_budgets(monkeypatch, t, V, r):
    # the budget of every pass of one slice, and the slice
    calls = []
    assemble = propagator._stone_assemble

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(propagator, "_stone_assemble", counted)
    return calls, stone_kernel_slice(t, V, r)


def test_stone_ladder_stops_after_two_passes(monkeypatch):
    # at observe radius 16, budget 16 is already within 1e-14 of the floor
    calls, sl = _ladder_budgets(monkeypatch, 50.0, DELTA_HALF, 16)
    assert calls == [16.0, 8.0]
    assert sl.budget == 8.0
    spectral = kernel_spectral(_req("schrodinger_h", DELTA_HALF, 1.0, 2))
    assert (spectral.budget, spectral.nodes, spectral.error_estimate) == (None,) * 3


def test_stone_ladder_takes_one_more_pass_at_small_radius(monkeypatch):
    # for the 5-site potential at radius 2 and t = 100, budget 16 misses tol
    # by 2e-7
    calls, sl = _ladder_budgets(monkeypatch, 100.0, FIVE_SITE, 2)
    assert calls == [16.0, 8.0, 4.0]
    assert sl.budget == 4.0


@pytest.mark.parametrize(
    "t, r", [(0.01, 1), (1e-3, 0), (0.1, 1)], ids=["t0.01-r1", "t0.001-r0", "t0.1-r1"]
)
def test_stone_estimate_compares_distinct_passes(t, r):
    # at small t and r the node count is pinned by the minimum panel count
    # over several budgets; the accepted estimate must come from two passes
    # on different nodes and bound the true error against the floor budget
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sl = stone_kernel_slice(t, DELTA_HALF, r)
    ref, _ = _assemble(t, DELTA_HALF, np.arange(-r, r + 1), 0.25)
    true_err = np.abs(sl.entries - ref).max()
    assert sl.error_estimate >= true_err
    assert true_err <= 1e-8


def test_stone_off_centre_site_matches_continuous_reference():
    # a delta at site 3 puts the targets -6..6 at distances 0..9 from it;
    # the correction is built over those distances and gathered back
    V, t, r = PotentialSpec.delta(0.5, site=3), 5.0, 6
    sl = stone_kernel_slice(t, V, r)
    ref = pac_split(V, auto_window_radius(t, r)).kernel_ac(t, r)
    assert np.abs(sl.entries - ref.entries).max() <= 1e-7
    # sites n and 6 - n sit at one distance from 3: their entries share
    # every operation, so they agree bit for bit
    near = sl.entries[r : 2 * r + 1, r : 2 * r + 1]
    assert np.array_equal(near, near[::-1, ::-1])


# ---------------------------------------------------------------------------
# a time series: one node set per pass, shared by every time

# (V, times, observe radius, phase); the 3-site default at stone-vs-spectral's
# default times and radius
_SERIES = {
    "delta-r16": (DELTA_HALF, np.geomspace(50.0, 100.0, 8), 16, "schrodinger"),
    "three-site": (GENERIC_SMALL, [1.0, 5.0, 20.0], 10, "schrodinger"),
    "five-site": (FIVE_SITE, [1.0, 5.0, 20.0], 3, "schrodinger"),
    "free": (None, [1.0, 5.0, 20.0], 3, "schrodinger"),
    "halfwave": (DELTA_HALF, [0.5, 3.0, 8.0], 3, "halfwave"),
    "beam_cos": (DELTA_HALF, [0.5, 3.0, 8.0], 3, "beam_cos"),
}


@pytest.mark.parametrize("case", list(_SERIES))
def test_stone_series_matches_per_time_slices(case):
    # the series shares the per-time slices' nodes but sizes its flow
    # integral per group of times within a factor of two in |t|, so each of
    # its slices sits within the per-time slice's own error estimate of it
    V, times, r, phase = _SERIES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = stone_kernel_slice(times, V, r, phase=phase)
        assert [sl.t for sl in series] == list(times)
        for t, sl in zip(times, series):
            one = stone_kernel_slice(t, V, r, phase=phase)
            assert np.abs(sl.entries - one.entries).max() <= one.error_estimate + 1e-13


@pytest.mark.parametrize("case", list(_SERIES))
def test_stone_series_estimates_bound_floor_error(case):
    # each time's accepted estimate bounds its distance to the budget-0.25
    # pass at that time; where both passes are exact to rounding, the
    # estimate's rounding term covers it
    V, times, r, phase = _SERIES[case]
    for t, sl in zip(times, stone_kernel_slice(times, V, r, phase=phase)):
        ref, _ = _assemble(t, V, np.arange(-r, r + 1), 0.25, phase)
        assert np.abs(sl.entries - ref).max() <= sl.error_estimate


def test_stone_series_builds_nodes_and_checks_edges_once_per_pass(monkeypatch):
    calls = {"nodes": 0, "scans": 0, "edges": [], "passes": []}
    stone_nodes, check = propagator._stone_nodes, spectral.regular_point_check
    assemble, variation = propagator._stone_assemble, propagator.cost_variation

    def nodes(*args):
        calls["nodes"] += 1
        return stone_nodes(*args)

    def scan(*args):
        # the wave-cost scans of the bulk and the strip, made once per reach
        calls["scans"] += 1
        return variation(*args)

    propagator._wave_scans.cache_clear()

    def edge(sys_, threshold):
        calls["edges"].append(threshold)
        return check(sys_, threshold)

    def passes(times, *args, **kwargs):
        calls["passes"].append((args[-1], len(times)))
        return assemble(times, *args, **kwargs)

    monkeypatch.setattr(propagator, "_stone_nodes", nodes)
    monkeypatch.setattr(propagator, "cost_variation", scan)
    monkeypatch.setattr(spectral, "regular_point_check", edge)
    monkeypatch.setattr(propagator, "_stone_assemble", passes)
    series = stone_kernel_slice(np.geomspace(50.0, 100.0, 8), DELTA_HALF, 16)
    assert calls["passes"] == [(16.0, 8), (8.0, 8)]
    assert calls["nodes"] == 2 and calls["scans"] == 2
    assert calls["edges"] == ["zero", "sixteen"]
    assert len({sl.nodes for sl in series}) == 1


def test_stone_cuts_panels_at_a_sandwich_resonance():
    # det M of the 5-site potential has a zero about 0.05 off the band near
    # mu = 0.89, where its phase turns by about pi; the panels there are cut
    # at equal steps of that phase. Without the cuts the budget-2 pass at
    # radius 0 and t = 20 was 6.2e-10 from the floor pass
    cut = propagator._stone_nodes(4.0, 4.0, decompose_potential(FIVE_SITE))[3][0][1]
    plain = propagator._stone_nodes(4.0, 4.0, None)[3][0][1]
    near = lambda edges: np.count_nonzero(np.abs(2.0 * np.sin(-edges / 2.0) - 0.89) < 0.1)
    assert near(plain) <= 1 and near(cut) >= 4
    sl = stone_kernel_slice(20.0, FIVE_SITE, 0)
    ref, _ = _assemble(20.0, FIVE_SITE, np.arange(1), 0.25)
    assert np.abs(sl.entries - ref).max() <= 1e-12


def test_stone_series_accepts_each_time_on_its_own(monkeypatch):
    # for the 5-site potential at radius 10 and tol 1e-10, t = 1 accepts at
    # budget 8 and t = 100 needs 4; the budget-4 pass evaluates t = 100
    # alone and leaves t = 1 as it was
    calls, assemble = [], propagator._stone_assemble

    def passes(times, *args, **kwargs):
        calls.append((args[-1], list(times)))
        return assemble(times, *args, **kwargs)

    monkeypatch.setattr(propagator, "_stone_assemble", passes)
    early, late = stone_kernel_slice([1.0, 100.0], FIVE_SITE, 10, tol=1e-10)
    assert calls == [(16.0, [1.0, 100.0]), (8.0, [1.0, 100.0]), (4.0, [100.0])]
    assert (early.budget, late.budget) == (8.0, 4.0)
    assert early.nodes < late.nodes
    eight, _ = propagator._stone_assemble(
        np.array([1.0, 100.0]), decompose_potential(FIVE_SITE), np.arange(-10, 11),
        "schrodinger", 8.0,
    )
    assert np.array_equal(early.entries, eight[0])


def test_stone_scalar_time_is_a_series_of_one():
    one = stone_kernel_slice(5.0, GENERIC_SMALL, 2)
    (listed,) = stone_kernel_slice([5.0], GENERIC_SMALL, 2)
    assert isinstance(one, KernelSlice)
    assert np.array_equal(one.entries, listed.entries)
    assert (one.t, one.budget, one.nodes, one.error_estimate) == (
        listed.t, listed.budget, listed.nodes, listed.error_estimate,
    )
    for bad in ([], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="1-d sequence"):
            stone_kernel_slice(bad, None, 1)


# ---------------------------------------------------------------------------
# the flow integrated exactly on each panel: nodes set by the spatial waves


def _flow_nodes():
    # the nodes of a delta 0.5 pass at reach 18, with both of its gradings
    return propagator._stone_nodes(18.0, 4.0, decompose_potential(DELTA_HALF))


@pytest.mark.parametrize("t", [0.0, 1e-3, 1.0, 1e2, 1e4])
@pytest.mark.parametrize("phase", list(FLOWS))
def test_flow_weights_integrate_the_flow_against_polynomials(phase, t):
    # sum_j Phi_j w_j p(x_j) is the integral of FLOWS(t, E(x)) p(x) over the
    # panel for every p of degree below the panel order. The reference is a
    # 48-point rule on sub-panels of at most 8 radians of phase. Against it
    # the error is 1e-14 of max|p| (b - a), plus the rounding of the phase
    # t E itself, at most 16 |t| 2^-52 per point, which no double route avoids
    mu, wts, omq, panels = _flow_nodes()
    phi = propagator._flow_weights(np.array([t]), phase, mu, panels)[0]
    n = propagator._STONE_ORDER
    g, G = np.polynomial.legendre.leggauss(n)
    gr, Gr = np.polynomial.legendre.leggauss(48)
    power = 4 if phase == "schrodinger" else 2
    start, worst = 0, 0.0
    for piece, edges in panels:
        mu_of, jacobian, _ = propagator._PANEL_MAPS[piece]
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            # |d mu^p / dx| = p mu^(p - 1) |dmu/dx|, and mu and |dmu/dx| are
            # monotone on either piece
            rate = power * max(mu_of(a), mu_of(b)) ** (power - 1) * max(jacobian(a), jacobian(b))
            subs = max(1, int(np.ceil(t * rate * (b - a) / 8.0)))
            u = ((2.0 * np.arange(subs)[:, None] + 1.0 - subs + gr) / subs).ravel()
            flow = FLOWS[phase](t, mu_of(a + half + half * u) ** 4)
            ref = half * (flow * np.tile(Gr / subs, subs)) @ np.polynomial.legendre.legvander(u, n - 1)
            got = half * (phi[start : start + n] * G) @ np.polynomial.legendre.legvander(g, n - 1)
            worst = max(worst, np.abs(got - ref).max() / (b - a))
            start += n
    assert start == mu.size
    assert worst <= 1e-14 + 16.0 * t * 2.0**-52, worst


def test_flow_weights_are_the_flow_where_a_panel_needs_no_integral():
    # at t = 0 every panel is one sub-panel: the weights are the flow itself
    mu, wts, omq, panels = _flow_nodes()
    times = np.array([0.0, 1e-3])
    for phase in FLOWS:
        phi = propagator._flow_weights(times, phase, mu, panels)
        assert np.array_equal(phi, FLOWS[phase](times[:, None], mu**4))


def test_stone_nodes_are_flat_in_t():
    # the accepted node counts for delta 0.5 at radius 16 no longer grow
    # with t; they grew like t when panels were sized by the flow's phase
    nodes = [stone_kernel_slice(t, DELTA_HALF, 16).nodes for t in (1e2, 1e3, 1e4)]
    assert max(nodes) <= 1.5 * min(nodes), nodes


@pytest.mark.parametrize("t", [1e3, 1e4])
def test_free_stone_matches_fft_to_the_inner_cutoff_floor(monkeypatch, t):
    # the piece the inner cutoff 1e-9 drops is measured against a pass cut
    # at 1e-15; past it, the free Stone kernel is the FFT kernel to 1e-12
    r = 16
    sep = np.abs(np.arange(-r, r + 1)[:, None] - np.arange(-r, r + 1)[None, :])
    fft = free_kernel_fft(t, "schrodinger_free_bilap", 2 * r)[sep]
    shipped = stone_kernel_slice(t, None, r).entries
    monkeypatch.setattr(propagator, "_INNER_CUTOFF", 1e-15)
    deep = stone_kernel_slice(t, None, r).entries
    floor = np.abs(shipped - deep).max()
    assert 5e-10 <= floor <= 1e-9
    assert np.abs(shipped - fft).max() <= floor + 1e-12
    assert np.abs(deep - fft).max() <= 1e-12


def test_flow_weights_hold_no_temporary_that_grows_with_t():
    # the flow integral runs over blocks of _FLOW_BLOCK sub-panels: at
    # t = 1e5 its 1.8e6 points would fill 29 MB as one complex array
    mu, wts, omq, panels = _flow_nodes()
    peaks = []
    for t in (1e4, 1e5):
        tracemalloc.start()
        try:
            phi = propagator._flow_weights(np.array([t]), "schrodinger", mu, panels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert phi.shape == (1, mu.size)
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0] and peaks[1] <= 4 * 2**20, peaks


def test_sup_norm_routes_agree():
    # window sup of the free kernel: FFT separations 0..2r against the dense slice
    kind, t, r = "schrodinger_free_bilap", 2.0, 5
    a = np.abs(free_kernel_fft(t, kind, 2 * r)).max()
    b = np.abs(kernel_spectral(_req(kind, None, t, r)).entries).max()
    assert a == pytest.approx(b, abs=1e-10)
    assert np.abs(free_kernel_fft(0.0, kind, 6)).max() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="no free kernel"):
        free_kernel_fft(1.0, "heat", 2)
    with pytest.raises(ValueError, match="phase must be one of"):
        stone_kernel_slice(1.0, None, 1, phase="heat")


def test_beam_evolution_conserves_wave_energy():
    # v(t) = cos(t sqrt(H)) f + t sinc(t sqrt(H)) g solves the fourth-order
    # wave equation; |v'|^2 + <v, H v> must not drift
    n, t = 96, 2.7
    H = build_hamiltonian(DELTA_HALF, n)
    ev, vecs = np.linalg.eigh(H)
    root = np.sqrt(np.clip(ev, 0.0, None))
    rng = np.random.default_rng(3)
    f = np.zeros(2 * n + 1)
    g = np.zeros(2 * n + 1)
    f[n - 6 : n + 7] = rng.normal(size=13)
    g[n - 6 : n + 7] = rng.normal(size=13)

    fe, ge = vecs.T @ f, vecs.T @ g
    sinc_t = np.where(root > 0, np.sin(t * root) / np.where(root > 0, root, 1.0), t)
    v = vecs @ (np.cos(t * root) * fe + sinc_t * ge)
    vdot = vecs @ (-root * np.sin(t * root) * fe + np.cos(t * root) * ge)
    e0 = g @ g + f @ (H @ f)
    et = vdot @ vdot + v @ (H @ v)
    assert et == pytest.approx(e0, rel=1e-8)

    # the package kernels reproduce the eigen-built cosine part on the
    # widest window the causal range leaves
    r = 64
    sites = slice(n - r, n + r + 1)
    cos_k = kernel_spectral(PropagatorRequest("beam_cos", DELTA_HALF, t, n, r)).entries
    np.testing.assert_allclose(
        cos_k @ f[sites], (vecs @ (np.cos(t * root) * fe))[sites], atol=1e-10
    )
    # and t * sinc recovers the velocity part of the solution map
    sinc_k = kernel_spectral(PropagatorRequest("beam_sinc", DELTA_HALF, t, n, r)).entries
    np.testing.assert_allclose(
        t * (sinc_k @ g[sites]), (vecs @ (sinc_t * ge))[sites], atol=1e-10
    )


# ---------------------------------------------------------------------------
# the flow table against the closed forms each route used to code itself


def test_five_smooth_matches_scipy_next_fast_len():
    rng = np.random.default_rng(8)
    sizes = list(range(1, 20001)) + rng.integers(20001, 3_000_000, 2000).tolist()
    for n in sizes:
        assert propagator._five_smooth(n) == scipy.fft.next_fast_len(n, real=True), n


# (t, kmax) where the second-difference and beam rings have an odd half
# size M: 135, 135, 225 and 3125 points
@pytest.mark.parametrize("t,kmax_odd", [(0.0, 66), (0.7, 52), (37.0, 29), (1e3, 875)])
def test_free_kernel_half_ring_matches_mirrored_ifft(t, kmax_odd):
    # the half-length transform against the full-length inverse FFT of the
    # mirrored weight, over every separation of the half ring
    halves = set()
    for kind in FREE_KINDS + ("beam_cos", "beam_sinc"):
        for kmax in (5, kmax_odd):
            weight = ring_weight(t, kind, kmax)
            size = ring_size(t, kind, kmax)
            assert weight.size == size
            assert np.array_equal(weight[1:], weight[:0:-1]), kind
            want = np.fft.ifft(weight)[: size // 2 + 1]
            got = free_kernel_full(t, kind, kmax)
            assert got.size == size // 2 + 1
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13, err_msg=kind)
            assert np.array_equal(free_kernel_fft(t, kind, kmax), got[: kmax + 1])
            halves.add(size // 2)
    assert ring_size(t, "schrodinger_free_lap", kmax_odd) // 2 % 2 == 1
    assert any(m % 2 for m in halves), sorted(halves)


# Prints a digest of two free kernels whose half rings (60,750 and 312,500
# points) are long enough for OpenBLAS to split a dot product between threads.
_KERNEL_DIGEST = """
import hashlib
from bilap.propagator import free_kernel_full
digest = hashlib.sha256()
for kind in ("schrodinger_free_bilap", "beam_cos"):
    digest.update(free_kernel_full(3e4, kind).tobytes())
print(digest.hexdigest())
"""


def test_free_kernel_bytes_do_not_depend_on_blas_threads():
    # K_1 is summed by numpy reductions over fixed blocks; the BLAS dots it
    # replaced summed in a thread-count-dependent order
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _KERNEL_DIGEST], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, digests



@pytest.mark.parametrize("M", [128, 135, 192, 3125, 10800, 312500, 2**20])
def test_four_step_fft_matches_numpy_fft(M):
    # odd M, M1 != M2 and prime powers; the result lands transposed,
    # Y[k2 + M2 k1] = A[k2, k1]
    rng = np.random.default_rng(M)
    y = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    want = np.fft.fft(y)
    for workers in (1, 2):
        work = y.copy()
        A = propagator._four_step_fft(work, workers)
        M2, M1 = A.shape
        assert M1 * M2 == M and M1 == max(d for d in range(1, int(M**0.5) + 1) if M % d == 0)
        assert np.shares_memory(A, work)
        got = A.T.ravel()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), workers


@pytest.mark.parametrize("t", [1e4, 1e5])
def test_free_kernel_bytes_do_not_depend_on_worker_count(t, monkeypatch):
    for kind in FREE_KINDS + ("beam_cos", "beam_sinc"):
        kernels = []
        for workers in (1, 2):
            monkeypatch.setattr(propagator, "_FFT_WORKERS", workers)
            kernels.append(free_kernel_full(t, kind))
        assert np.array_equal(*kernels), kind


def test_ring_weight_blocks_match_the_half_ring():
    # free_kernel_full evaluates the weight block by block at j and M - j;
    # each entry depends on its own index only, so the blocks carry the
    # bytes of ring_weight, which strichartz_norm reads
    for kind in FREE_KINDS + ("beam_cos", "beam_sinc"):
        t = 3e3
        size = ring_size(t, kind)
        whole = ring_weight(t, kind)
        band, sine = propagator.fft_ring_band(size)
        for j in (np.arange(1, 1000), size // 2 - np.arange(7, 4000), np.array([0, size // 2])):
            weight, s = propagator._ring_weight_at(t, kind, size, j)
            assert np.array_equal(weight, whole[j]), kind
            assert np.array_equal(s, sine[j])
            assert np.array_equal(propagator.fft_ring_band(size, j)[0], band[j])


def test_free_kernel_holds_no_whole_ring_temporary():
    # y and the kernel, 16 bytes per half-ring point each, plus block-sized
    # work arrays; a whole-length weight, sine or |K| would add 8 MB or more
    tracemalloc.start()
    try:
        kernel = free_kernel_full(1e5, "schrodinger_free_bilap")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel.size == 2**20 + 1
    assert peak <= 2 * kernel.nbytes + 6 * 2**20, peak / 2**20


def test_symmetric_eigensystem_holds_no_window_matrix():
    # the result's eigenvectors, both blocks' eigenvectors and one block's
    # eigh arrays, 1.5 (2R + 1)^2 doubles; the window matrix or a sorted
    # copy of the eigenvectors would add (2R + 1)^2 more
    spectral._eigensystem.cache_clear()
    tracemalloc.start()
    try:
        _, vecs = eigensystem(PotentialSpec.delta(0.5), 384)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vecs.shape == (769, 769)
    assert peak <= 2 * 769**2 * 8, peak / (769**2 * 8)


def test_share_raises_a_helper_failure_in_the_caller():
    # the caller waits on its first block until the helper has failed on
    # the first block it claimed, then runs every other block and raises
    # the helper's exception once the helper has ended
    done, failed_on, helper_failed = [], [], threading.Event()

    def work(i):
        if threading.current_thread() is threading.main_thread():
            assert helper_failed.wait(timeout=30)
            done.append(i)
            return
        failed_on.append(i)
        helper_failed.set()
        raise ArithmeticError(f"block {i}")

    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="block"):
        propagator._share(8, work, 2)
    assert threading.active_count() == before
    assert len(failed_on) == 1 and sorted(done + failed_on) == list(range(8))


def test_free_kernel_under_fast_thread_switching(monkeypatch):
    # hand the interpreter lock between the caller and the helper as often
    # as it will go: the blocks still land in place, and no thread is left
    monkeypatch.setattr(propagator, "_FFT_WORKERS", 1)
    want = free_kernel_full(1e4, "schrodinger_free_bilap")
    monkeypatch.setattr(propagator, "_FFT_WORKERS", 2)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = free_kernel_full(1e4, "schrodinger_free_bilap")
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)
    assert threading.active_count() == before


def _even_five_smooth_at_least(need):
    n = int(np.ceil(max(need, 256.0)))
    n += n % 2
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 2


@pytest.mark.parametrize("t", [0.0, 0.7, 37.0, -250.0, 1e3, 1e5])
def test_ring_size_follows_each_flow_speed(t):
    # the second-difference and beam phases move at group speed 2, the
    # fourth-difference Schrodinger phase at SPEED_BOUND; each ring reaches
    # 16 |t|^(1/3) past the causal front
    tail = 16.0 * np.cbrt(abs(t))
    for kmax in (0, 9):
        for kind in ("schrodinger_free_lap", "beam_cos", "beam_sinc"):
            need = 2.0 * (2.0 * abs(t) + tail + kmax + 64)
            assert ring_size(t, kind, kmax) == _even_five_smooth_at_least(need), kind
        need = 2.0 * (SPEED_BOUND * abs(t) + tail + kmax + 64)
        assert ring_size(t, "schrodinger_free_bilap", kmax) == 2 * scipy.fft.next_fast_len(
            int(np.ceil(max(need, 256.0) / 2)), real=True
        )
    with pytest.raises(ValueError, match="no free kernel"):
        ring_size(t, "heat")
    with pytest.raises(ValueError, match="2\\^63 points"):
        ring_size(1e300, "beam_cos")


_FREE_SPEEDS = {
    "schrodinger_free_lap": 2.0,
    "schrodinger_free_bilap": SPEED_BOUND,
    "beam_cos": 2.0,
    "beam_sinc": 2.0,
}


@pytest.mark.parametrize("t", [1e2, 1e3, 1e4])
@pytest.mark.parametrize("kind", list(_FREE_SPEEDS))
def test_ring_size_premise_airy_tail_at_rounding(kind, t):
    # ring_size reaches c|t| + 16|t|^(1/3) (plus a margin) from the origin.
    # Its premise: on a ring at least 1.5 times as long, the kernel is at
    # rounding from c|t| + 32|t|^(1/3) on, so wraparound onto separations up
    # to c|t| + 16|t|^(1/3) of the ring_size ring is at rounding too.
    # Measured: tails at most 1.1e-13 and gaps at most 1.7e-13, both for the
    # fourth-difference kernel at t = 1e4; the bound 1e-12 leaves a factor 6.
    front, width = _FREE_SPEEDS[kind] * t, np.cbrt(t)
    size = ring_size(t, kind)
    wide = free_kernel_full(t, kind, kmax=size // 4)
    assert 2 * (wide.size - 1) >= 1.5 * size
    assert np.abs(wide[int(np.ceil(front + 32.0 * width)) :]).max() <= 1e-12
    reach = int(front + 16.0 * width)
    near = free_kernel_full(t, kind)
    assert near.size > reach + 1
    np.testing.assert_allclose(near[: reach + 1], wide[: reach + 1], rtol=0, atol=1e-12)


def _old_ring_band(t, kmax=0):
    need = 2.0 * (1.2 * SPEED_BOUND * abs(t) + kmax + 64)
    size = 1 << int(np.ceil(np.log2(max(need, 256.0))))
    return 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(size) / size)


_OLD_FFT_WEIGHT = {
    "schrodinger_free_lap": lambda t, b: np.exp(-1j * t * b),
    "schrodinger_free_bilap": lambda t, b: np.exp(-1j * t * b * b),
    "beam_cos": lambda t, b: np.cos(t * b).astype(complex),
    "beam_sinc": lambda t, b: np.sinc(t * b / np.pi).astype(complex),
}


@pytest.mark.parametrize("t", [0.7, 37.0, 1e3])
def test_fft_route_matches_old_symbol_weights(t):
    # the power-of-two ring and the even 5-smooth one hold the same kernel
    # up to far-field noise; compare every separation the smaller ring returns
    band = _old_ring_band(t)
    for kind, weight in _OLD_FFT_WEIGHT.items():
        want = np.fft.ifft(weight(t, band))
        got = free_kernel_full(t, kind)
        assert got.size <= want.size
        np.testing.assert_allclose(got, want[: got.size], rtol=0, atol=1e-11, err_msg=kind)


@pytest.mark.parametrize("t", [-2.0, 0.5, 3.0, 100.0])
def test_stone_weights_match_old_closed_forms(t):
    mu = np.linspace(1e-6, 2.0, 401)
    assert np.array_equal(
        FLOWS["schrodinger"](t, mu**4), np.exp(-1j * t * mu**4)
    )
    old = {
        "halfwave": np.exp(-1j * t * mu**2),
        "beam_cos": np.cos(t * mu**2).astype(complex),
        "beam_sinc": np.sinc(t * mu**2 / np.pi).astype(complex),
    }
    for phase, want in old.items():
        np.testing.assert_allclose(
            FLOWS[phase](t, mu**4), want, rtol=0, atol=1e-11
        )


def _old_dense_sinc(t, lam):
    root = np.sqrt(lam.astype(complex))
    x = t * t * lam
    out = np.empty(lam.shape, dtype=complex)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = 1.0 - xs / 6.0 + xs * xs / 120.0
    arg = t * root[~small]
    out[~small] = np.sin(arg) / arg
    return out


@pytest.mark.parametrize("t", [0.5, 3.0])
def test_dense_weights_match_old_closed_forms(t):
    # eigenvalues below, inside and above the band, plus values at zero
    lam = np.concatenate([
        eigensystem(PotentialSpec((-1, 1), [-5.0, 0.0, 5.0]), 24)[0],
        [0.0, 1e-14, -1e-14],
    ])
    assert lam.min() < 0.0 and lam.max() > 16.0
    assert np.array_equal(FLOWS["schrodinger"](t, lam), np.exp(-1j * t * lam))
    np.testing.assert_allclose(
        FLOWS["beam_sinc"](t, lam), _old_dense_sinc(t, lam), rtol=0, atol=1e-11
    )
    np.testing.assert_allclose(
        FLOWS["beam_cos"](t, lam),
        np.cos(t * np.sqrt(lam.astype(complex))),
        rtol=0,
        atol=1e-11,
    )


def test_pac_split_diagonalises_each_matrix_once(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    # a coupling no other test uses, so nothing is cached yet
    V = PotentialSpec.delta(4.375)
    split = pac_split(V, 48)
    for t in (0.5, 1.0, 2.0):
        split.kernel_ac(t, 4)
    kernel_spectral(PropagatorRequest("schrodinger_h", V, 1.0, 48, 4))
    assert split.window_radius == 48
    # the one matrix diagonalised is the 1 x 1 sandwich at the bound state,
    # once; the Chebyshev route diagonalises no window
    assert shapes == [(1, 1)]


class _FirstPass(Exception):
    pass


def _first_pass_flow_points(monkeypatch, t, V, r):
    """Flow points that the first Stone pass of stone_kernel_slice(t, V, r) hands its flow integral.

    The sub-panels are counted as _flow_blocks deals them out; the
    integral itself is skipped, and the slice stops after its first pass.
    """
    taken, blocks, assemble = [0], propagator._flow_blocks, propagator._stone_assemble

    def counted(counts):
        taken[0] += sum(q1 - q0 for runs in blocks(counts) for _, q0, q1, _ in runs)
        return iter(())

    def first(*args, **kwargs):
        assemble(*args, **kwargs)
        raise _FirstPass

    with monkeypatch.context() as m, pytest.raises(_FirstPass):
        m.setattr(propagator, "_flow_blocks", counted)
        m.setattr(propagator, "_stone_assemble", first)
        stone_kernel_slice(t, V, r)
    return taken[0] * propagator._FLOW_ORDER


@pytest.mark.parametrize("V", [None, DELTA_HALF, GENERIC_SMALL, PotentialSpec.delta(1e-8)],
                         ids=["free", "delta-0.5", "three-site", "delta-1e-8"])
def test_stone_flow_points_bound_the_first_pass(monkeypatch, V):
    # perturbed-decay's limit reads the flow integral's size from a free
    # slice on reach 2r + 2; a potential's gradings and resonance cuts move
    # the panels, but the run's own first pass takes no more points, and
    # at least 0.935 of them on this grid
    for r in (2, 16, 64):
        for t in (1e2, 1e4, 1e5):
            limit = propagator.stone_flow_points(t, r)
            run = _first_pass_flow_points(monkeypatch, t, V, r)
            assert 0.9 * limit <= run <= limit, (r, t, run, limit)
            if V is None:
                assert run == limit
