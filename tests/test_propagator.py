"""Propagator evaluation routes: spectral truncation, FFT ring, band quadrature."""

import warnings

import numpy as np
import pytest
import scipy.fft

from bilap import propagator

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


def _assemble(t, V, targets, budget, phase="schrodinger"):
    # one Stone pass at one time with both band edges taken as regular
    sys_ = None if V is None else decompose_potential(V)
    regular = {"zero": True, "sixteen": True}
    entries, nodes = propagator._stone_assemble(
        np.array([t]), sys_, targets, phase, regular, budget
    )
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
    diag = np.zeros(65)
    diag[32] = 0.5
    want = oracles.spectral_kernel(lambda ev: np.exp(-2.0j * ev), 65, diag)
    got = kernel_spectral(PropagatorRequest("schrodinger_h", DELTA_HALF, 2.0, 32, 6))
    r = slice(32 - 6, 32 + 7)
    np.testing.assert_allclose(got.entries, want[r, r], atol=1e-10)


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


def test_stone_warns_at_non_regular_threshold():
    # truncated at the lower edge, the passes at budgets 2, 1, 0.5 and 0.25
    # scatter by about 1e-2; an estimate from two passes on the same nodes
    # would read 0 and hide that
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stone_kernel_slice(1.0, NONREGULAR, 0)
    messages = [str(w.message) for w in caught]
    assert any("not regular" in m for m in messages)
    assert any("error estimate" in m for m in messages)


def _recorded_nodes(monkeypatch, V):
    # every node of every pass of one slice, and the edge warnings it raised
    nodes, stone_nodes = [], propagator._stone_nodes

    def recorded(*args):
        out = stone_nodes(*args)
        nodes.append(out)
        return out

    monkeypatch.setattr(propagator, "_stone_nodes", recorded)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stone_kernel_slice(1.0, V, 0)
    return nodes, [w for w in caught if "not regular" in str(w.message)]


def test_stone_decides_each_edge_once_per_slice(monkeypatch):
    # NONREGULAR fails at the lower edge only; the ladder's passes all
    # reuse the one verdict, so the slice warns once
    nodes, warned = _recorded_nodes(monkeypatch, NONREGULAR)
    assert len(nodes) >= 2
    assert len(warned) == 1 and "'zero'" in str(warned[0].message)
    # the bulk stops at mu = _EDGE_CUTOFF and the upper strip stays:
    # the weights cover (1e-4, 2) exactly
    for mu, wts, _ in nodes:
        assert mu.min() > propagator._EDGE_CUTOFF
        assert wts.sum() == pytest.approx(2.0 - propagator._EDGE_CUTOFF, abs=1e-13)


@pytest.mark.parametrize("V", [None, DELTA_HALF, GENERIC_SMALL], ids=["free", "one-site", "three-site"])
def test_stone_bulk_reaches_inner_cutoff_at_regular_edges(monkeypatch, V):
    # the theta bulk down to mu = 1e-9 and the w strip at the upper edge
    # cover (1e-9, 2); no lower strip adds nodes under the bulk
    nodes, warned = _recorded_nodes(monkeypatch, V)
    assert not warned
    for mu, wts, _ in nodes:
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
    # at observe radius 16, budget 16 is already within 1e-12 of the floor
    calls, sl = _ladder_budgets(monkeypatch, 50.0, DELTA_HALF, 16)
    assert calls == [16.0, 8.0]
    assert sl.budget == 8.0
    spectral = kernel_spectral(_req("schrodinger_h", DELTA_HALF, 1.0, 2))
    assert (spectral.budget, spectral.nodes, spectral.error_estimate) == (None,) * 3


def test_stone_ladder_takes_one_more_pass_at_small_radius(monkeypatch):
    # at radius 2, budget 16 misses tol by orders of magnitude
    calls, sl = _ladder_budgets(monkeypatch, 50.0, DELTA_HALF, 2)
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

FIVE_SITE = PotentialSpec((-2, 2), [0.5, 0.6, 0.7, 0.45, 0.55])

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
    # the series' nodes are sized for its largest time, so each of its
    # slices sits within the per-time slice's own error estimate of it
    V, times, r, phase = _SERIES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = stone_kernel_slice(times, V, r, phase=phase)
        assert [sl.t for sl in series] == list(times)
        for t, sl in zip(times, series):
            one = stone_kernel_slice(t, V, r, phase=phase)
            assert np.abs(sl.entries - one.entries).max() <= one.error_estimate + 1e-13


@pytest.mark.parametrize("case", ["three-site", "five-site", "free", "halfwave", "beam_cos"])
def test_stone_series_estimates_bound_floor_error(case):
    # each time's accepted estimate bounds its distance to the budget-0.25
    # pass at that time; "delta-r16" is left out because its estimates and
    # its distances both sit at rounding, near 4e-15
    V, times, r, phase = _SERIES[case]
    for t, sl in zip(times, stone_kernel_slice(times, V, r, phase=phase)):
        ref, _ = _assemble(t, V, np.arange(-r, r + 1), 0.25, phase)
        assert np.abs(sl.entries - ref).max() <= sl.error_estimate


def test_stone_series_builds_nodes_and_checks_edges_once_per_pass(monkeypatch):
    calls = {"nodes": 0, "edges": [], "passes": []}
    stone_nodes, check = propagator._stone_nodes, propagator.regular_point_check
    assemble = propagator._stone_assemble

    def nodes(*args):
        calls["nodes"] += 1
        return stone_nodes(*args)

    def edge(sys_, threshold):
        calls["edges"].append(threshold)
        return check(sys_, threshold)

    def passes(times, *args, **kwargs):
        calls["passes"].append((args[-1], len(times)))
        return assemble(times, *args, **kwargs)

    monkeypatch.setattr(propagator, "_stone_nodes", nodes)
    monkeypatch.setattr(propagator, "regular_point_check", edge)
    monkeypatch.setattr(propagator, "_stone_assemble", passes)
    series = stone_kernel_slice(np.geomspace(50.0, 100.0, 8), DELTA_HALF, 16)
    assert calls["passes"] == [(16.0, 8), (8.0, 8)]
    assert calls["nodes"] == 2
    assert calls["edges"] == ["zero", "sixteen"]
    assert len({sl.nodes for sl in series}) == 1


def test_stone_series_accepts_each_time_on_its_own(monkeypatch):
    # at radius 2, t = 0.001 accepts at budget 8 and t = 100 needs 4; the
    # budget-4 pass evaluates t = 100 alone and leaves t = 0.001 as it was
    calls, assemble = [], propagator._stone_assemble

    def passes(times, *args, **kwargs):
        calls.append((args[-1], list(times)))
        return assemble(times, *args, **kwargs)

    monkeypatch.setattr(propagator, "_stone_assemble", passes)
    early, late = stone_kernel_slice([1e-3, 100.0], DELTA_HALF, 2)
    assert calls == [(16.0, [1e-3, 100.0]), (8.0, [1e-3, 100.0]), (4.0, [100.0])]
    assert (early.budget, late.budget) == (8.0, 4.0)
    assert early.nodes < late.nodes
    eight, _ = propagator._stone_assemble(
        np.array([1e-3, 100.0]), decompose_potential(DELTA_HALF), np.arange(-2, 3),
        "schrodinger", {"zero": True, "sixteen": True}, 8.0,
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
@pytest.mark.parametrize("t,kmax_odd", [(0.0, 66), (0.7, 66), (37.0, 66), (1e3, 640)])
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
    assert any(m % 2 for m in halves), sorted(halves)


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
    # fourth-difference Schrodinger phase at SPEED_BOUND
    for kmax in (0, 9):
        for kind in ("schrodinger_free_lap", "beam_cos", "beam_sinc"):
            need = 2.0 * (1.2 * 2.0 * abs(t) + kmax + 64)
            assert ring_size(t, kind, kmax) == _even_five_smooth_at_least(need), kind
        old = 2.0 * (1.2 * SPEED_BOUND * abs(t) + kmax + 64)
        assert ring_size(t, "schrodinger_free_bilap", kmax) == 2 * scipy.fft.next_fast_len(
            int(np.ceil(max(old, 256.0) / 2)), real=True
        )
    with pytest.raises(ValueError, match="no free kernel"):
        ring_size(t, "heat")


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
    # window 48 is diagonalised once, as its even (R + 1) and odd (R)
    # parity blocks; the 1 x 1 sandwich at the bound state is not a window
    assert sorted(s for s in shapes if s != (1, 1)) == [(48, 48), (49, 49)]
