"""Decay-rate fits, space-time norms and the frequency-cap scaling pair."""

import numpy as np
import pytest

from bilap import decay
from bilap.lattice import SPEED_BOUND
from bilap.propagator import free_kernel_full
from bilap.decay import (
    DecaySeries,
    _time_quadrature,
    fit_decay_exponent,
    free_decay_series,
    knapp_experiment,
    log_time_grid,
    perturbed_decay_series,
    strichartz_norm,
)


def test_fit_recovers_pure_power_law():
    times = log_time_grid(1e1, 1e3, per_decade=10)
    series = DecaySeries(times, 3.0 * times**-0.25, "synthetic")
    fit = fit_decay_exponent(series)
    assert fit.alpha == pytest.approx(0.25, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.window == (times[0], times[-1])


def test_fit_window_isolates_late_regime():
    times = log_time_grid(1e1, 1e5, per_decade=8)
    cross = 1e3
    sups = np.where(
        times < cross, times**-0.5, cross**-0.25 * times**-0.25
    )
    keep = times >= cross
    late = fit_decay_exponent(DecaySeries(times[keep], sups[keep], "synthetic"))
    assert late.alpha == pytest.approx(0.25, abs=1e-10)
    assert late.window == (times[keep][0], 1e5)
    full = fit_decay_exponent(DecaySeries(times, sups, "synthetic"))
    assert 0.25 < full.alpha < 0.5


def test_fit_requires_eight_points():
    times = log_time_grid(1e1, 1e2, per_decade=6)
    series = DecaySeries(times, times**-0.25, "synthetic")
    with pytest.raises(ValueError, match="at least 8 points"):
        fit_decay_exponent(series)


def test_series_validation():
    t = np.array([1.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="equal-length"):
        DecaySeries(t, np.ones(2), "x")
    with pytest.raises(ValueError, match="increasing"):
        DecaySeries(t[::-1], np.ones(3), "x")
    with pytest.raises(ValueError, match="increasing"):
        DecaySeries(np.array([-1.0, 1.0, 2.0]), np.ones(3), "x")
    with pytest.raises(ValueError, match="positive"):
        DecaySeries(t, np.array([1.0, 0.0, 1.0]), "x")
    with pytest.raises(ValueError, match="finite"):
        DecaySeries(t, np.array([1.0, np.inf, 1.0]), "x")


def test_log_time_grid_layout():
    g = log_time_grid(1e1, 1e3, per_decade=16)
    assert len(g) == 33
    assert g[0] == pytest.approx(10.0) and g[-1] == pytest.approx(1000.0)
    steps = np.diff(np.log(g))
    np.testing.assert_allclose(steps, steps[0], rtol=1e-12)
    with pytest.raises(ValueError):
        log_time_grid(1e3, 1e1)
    with pytest.raises(ValueError):
        log_time_grid(0.0, 1e1)


def test_free_series_rejects_perturbed_kind():
    with pytest.raises(ValueError, match="kind must be one of"):
        free_decay_series("schrodinger_h", np.array([1.0, 2.0]))


def test_free_series_fit_is_stable_under_leave_one_out():
    times = log_time_grid(1e2, 1e3, per_decade=16)[:17]
    series = free_decay_series("schrodinger_free_bilap", times)
    full = fit_decay_exponent(series).alpha
    assert 0.22 < full < 0.30
    drops = []
    for i in range(len(times)):
        keep = np.ones(len(times), dtype=bool)
        keep[i] = False
        sub = DecaySeries(series.times[keep], series.sup_norms[keep], series.source)
        drops.append(fit_decay_exponent(sub).alpha)
    assert max(drops) - min(drops) < 0.01



def test_free_series_blockwise_sup_is_the_whole_ring_max(monkeypatch):
    # the rings at t = 1e5 hold 17 and 4 blocks of _SUP_BLOCK separations
    times = np.array([1e2, 1e5])
    for kind in ("schrodinger_free_bilap", "beam_sinc"):
        whole = [float(np.abs(free_kernel_full(t, kind)).max()) for t in times]
        assert free_kernel_full(times[-1], kind).size > 3 * decay._SUP_BLOCK
        assert free_decay_series(kind, times).sup_norms.tolist() == whole, kind
        monkeypatch.setattr(decay, "_SUP_BLOCK", 1000)
        assert free_decay_series(kind, times).sup_norms.tolist() == whole, kind
        monkeypatch.undo()


def test_perturbed_series_records_route():
    from bilap.lattice import PotentialSpec

    series = perturbed_decay_series(
        PotentialSpec.delta(0.5), np.array([1.0, 2.0]), observe_radius=6
    )
    assert "stone" in series.source and "observe_radius=6" in series.source
    assert np.all(series.sup_norms > 0.0)


def test_perturbed_series_locates_first_sup():
    # sup_sites is the first maximiser in row-major order: no entry before
    # it reaches the sup; the kernel is symmetric, so later ones may
    from bilap.lattice import PotentialSpec
    from bilap.propagator import stone_kernel_slice

    V, times, r = PotentialSpec.delta(0.5), np.array([1.0, 2.0, 50.0]), 6
    series = perturbed_decay_series(V, times, observe_radius=r)
    for sl, sup, (n, m) in zip(stone_kernel_slice(times, V, r), series.sup_norms, series.sup_sites):
        mags = np.abs(sl.entries).ravel()
        first = (n + r) * (2 * r + 1) + (m + r)
        assert mags[first] == sup
        assert np.all(mags[:first] < sup)


def test_strichartz_admissible_pair_saturates():
    a = strichartz_norm(8.0, 64.0, 1e2)
    b = strichartz_norm(8.0, 64.0, 1e3)
    assert abs(b / a - 1.0) < 0.01


def test_strichartz_inadmissible_pair_grows():
    a = strichartz_norm(4.0, 4.0, 1e2)
    b = strichartz_norm(4.0, 4.0, 1e3)
    assert b / a > 1.05


def test_strichartz_sup_norm_in_space():
    v_inf = strichartz_norm(8.0, np.inf, 1e2)
    v_64 = strichartz_norm(8.0, 64.0, 1e2)
    assert 0.0 < v_inf <= v_64


def _space_time(q, T, space_norm):
    acc = 0.0
    for t, w in zip(*_time_quadrature(T)):
        acc += w * space_norm(t) ** q
    return acc ** (1.0 / q)


def _strichartz_on_horizon_ring(q, r, T):
    # the unit delta at 0 evolved on the one power-of-two ring sized for the
    # horizon T, the same at every node
    need = 2.0 * (1.2 * SPEED_BOUND * T + 1 + 64)
    size = 1 << int(np.ceil(np.log2(max(need, 256.0))))
    energy = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(size) / size)) ** 2
    delta = np.zeros(size, dtype=complex)
    delta[0] = 1.0
    spectrum = np.fft.fft(delta)

    def space(t):
        mags = np.abs(np.fft.ifft(spectrum * np.exp(-1j * t * energy)))
        return mags.max() if np.isinf(r) else np.sum(mags**r) ** (1.0 / r)

    return _space_time(q, T, space)


@pytest.mark.parametrize("T", [3.0, 1e2])
@pytest.mark.parametrize("q,r", [(8.0, 64.0), (8.0, np.inf), (4.0, 4.0)])
def test_strichartz_node_rings_match_horizon_ring(q, r, T):
    want = _strichartz_on_horizon_ring(q, r, T)
    assert strichartz_norm(q, r, T) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("T", [1e2, 5e2, 1e3])
@pytest.mark.parametrize("q,r", [(8.0, 64.0), (8.0, np.inf), (4.0, 4.0)])
def test_strichartz_norm_is_the_free_kernels_space_time_norm(q, r, T):
    # the delta's flow is the free kernel: on the half ring 0..M of
    # free_kernel_full the whole ring's space norm is |K_0|^r + 2 sum
    # |K_k|^r + |K_M|^r, 0 < k < M, or the max for r = inf
    def space(t):
        mags = np.abs(free_kernel_full(t, "schrodinger_free_bilap"))
        if np.isinf(r):
            return mags.max()
        powers = mags**r
        return (powers[0] + 2.0 * powers[1:-1].sum() + powers[-1]) ** (1.0 / r)

    want = _space_time(q, T, space)
    assert strichartz_norm(q, r, T) == pytest.approx(want, rel=1e-14)


def test_strichartz_validation():
    with pytest.raises(ValueError):
        strichartz_norm(0.5, 8.0, 1.0)
    with pytest.raises(ValueError):
        strichartz_norm(8.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        strichartz_norm(8.0, 8.0, -1.0)


def test_knapp_cap_size_closed_form():
    eps = 0.05
    lhs, _ = knapp_experiment(eps)
    assert lhs == np.sqrt(2.0 * min(eps, np.arccos(1.0 - eps**2 / 2.0)))


def test_knapp_scaling_exponents():
    eps = np.array([0.1, 0.05, 0.025, 0.0125])
    pairs = [knapp_experiment(e) for e in eps]
    lhs_slope = np.polyfit(np.log(eps), np.log([p[0] for p in pairs]), 1)[0]
    rhs_slope = np.polyfit(np.log(eps), np.log([p[1] for p in pairs]), 1)[0]
    assert lhs_slope == pytest.approx(0.5, abs=0.01)
    # default pair (8, 8): 1/r + 4/q = 5/8
    assert rhs_slope == pytest.approx(0.625, abs=0.01)


def test_knapp_obstruction_grows_for_bad_pair():
    # for (8, 8) the datum-to-dual ratio grows as the cap narrows, so no
    # uniform constant can close the estimate there
    eps = [0.1, 0.05, 0.025, 0.0125]
    ratios = [l / r for l, r in (knapp_experiment(e, 8.0, 8.0) for e in eps)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_knapp_takes_its_exponent_integrals_once(monkeypatch):
    # the head integral (4000 panels) and the two sin-power means (16
    # panels each) depend on q and r alone, not on epsilon
    panels, integral = [], decay._gauss_integral

    def counted(f, lo, hi, n, *args):
        panels.append(n)
        return integral(f, lo, hi, n, *args)

    decay._knapp_factors.cache_clear()
    monkeypatch.setattr(decay, "_gauss_integral", counted)
    for eps in (0.1, 0.05, 0.025, 0.0125):
        knapp_experiment(eps)
    assert sorted(panels) == [16, 16, 4000]


def test_knapp_blocked_space_sum_matches_one_block(monkeypatch):
    # epsilon 1e-4 sums 12.6 million sites, 96 blocks of 2^17
    blocked = knapp_experiment(1e-4)
    monkeypatch.setattr(decay, "_KNAPP_BLOCK", 13_000_000)
    whole = knapp_experiment(1e-4)
    assert blocked[0] == whole[0]
    assert blocked[1] == pytest.approx(whole[1], rel=1e-12, abs=0.0)


def test_admissibility_arithmetic():
    # the cap obstruction vanishes exactly on the admissible region:
    # 1/q + 1/(4 r) <= 1/8 is the same constraint as 4/q + 1/r <= 1/2
    admissible = [(8.0, np.inf), (16.0, 16.0), (12.0, 24.0)]
    for q, r in admissible:
        assert 1.0 / q + 1.0 / (4.0 * r) <= 1.0 / 8.0 + 1e-12
        assert 4.0 / q + 1.0 / r <= 0.5 + 1e-12
    for q, r in ((8.0, 8.0), (4.0, 4.0)):
        assert 1.0 / q + 1.0 / (4.0 * r) > 1.0 / 8.0
        assert 4.0 / q + 1.0 / r > 0.5


def test_knapp_validation():
    with pytest.raises(ValueError, match="epsilon"):
        knapp_experiment(0.2)
    with pytest.raises(ValueError, match="q > 1"):
        knapp_experiment(0.05, q=1.0)
