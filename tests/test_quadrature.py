"""Stationary points of the oscillatory phases and panel quadrature."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from bilap.quadrature import (
    PhaseSpec,
    decay_order_prediction,
    edges_from_budget,
    gauss_panels,
    oscillatory_integral,
    phase_derivatives,
    stationary_points,
)
from bilap.resolvent import _band_rates

import oracles

CRITICAL = 6.0 * np.sqrt(3.0)


def _phi_prime(s):
    return lambda x: 8.0 * (1.0 - np.cos(x)) * np.sin(x) - s


def test_derivative_certificates_threshold():
    spec = PhaseSpec("minus_cos", 0.0)
    d = phase_derivatives(spec, -np.pi)
    assert d[1] == pytest.approx(0.0, abs=1e-14)
    assert d[2] == pytest.approx(-16.0, rel=1e-13)
    d = phase_derivatives(spec, 0.0)
    assert d[1] == pytest.approx(0.0, abs=1e-14)
    assert d[2] == pytest.approx(0.0, abs=1e-13)
    assert d[3] == pytest.approx(0.0, abs=1e-13)
    assert d[4] == pytest.approx(24.0, rel=1e-13)


def test_derivative_certificates_critical_speed():
    spec = PhaseSpec("minus_cos", -CRITICAL)
    d = phase_derivatives(spec, -2.0 * np.pi / 3.0)
    assert d[1] == pytest.approx(0.0, abs=1e-12)
    assert d[2] == pytest.approx(0.0, abs=1e-12)
    assert d[3] == pytest.approx(12.0 * np.sqrt(3.0), rel=1e-12)


def test_derivatives_consistent_with_finite_differences():
    rng = np.random.default_rng(21)
    h = 1e-4
    for _ in range(100):
        s = rng.uniform(-12.0, 12.0)
        x = rng.uniform(-np.pi + 2 * h, -2 * h)
        branch = "minus_cos" if rng.random() < 0.5 else "plus_cos"
        spec = PhaseSpec(branch, s)
        d = phase_derivatives(spec, x)
        for j in range(1, 5):
            lo = phase_derivatives(spec, x - h)[j - 1]
            hi = phase_derivatives(spec, x + h)[j - 1]
            assert (hi - lo) / (2 * h) == pytest.approx(d[j], abs=1e-6)


def test_stationary_points_at_zero_speed():
    pts = stationary_points(PhaseSpec("minus_cos", 0.0))
    assert [(p.order, round(p.x, 12)) for p in pts] == [
        (2, round(-np.pi, 12)),
        (4, 0.0),
    ]
    assert pts[0].derivative_value == pytest.approx(-16.0, rel=1e-10)
    assert pts[1].derivative_value == pytest.approx(24.0, rel=1e-10)


def test_stationary_point_at_critical_speed():
    pts = stationary_points(PhaseSpec("minus_cos", -CRITICAL))
    assert len(pts) == 1
    assert pts[0].x == pytest.approx(-2.0 * np.pi / 3.0, abs=1e-10)
    assert pts[0].order == 3
    assert pts[0].derivative_value == pytest.approx(12.0 * np.sqrt(3.0), rel=1e-10)


def test_stationary_points_generic_speeds():
    pts = stationary_points(PhaseSpec("minus_cos", -1.0))
    assert [p.order for p in pts] == [2, 2]
    assert stationary_points(PhaseSpec("minus_cos", 1.0)) == []
    pts = stationary_points(PhaseSpec("plus_cos", 1.0))
    assert [p.order for p in pts] == [2, 2]


def test_stationary_points_match_sign_scan():
    rng = np.random.default_rng(4)
    for _ in range(50):
        s = rng.uniform(-12.0, 12.0)
        got = [p.x for p in stationary_points(PhaseSpec("minus_cos", s))]
        want = oracles.sign_scan_roots(_phi_prime(s), -np.pi, 0.0)
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, atol=1e-8)


@pytest.mark.parametrize("branch,speeds", [
    ("minus_cos", (-0.5, -2.0, -5.0, -9.0, -10.0)),
    ("plus_cos", (0.5, 2.0, 5.0, 9.0, 10.0)),
])
def test_bisected_roots_match_brentq(branch, speeds):
    # brentq at xtol 1e-15 on each monotone piece, as stationary_points
    # used before it bisected
    for s in speeds:
        spec = PhaseSpec(branch, s)
        slope = lambda x: phase_derivatives(spec, x, up_to=1)[1]  # noqa: E731
        mid = -2.0 * np.pi / 3.0 if branch == "minus_cos" else -np.pi / 3.0
        want = [
            brentq(slope, lo, hi, xtol=1e-15)
            for lo, hi in ((-np.pi, mid), (mid, 0.0))
            if slope(lo) * slope(hi) < 0.0
        ]
        got = stationary_points(spec)
        assert len(want) == 2 and len(got) == 2, s
        for p, x in zip(got, want):
            assert abs(p.x - x) <= 2e-15, (s, p.x, x)
            assert abs(slope(p.x)) <= 1e-10


def test_no_stationary_points_beyond_range():
    assert stationary_points(PhaseSpec("minus_cos", -11.0)) == []


def test_decay_order_predictions():
    cases = [
        ("minus_cos", 0.0, Fraction(1, 4)),
        ("minus_cos", -CRITICAL, Fraction(1, 3)),
        ("minus_cos", -1.0, Fraction(1, 2)),
        ("plus_cos", 1.0, Fraction(1, 2)),
        ("minus_cos", 1.0, Fraction(1, 1)),  # empty set, boundary only
    ]
    for branch, s, want in cases:
        assert decay_order_prediction(PhaseSpec(branch, s)) == want


def test_phase_spec_validation():
    with pytest.raises(ValueError):
        PhaseSpec("tan", 0.0)
    with pytest.raises(ValueError):
        PhaseSpec("minus_cos", 0.0, interval=(-4.0, 0.0))
    with pytest.raises(ValueError):
        PhaseSpec("minus_cos", 0.0, interval=(-1.0, -2.0))


def test_integral_at_time_zero_is_length():
    assert oscillatory_integral(PhaseSpec("minus_cos", 0.0), 0.0) == pytest.approx(
        np.pi, rel=1e-12
    )


def test_scaled_integral_stays_bounded_at_degenerate_point():
    # the order-four point forces exactly a quarter power of decay
    for t in (1e2, 1e3, 1e4):
        v = oscillatory_integral(PhaseSpec("minus_cos", 0.0), t)
        assert 0.5 < abs(v) * t**0.25 < 1.2


def test_uniform_envelope_scales_like_quarter_power():
    sgrid = np.concatenate([np.linspace(-12, 12, 30), [0.0, -CRITICAL, CRITICAL]])
    env = {
        t: max(
            abs(oscillatory_integral(PhaseSpec("minus_cos", s), t)) for s in sgrid
        )
        for t in (100.0, 1000.0)
    }
    assert 1.5 < env[100.0] / env[1000.0] < 2.1


def test_error_estimate_is_self_consistent():
    spec = PhaseSpec("minus_cos", -2.7)
    v1, info = oscillatory_integral(spec, 500.0, full_output=True)
    v2 = oscillatory_integral(spec, 500.0, budget=0.25)
    assert info["converged"]
    assert abs(v1 - v2) <= 10.0 * info["error_estimate"] + 1e-12
    assert info["panels"] > 0 and len(info["stationary_points"]) == 2


def test_weight_argument_enters_linearly():
    spec = PhaseSpec("minus_cos", -3.0)
    base = oscillatory_integral(spec, 40.0, weight=lambda x: np.cos(x))
    doubled = oscillatory_integral(spec, 40.0, weight=lambda x: 2.0 * np.cos(x))
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_edges_respect_budget_and_interval():
    edges = edges_from_budget(-np.pi, 0.0, lambda x: np.sin(3 * x), budget=0.1)
    assert edges[0] == -np.pi and edges[-1] == 0.0
    assert np.all(np.diff(edges) > 0)
    var = np.abs(np.diff(np.sin(3 * edges)))
    # per-panel variation of the cost stays near the budget at scan accuracy
    assert var.max() < 0.11
    assert len(edges_from_budget(0.0, 1.0, lambda x: 0.0 * x, min_panels=4)) >= 5


def test_gauss_panels_integrate_polynomials():
    x, w = gauss_panels(np.array([0.0, 0.3, 1.0]))
    assert w @ x**3 == pytest.approx(0.25, rel=1e-13)
    assert w @ np.ones_like(x) == pytest.approx(1.0, rel=1e-14)


def test_phase_change_of_variables_identity():
    # mu = -2 sin(theta/2) carries the quartic-exponent integral on [0, mu0]
    # to the cosine phase on [theta_plus, 0], theta_plus = -phase(mu0)
    t, mu0 = 37.0, 1.5
    f = lambda mu: 1.0 / (1.0 + mu**2)

    def lhs(part):
        g = lambda mu: part(np.exp(-1j * t * mu**4) * f(mu))
        return quad(g, 0.0, mu0, limit=400, epsabs=1e-12)[0]

    def rhs(part):
        def g(th):
            mu = -2.0 * np.sin(th / 2.0)
            val = np.exp(-1j * t * (2.0 - 2.0 * np.cos(th)) ** 2) * f(mu)
            return part(val * np.cos(th / 2.0))

        return quad(g, -_band_rates(mu0)[0], 0.0, limit=400, epsabs=1e-12)[0]

    assert lhs(np.real) == pytest.approx(rhs(np.real), abs=1e-9)
    assert lhs(np.imag) == pytest.approx(rhs(np.imag), abs=1e-9)
