"""Band-edge expansion coefficients and remainder decay orders."""

import mpmath as mp
import numpy as np
import pytest

from bilap.expansion import (
    coeff_sixteen_series,
    coeff_zero_series,
    geometric_grid,
    remainder_norms,
    remainder_order,
    remainder_work,
    remainder_zero,
)
from bilap.resolvent import boundary_kernel_plus

import oracles

SQRT2 = np.sqrt(2.0)


def _coeff_zero(j, k):
    """Lower-edge coefficient of order j >= -3 at separation k (row j + 3)."""
    return complex(coeff_zero_series(j, k)[j + 3])


def _coeff_sixteen(j, k):
    """Upper-edge coefficient of half-order j >= -1 at separation k (row j + 1)."""
    return complex(coeff_sixteen_series(j, k)[j + 1])


def test_closed_lower_edge_against_multiprecision():
    for k in (0, 1, 2, 3):
        mp = oracles.mp_expansion_coeffs("zero", k, 0)
        scale = max(abs(complex(v)) for v in mp.values())
        for j in (-3, -2, -1, 0):
            got = _coeff_zero(j, k)
            assert got == pytest.approx(complex(mp[j]), abs=1e-12 * scale)


def test_closed_upper_edge_against_multiprecision():
    for k in (0, 1, 2, 3):
        mp = oracles.mp_expansion_coeffs("sixteen", k, 0)
        scale = max(abs(complex(v)) for v in mp.values())
        for j in (-1, 0):
            got = _coeff_sixteen(j, k)
            assert got == pytest.approx(complex(mp[j]), abs=1e-12 * scale)


def test_series_higher_orders_against_multiprecision():
    # the oracle's Vandermonde solve loses digits in its top order, so it
    # is asked for orders beyond the ones compared
    mp = oracles.mp_expansion_coeffs("zero", 1, 5)
    for j in (1, 3):
        assert _coeff_zero(j, 1) == pytest.approx(complex(mp[j]), rel=1e-12)
    for k in (0, 1, 2, 3, 5):
        mp = oracles.mp_expansion_coeffs("sixteen", k, 6)
        for j in range(-1, 6):
            assert _coeff_sixteen(j, k) == pytest.approx(
                complex(mp[j]), rel=1e-12
            )


def test_lower_edge_even_orders_vanish():
    for k in range(9):
        assert _coeff_zero(-2, k) == 0.0
    for k in (0, 1, 2):
        assert _coeff_zero(2, k) == 0.0


def test_lower_edge_series_orders_two_mod_four_vanish_exactly():
    table = coeff_zero_series(14, np.arange(200))
    for j in range(-3, 15):
        row = table[j + 3]
        if j % 4 == 2:
            assert np.all(row == 0.0)
        else:
            # odd orders vanish at the few separations k <= (j + 2)/2
            assert np.all(row[20:] != 0.0)
    assert [remainder_order("zero", n) for n in (-3, 0, 1, 2, 5)] == [
        -1.0, 1.0, 3.0, 3.0, 7.0
    ]


def test_lower_edge_series_matches_closed_forms():
    ks = np.arange(40)
    table = coeff_zero_series(4, ks)
    k = ks.astype(float)
    closed = {
        -3: np.full(k.shape, (-1.0 + 1.0j) / 4.0),
        -2: np.zeros(k.shape),
        -1: ((1.0 + 1.0j) / 4.0) * (1.0 / 8.0 - k * k / 2.0),
        0: k * (k - 1) * (k + 1) / 12.0,
    }
    for j, want in closed.items():
        np.testing.assert_allclose(table[j + 3], want, rtol=1e-15, atol=0.0)
    order_one = (-1 + 1j) / 1536 * (2 * k + 1) * (2 * k - 1) * (2 * k + 3) * (2 * k - 3)
    order_four = k * (k * k - 1) * (k * k - 4) * (k * k - 9) / 10080
    np.testing.assert_allclose(table[4], order_one, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(table[7], order_four, rtol=1e-14, atol=0.0)


def _mp_partial_sum(mu, k, n_order):
    # coeff_zero's closed forms in exact arithmetic, the order-one polynomial,
    # and a vanishing order two
    terms = {
        -3: mp.mpc(-1, 1) / 4,
        -1: mp.mpc(1, 1) / 4 * (mp.mpf(1) / 8 - mp.mpf(k * k) / 2),
        0: mp.mpf(k * (k * k - 1)) / 12,
        1: mp.mpc(-1, 1) / 1536 * (4 * k * k - 1) * (4 * k * k - 9),
    }
    return sum(c * mu**j for j, c in terms.items() if j <= n_order)


def test_lower_edge_remainder_against_multiprecision():
    # at k = 1 the float64 difference kernel - partial sum misses the
    # remainder by 5 % at mu = 1e-2 and by more than itself below 3e-3;
    # the summed tail keeps every digit
    ks = [0, 1, 2, 3, 7, 30, 64, 128]
    with mp.workdps(50):
        for n_order in (-1, 0, 1, 2):
            for mu in (1e-3, 3e-3, 1e-2):
                got = remainder_zero(n_order, [mu], ks)[0]
                for k, val in zip(ks, got):
                    exact = complex(
                        oracles.mp_boundary_kernel("zero", mu, k)
                        - _mp_partial_sum(mp.mpf(mu), k, n_order)
                    )
                    assert abs(val - exact) <= 1e-13 * abs(exact)
                    if n_order >= 1 and k == 1 and mu <= 3e-3:
                        kernel = boundary_kernel_plus(np.array([mu]), np.array([k]))[0, 0]
                        naive = kernel - complex(_mp_partial_sum(mp.mpf(mu), k, n_order))
                        assert abs(naive - exact) > abs(exact)


def test_lower_edge_remainder_far_from_edge():
    # for k mu >> 1 the tail terms grow like (k mu)^n / n! and cancel, so
    # these samples must come from kernel minus partial sum
    with mp.workdps(50):
        for mu in (0.1, 1.0, 1.9):
            got = remainder_zero(1, [mu], [0, 5, 200, 1024])[0]
            for k, val in zip((0, 5, 200, 1024), got):
                exact = complex(
                    oracles.mp_boundary_kernel("zero", mu, k)
                    - _mp_partial_sum(mp.mpf(mu), k, 1)
                )
                assert abs(val - exact) <= 1e-12 * abs(exact)


def test_reference_coefficient_values():
    assert _coeff_zero(0, 2) == pytest.approx(0.5, rel=1e-15)
    assert _coeff_sixteen(-1, 1) == pytest.approx(-1j / 32.0)
    assert _coeff_sixteen(0, 0) == pytest.approx(-1.0 / (32.0 * SQRT2))


def test_upper_edge_order_two_table():
    # series values against independently frozen closed-form multiples
    frozen = {0: -7 * SQRT2 / 256, 1: -13 * SQRT2 / 256,
              2: -23 * SQRT2 / 256, 3: 147 * SQRT2 / 256}
    for k, want in frozen.items():
        got = _coeff_sixteen(2, k)
        assert got == pytest.approx(want, rel=1e-15)


def test_upper_edge_order_one_quadratic_in_separation():
    # after stripping the alternating phase the order-one coefficient is a
    # quadratic polynomial in the separation with leading weight -1/16
    f = [
        (_coeff_sixteen(1, k) / (1j * (-1.0) ** k)).real
        for k in (0, 2)
    ]
    assert (f[1] - f[0]) / 4.0 == pytest.approx(-1.0 / 16.0, rel=1e-15)


def test_upper_edge_series_matches_closed_forms():
    ks = np.arange(40)
    table = coeff_sixteen_series(2, ks)
    k = ks.astype(float)
    p = np.where(ks % 2, -1.0, 1.0)
    closed = {
        -1: 1j * p / 32.0,
        0: (p / (32.0 * SQRT2)) * (2.0 * SQRT2 * k - (2.0 * SQRT2 - 3.0) ** k),
    }
    for j, want in closed.items():
        np.testing.assert_allclose(table[j + 1], want, rtol=1e-15, atol=0.0)


def test_upper_edge_series_orders_never_vanish():
    # no half order drops out, so the remainder after order N decays at
    # the next half power (N + 1)/2
    table = coeff_sixteen_series(14, np.arange(200))
    assert table.shape == (16, 200)
    assert np.all(table != 0.0)
    assert [remainder_order("sixteen", n) for n in (-1, 0, 1, 4)] == [
        0.0, 0.5, 1.0, 2.5
    ]


def test_vanishing_second_order_shows_in_partial_sums():
    # residual of the partial sum through order one drops like the cube of
    # the edge distance because the order-two coefficient is identically zero
    def resid(mu, k=1):
        kern = boundary_kernel_plus(np.array([mu]), np.array([k]))[0, 0]
        s = sum(_coeff_zero(j, k) * mu**j for j in range(-3, 1))
        s += _coeff_zero(1, k) * mu
        return abs(kern - s)

    ratio = resid(0.02) / resid(0.01)
    assert 6.5 < ratio < 9.5


def _remainder_slope(threshold, n_order, s, mu_grid=None):
    grid, norms = remainder_norms(threshold, n_order, s, mu_grid)
    return np.polyfit(np.log(grid), np.log(norms), 1)[0]


def test_remainder_slope_lower_edge_first_order():
    slope = _remainder_slope("zero", 0, 5.0)
    assert slope == pytest.approx(1.0, abs=0.15)


def test_remainder_slope_lower_edge_base_order():
    # only the leading singular term removed; the order -2 coefficient
    # vanishes so the remainder already scales one power better
    slope = _remainder_slope("zero", -3, 2.0, geometric_grid(1e-3, 1e-2))
    assert slope == pytest.approx(-1.0, abs=0.15)


def test_remainder_slope_upper_edge():
    slope = _remainder_slope("sixteen", 0, 3.0)
    assert slope == pytest.approx(0.5, abs=0.1)
    flat = _remainder_slope("sixteen", -1, 2.0, geometric_grid(1e-3, 1e-2))
    assert abs(flat) < 0.1


def test_remainder_norms_shapes_and_positivity():
    grid, norms = remainder_norms("sixteen", 0, 3.0)
    assert grid.shape == norms.shape and np.all(norms > 0.0)
    assert np.all(np.diff(grid) > 0.0)


def test_order_range_errors():
    with pytest.raises(ValueError, match="top must be >= -3"):
        coeff_zero_series(-4, [0])
    with pytest.raises(ValueError, match="top must be >= -1"):
        coeff_sixteen_series(-2, [0])
    with pytest.raises(ValueError, match="threshold"):
        remainder_order("eight", 0)


def test_remainder_validation():
    with pytest.raises(ValueError, match="window_radius"):
        remainder_norms("zero", 0, 5.0, window_radius=32)
    with pytest.raises(ValueError, match="need s >"):
        remainder_norms("zero", 0, 4.0)
    with pytest.raises(ValueError, match="n_order"):
        remainder_norms("zero", -4, 5.0)
    with pytest.raises(ValueError, match="threshold"):
        remainder_norms("eight", 0, 5.0)


def test_geometric_grid_properties():
    g = geometric_grid(1e-3, 1e-1)
    assert g[0] == pytest.approx(1e-3) and g[-1] <= 1e-1 + 1e-15
    np.testing.assert_allclose(g[1:] / g[:-1], g[1] / g[0], rtol=1e-12)
    with pytest.raises(ValueError):
        geometric_grid(1e-1, 1e-3)


def test_remainder_work_counts_the_grid_remainder_norms_samples():
    # one SVD of side window_radius + 1 per grid point of remainder_norms
    grid, _ = remainder_norms("sixteen", 0, 3.0)
    assert remainder_work(64) == grid.size * 65**3 == 28 * 65**3
