"""Closed-form resolvent kernels: parametrization, limits, and dense checks."""

import cmath

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from bilap import resolvent
from bilap.lattice import PotentialSpec
from bilap.resolvent import (
    TailDoublingError,
    _band_rates,
    boundary_kernel_plus,
    free_biresolvent_complex,
    windowed_boundary_resolvent,
)
from bilap.spectral import perturbed_resolvent_boundary

import oracles

MU_GRID = np.linspace(0.1, 1.9, 10)


def _kernel(mu, k):
    """Plus-side boundary kernel at one band coordinate and separation."""
    return complex(boundary_kernel_plus(np.array([mu]), np.array([k]))[0, 0])


def test_theta_plus_reference_values():
    # theta_plus = -phase at second-difference energy mu^2
    assert -_band_rates(np.sqrt(2.0))[0] == pytest.approx(-np.pi / 2, rel=1e-15)
    assert -_band_rates(1.0)[0] == pytest.approx(-np.pi / 3, rel=1e-15)


def test_theta_plus_small_energy_series():
    # theta_plus(lam) = -sqrt(lam) - lam^(3/2)/24 + O(lam^(5/2)), lam = mu^2
    mu = 1e-2
    got = (-_band_rates(mu)[0] + mu) / mu**3
    assert got == pytest.approx(-1.0 / 24.0, rel=1e-3)


def test_b_reference_values_and_series():
    def b_of(mu):
        return _band_rates(mu)[1]

    assert b_of(2.0) == pytest.approx(np.log(3.0 - 2.0 * np.sqrt(2.0)), rel=1e-14)
    mu = 1e-4
    assert (b_of(mu) + mu) / mu**3 == pytest.approx(1.0 / 24.0, rel=1e-3)
    assert b_of(1.5) < b_of(0.5) < 0.0


def test_theta_values_invariants():
    phases, bs = _band_rates(MU_GRID)
    for mu, phase, b in zip(MU_GRID, phases, bs):
        assert (phase, b) == _band_rates(float(mu))
        assert 2.0 - 2.0 * np.cos(phase) == pytest.approx(mu**2, abs=1e-12)
        assert np.exp(b) + np.exp(-b) == pytest.approx(2.0 + mu**2, abs=1e-12)


def _second_difference_kernel(omega, k):
    """-i exp(-i theta |k|) / (2 sin theta), 2 - 2 cos theta = omega, Im theta < 0."""
    theta = cmath.acos(1.0 - omega / 2.0)
    if theta.imag >= 0.0:
        theta = -theta
    return -1j * cmath.exp(-1j * theta * abs(k)) / (2.0 * cmath.sin(theta))


def test_second_order_kernel_closed_value():
    # at z = 25 the split has second-difference values 1 / sqrt(omega (omega - 4))
    # at omega = -5 and minus that at omega = 5: (-1/sqrt(5) - 1/sqrt(45)) / 10
    assert free_biresolvent_complex(25.0, 0) == pytest.approx(
        -2.0 / (15.0 * np.sqrt(5.0)), abs=1e-15
    )
    # the diagonal is the mean of 1 / (symbol - z) over the circle, where the
    # trapezoid rule converges geometrically
    x = 2.0 * np.pi * np.arange(4096) / 4096
    symbol = (2.0 - 2.0 * np.cos(x)) ** 2
    for z in (-1.0, 3.0 + 2.0j, 40.0):
        want = np.mean(1.0 / (symbol - z))
        assert free_biresolvent_complex(z, 0) == pytest.approx(want, abs=1e-14)


def test_second_order_kernel_against_dense_solve():
    # one dense solve of the fourth difference per z; the closed form is its
    # inverse deep inside the window
    side = 513
    c = side // 2
    ks = np.array([0, 1, 4, -3, 9])
    delta = np.zeros(side)
    delta[c] = 1.0
    for z in (-1.0, 25.0, 5.0 + 0.5j, 2.0 + 1.0j):
        a = oracles.dense_hamiltonian(side, np.zeros(side)) - z * np.eye(side)
        col = np.linalg.solve(a, delta.astype(complex))
        np.testing.assert_allclose(
            free_biresolvent_complex(z, ks), col[c + ks], rtol=0, atol=1e-12
        )


def test_second_order_kernel_symmetry_and_decay():
    z = 3.0 + 0.7j
    ks = np.arange(-8, 61)
    vals = free_biresolvent_complex(z, ks)
    # an array call is the scalar calls, and the kernel is even
    np.testing.assert_allclose(
        vals, [free_biresolvent_complex(z, int(k)) for k in ks], rtol=1e-15, atol=0
    )
    np.testing.assert_array_equal(vals[:8], vals[16:8:-1])
    # far out the slower of the two waves is all that is left
    ratios = vals[-6:] / vals[-7:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)
    assert abs(ratios[0]) < 1.0


def test_second_order_kernel_rejects_band():
    for z in (0.0, 4.0, 16.0):
        with pytest.raises(ValueError, match="band"):
            free_biresolvent_complex(z, np.arange(3))


def test_boundary_kernel_reference_value():
    want = 1j / (2.0 * np.sqrt(3.0)) - 1.0 / (2.0 * np.sqrt(5.0))
    assert boundary_kernel_plus(1.0, 0) == pytest.approx(want, abs=1e-14)


# lower strip and bulk in mu; the upper strip in w = sqrt(2 - mu), with
# 1 - mu^2/4 passed from w as the Stone nodes do
_STRIP_W = np.geomspace(1e-9, 1e-2, 7)
_KERNEL_NODES = [
    (np.geomspace(1e-9, 1e-4, 7), None),
    (np.linspace(1e-4, 2.0 - 1e-4, 41), None),
    (2.0 - _STRIP_W**2, _STRIP_W**2 * (4.0 - _STRIP_W**2) / 4.0),
]


@pytest.mark.parametrize("mu, omq", _KERNEL_NODES, ids=["lower", "bulk", "upper"])
@pytest.mark.parametrize(
    "ks",
    [
        np.arange(2001),
        np.random.default_rng(7).permutation(np.r_[np.arange(0, 2001, 13), 5, 5, 2000, 0]),
        np.array([3, 3, 3]),
    ],
    ids=["range", "unsorted", "repeated"],
)
def test_boundary_kernel_power_tables_match_direct_exp(mu, omq, ks):
    got = boundary_kernel_plus(mu, ks, one_minus_q=omq)
    want = oracles.direct_boundary_kernel(mu, ks, one_minus_q=omq)
    assert got.shape == want.shape
    # relative to each node's largest entry: the oscillating wave keeps its
    # modulus along k, so this is relative accuracy at every separation
    rel = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
    assert rel.max() <= 1e-14


def test_boundary_kernel_default_amplitude_near_upper_edge():
    # without one_minus_q the kernel forms 1 - mu^2/4 itself; the plain
    # subtraction loses up to 1.25e-9 relative here to cancellation
    mu = 2.0 - np.geomspace(1e-9, 1e-2, 15)
    ks = np.arange(11)
    got = boundary_kernel_plus(mu, ks)
    with mp.workdps(50):
        want = np.array(
            [[complex(oracles.mp_boundary_kernel("zero", m, k)) for k in ks] for m in mu]
        )
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11


def test_boundary_kernel_keeps_the_shape_of_k():
    mu = np.array([0.3, 1.1, 1.7])
    ks = np.array([[4, 0], [1, 9]])
    got = boundary_kernel_plus(mu, ks)
    assert got.shape == (3, 2, 2)
    want = oracles.direct_boundary_kernel(mu, ks.ravel()).reshape(3, 2, 2)
    np.testing.assert_allclose(got, want, rtol=1e-14)
    assert boundary_kernel_plus(mu, np.array([], dtype=int)).shape == (3, 0)
    for bad in ([-1], [0.5]):
        with pytest.raises(ValueError, match="non-negative integers"):
            boundary_kernel_plus(mu, np.array(bad))


def test_boundary_jump_is_oscillatory():
    # the difference of the two boundary values keeps only the circle part:
    # R+ - R- = 2i Im R+ = i cos(theta_plus k) / (2 mu^3 sqrt(1 - mu^2/4))
    for mu in MU_GRID:
        phase = _band_rates(mu)[0]
        for k in range(7):
            plus = _kernel(mu, k)
            want = 1j * np.cos(phase * k) / (2.0 * mu**3 * np.sqrt(1.0 - mu**2 / 4.0))
            assert plus - plus.conjugate() == pytest.approx(want, abs=1e-12)


def test_boundary_kernel_solves_difference_equation():
    # (stencil - mu^4) K = delta row by row, away from nothing: the kernel
    # is defined on all of the line so every row is interior
    for mu in (0.4, 1.0, 1.7):
        vals = boundary_kernel_plus(np.array([mu]), np.abs(np.arange(-9, 10)))[0]
        sten = vals[:-4] - 4 * vals[1:-3] + 6 * vals[2:-2] - 4 * vals[3:-1] + vals[4:]
        rhs = sten - mu**4 * vals[2:-2]
        want = np.zeros(15, dtype=complex)
        want[7] = 1.0  # site n = 0
        np.testing.assert_allclose(rhs, want, atol=1e-11)


def test_boundary_kernel_is_outgoing():
    # far from the diagonal only the oscillatory mode survives
    theta_plus = -_band_rates(1.0)[0]
    a, b = _kernel(1.0, 61), _kernel(1.0, 60)
    assert a / b == pytest.approx(cmath.exp(-1j * theta_plus), abs=1e-12)


def test_complex_resolvent_against_dense_solve():
    for z in (-1.0, 24.0 + 0.5j, 1.0 + 0.2j):
        for n, m in ((0, 0), (3, -2)):
            got = free_biresolvent_complex(z, n - m)
            want = oracles.dense_complex_resolvent(z, n, m, window_radius=512)
            assert got == pytest.approx(want, abs=1e-8)


def test_complex_resolvent_limits_to_boundary():
    # from above the limit is the plus-side kernel, from below its conjugate
    mu = 1.1
    bdry = _kernel(mu, 3)
    eps = np.array([4e-3, 2e-3, 1e-3, 5e-4])
    for side, want in ((1.0, bdry), (-1.0, bdry.conjugate())):
        ys = np.array(
            [free_biresolvent_complex(mu**4 + side * 1j * e, 3) for e in eps]
        )
        t = ys.astype(complex)
        for j in range(1, len(eps)):  # Neville table toward eps = 0
            t = (eps[j:] * t[:-1] - eps[: len(t) - 1] * t[1:]) / (
                eps[j:] - eps[: len(t) - 1]
            )
        assert t[0] == pytest.approx(want, abs=1e-10 * abs(want))


def test_complex_resolvent_square_root_split():
    # 1/(x^2 - z) = (1/(2w)) (1/(x - w) - 1/(x + w)) for either root w;
    # the kernel must not depend on which root is taken
    for z in (-1.0, 1.0 + 0.2j):
        w = cmath.sqrt(z)
        for n in (0, 2, 5):
            manual = (
                _second_difference_kernel(w, n) - _second_difference_kernel(-w, n)
            ) / (2.0 * w)
            assert free_biresolvent_complex(z, n) == pytest.approx(
                manual, abs=1e-13
            )


def test_complex_resolvent_rejects_band():
    for z in (0.0, 0.5, 16.0):
        with pytest.raises(ValueError):
            free_biresolvent_complex(z, 0)


def test_spectral_param_validation():
    for mu in (0.0, 2.0, -1.0):
        with pytest.raises(ValueError, match="mu must lie in"):
            perturbed_resolvent_boundary(mu, None, 0, 0)
        with pytest.raises(ValueError, match="mu must lie in"):
            windowed_boundary_resolvent(mu, [(0, 0)], [None])


def test_windowed_resolvent_matches_closed_form():
    for mu in (0.3, 0.7, 1.0, 1.4, 1.8):
        want = _kernel(mu, 5)
        got = windowed_boundary_resolvent(mu, [(3, -2)], [None])[0][0, 0]
        assert abs(got - want) / abs(want) < 1e-6


def test_dense_ladder_oracle_smoke():
    # coarse independent path: dense solves on a ladder of offsets, then
    # polynomial extrapolation; only accurate away from the band edges
    mu = 1.3
    want = _kernel(mu, 0)
    got = oracles.dense_boundary_resolvent(mu, 0, 0)
    assert abs(got - want) / abs(want) < 2e-5


def test_boundary_kernel_against_multiprecision():
    for thr, dists in (("zero", (1e-2, 1e-3)), ("sixteen", (1e-2, 1e-3))):
        for d in dists:
            mu = d if thr == "zero" else 2.0 - d
            for k in (0, 1, 3, 6):
                got = _kernel(mu, k)
                want = complex(oracles.mp_boundary_kernel(thr, d, k))
                assert abs(got - want) / abs(want) < 1e-12


def _fixed_window_oracle(mu, n, m, V=None):
    # one window per entry, every rung on the window sized for
    # the smallest eps, no tail elimination
    lam = mu**4
    eps_min = min(2e-3, min(lam, 16.0 - lam) / 400.0)
    scale = 4.0 * mu**3 * np.sqrt(1.0 - mu * mu / 4.0)
    support = V.support_radius if V is not None else 0
    radius = int(np.ceil(30.0 * scale / eps_min)) + max(abs(n), abs(m), support) + 64
    side = 2 * radius + 1
    ab = np.zeros((5, side), dtype=complex)
    ab[0, 2:], ab[1, 1:], ab[3, :-1], ab[4, :-2] = 1.0, -4.0, -4.0, 1.0
    diag = np.full(side, 6.0, dtype=complex)
    if V is not None:
        diag += V.on_window(radius)
    rhs = np.zeros(side, dtype=complex)
    rhs[m + radius] = 1.0
    eps_values = eps_min * 2.0 ** np.arange(4)
    samples = []
    for eps in eps_values:
        ab[2] = diag - (lam + 1j * eps)
        samples.append(scipy.linalg.solve_banded((2, 2), ab, rhs)[n + radius])
    return complex(resolvent._neville_at_zero(eps_values, np.array(samples)))


DEFAULT_POTENTIALS = (
    None, PotentialSpec.delta(0.5), PotentialSpec((-1, 1), [0.3, -0.2, 0.1])
)


def test_rung_windows_match_fixed_window_oracle():
    pairs = [(3, -2), (8, -8), (0, 0)]
    for mu in (0.3, 1.0, 1.8):
        got, run = windowed_boundary_resolvent(mu, pairs, DEFAULT_POTENTIALS)
        assert got.shape == (3, 3) and run["half_width"] == 8
        for i, V in enumerate(DEFAULT_POTENTIALS):
            for j, (n, m) in enumerate(pairs):
                want = _fixed_window_oracle(mu, n, m, V)
                assert abs(got[i, j] - want) <= 1e-10 * abs(want)


def test_oracle_holds_a_wide_support():
    # radius 203: the support, not the pairs, sets the central half-width
    wide = PotentialSpec((199, 203), [0.4, -0.1, 0.25, 0.0, 0.3])
    for mu in (0.7, 1.4):
        got, run = windowed_boundary_resolvent(mu, [(3, -2), (201, 200)], [wide])
        assert run["half_width"] == 203
        for j, (n, m) in enumerate([(3, -2), (201, 200)]):
            want = _fixed_window_oracle(mu, n, m, wide)
            assert abs(got[0, j] - want) <= 1e-10 * abs(want)


def test_doubled_tail_matches_finite_tail_solve():
    # the finite tails the oracle once solved: thirty regularised decay
    # lengths plus 64 sites per rung, with the two unit columns
    for mu in (0.3, 1.0, 1.8):
        lam = mu**4
        eps_values = min(2e-3, min(lam, 16.0 - lam) / 400.0) * 2.0 ** np.arange(4)
        scale = 4.0 * mu**3 * np.sqrt(1.0 - mu * mu / 4.0)
        levels = []
        for eps in eps_values:
            z = lam + 1j * eps
            length = int(np.ceil(30.0 * scale / eps)) + 64
            ab = np.zeros((5, length), dtype=complex)
            ab[0, 2:], ab[1, 1:], ab[2], ab[3, :-1], ab[4, :-2] = 1.0, -4.0, 6.0 - z, -4.0, 1.0
            want = scipy.linalg.solve_banded((2, 2), ab, np.eye(length, 2))[:2]
            got, depth = resolvent._free_tail_green(z)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            levels.append(depth)
        # each doubling of eps halves the sites the coupling needs to decay
        assert np.diff(levels).tolist() == [-1, -1, -1]


def test_tail_doubling_refuses_an_undamped_tail():
    # eps = mu^4 / 400 is below rounding next to the diagonal 6 - mu^4
    with pytest.raises(TailDoublingError, match="did not decouple"):
        windowed_boundary_resolvent(1e-8, [(0, 0)], [None])


@pytest.mark.parametrize("size", [1, 2, 3, 5, 6, 17, 1001, 65537, 131073])
def test_pentadiagonal_solve_matches_lapack(size):
    # X - 0.1 i with X real symmetric pentadiagonal; 131073 sites is the
    # central block at the CLI's site limit, support radius 2^16
    rng = np.random.default_rng(size)
    diag = rng.normal(size=size) - 0.1j
    off1, off2 = rng.normal(size=max(size - 1, 0)), rng.normal(size=max(size - 2, 0))
    ab = np.zeros((5, size), dtype=complex)
    ab[0, 2:], ab[1, 1:], ab[2], ab[3, :-1], ab[4, :-2] = off2, off1, diag, off1, off2
    for rhs in (rng.normal(size=size), rng.normal(size=(size, 3)) + 1j * rng.normal(size=(size, 3))):
        want = scipy.linalg.solve_banded((2, 2), ab, rhs.astype(complex))
        got = resolvent._solve_pentadiagonal(diag, off1, off2, rhs)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
