"""Potential factorisation, sandwich matrices, edge bases, eigenvalues."""

import numpy as np
import pytest

from bilap import propagator, spectral
from bilap.expansion import geometric_grid
from bilap.lattice import PotentialSpec, build_hamiltonian
from bilap.resolvent import (
    boundary_kernel_plus,
    windowed_boundary_resolvent,
)
from bilap.spectral import (
    BAND_MARGIN,
    BirmanSchwingerSystem,
    SingularSandwichError,
    bound_states,
    decompose_potential,
    discrete_eigs,
    embedded_eig_scan,
    m_matrix_grid,
    minv_expansion_probe,
    perturbed_resolvent_boundary,
    regular_point_check,
)
from bilap.spectral import _edge_data, _window_eigenvalues

import oracles

DELTA_HALF = PotentialSpec.delta(0.5)
GENERIC = PotentialSpec((-1, 1), [0.3, -0.2, 0.1])
# tuned so the compression of the zero-edge matrix onto the orthogonal
# complement of the moment vectors vanishes identically (2 + a = 4a/|b|
# with a = 0.5, |b| = 0.8)
NONREGULAR = PotentialSpec((-1, 1), [0.5, -0.8, 0.5])
# a mixed-sign draw with two states below the band and one 3e-6 above it
MIXED = PotentialSpec((-2, 2), [-0.219381, 0.20846, 0.158265, -0.146959, -0.002739])


def _kernel(mu, k):
    """Plus-side free boundary kernel at one band coordinate and separation."""
    return complex(boundary_kernel_plus(np.array([mu]), np.array([k]))[0, 0])


def test_decompose_delta():
    sys_ = decompose_potential(PotentialSpec.delta(-4.0))
    np.testing.assert_array_equal(sys_.sites, [0])
    np.testing.assert_allclose(sys_.v, [2.0])
    np.testing.assert_allclose(sys_.u, [-1.0])


def test_decompose_polynomial_weight():
    n = np.arange(-8, 9)
    V = PotentialSpec((-8, 8), (1.0 + n**2) ** -8.0)
    sys_ = decompose_potential(V)
    np.testing.assert_allclose(sys_.v, (1.0 + n**2) ** -4.0, rtol=1e-14)
    np.testing.assert_array_equal(sys_.u, np.ones(17))


def test_decompose_reconstructs_potential():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=7)
    sys_ = decompose_potential(PotentialSpec((-3, 3), vals))
    np.testing.assert_allclose(sys_.u * sys_.v**2, vals, rtol=1e-14)


def test_decompose_drops_zero_sites():
    sys_ = decompose_potential(PotentialSpec((-1, 2), [0.8, -0.5, 0.0, 0.3]))
    np.testing.assert_array_equal(sys_.sites, [-1, 0, 2])


def test_system_validation():
    ok = dict(sites=np.array([0]), v=np.array([1.0]), u=np.array([1.0]))
    BirmanSchwingerSystem(**ok)
    with pytest.raises(ValueError, match="equal length"):
        BirmanSchwingerSystem(np.array([0, 1]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="empty"):
        BirmanSchwingerSystem(np.array([]), np.array([]), np.array([]))
    with pytest.raises(ValueError, match="strictly positive"):
        BirmanSchwingerSystem(np.array([0]), np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match=r"\+-1"):
        BirmanSchwingerSystem(np.array([0]), np.array([1.0]), np.array([0.5]))


def test_sandwich_matrix_single_site_value():
    sys_ = decompose_potential(DELTA_HALF)
    mu = 0.9
    want = 1.0 + 0.5 * _kernel(mu, 0)
    got = m_matrix_grid(mu, sys_)[0]
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(want, rel=1e-14)


def test_sandwich_matrix_is_complex_symmetric_and_conjugate():
    sys_ = decompose_potential(GENERIC)
    for mu in (0.4, 1.2, 1.8):
        plus = m_matrix_grid(mu, sys_)[0]
        np.testing.assert_allclose(plus, plus.T, atol=1e-14)


def test_sandwich_matrix_grid_consistency():
    sys_ = decompose_potential(GENERIC)
    mus = np.array([0.5, 1.0, 1.5])
    grid = m_matrix_grid(mus, sys_)
    assert grid.shape == (3, 3, 3)
    for i, mu in enumerate(mus):
        np.testing.assert_allclose(grid[i], m_matrix_grid(mu, sys_)[0], atol=0)


def test_sandwich_matrix_never_singular_on_band():
    # numeric sweep backing the absence of embedded eigenvalues
    mus = np.linspace(0.1, 1.9, 19)
    for V in (DELTA_HALF, GENERIC):
        sys_ = decompose_potential(V)
        ssv = min(
            np.linalg.svd(m_matrix_grid(m, sys_)[0], compute_uv=False).min()
            for m in mus
        )
        assert ssv > 1e-2


def test_edge_basis_matches_gram_schmidt_oracle():
    sys_ = decompose_potential(GENERIC)
    _, _, S0, _, Qt = oracles.gram_projections(sys_.v, sys_.sites)
    for threshold, want in (("zero", S0), ("sixteen", Qt)):
        B = _edge_data(sys_, threshold)[1]
        np.testing.assert_allclose(B @ B.T, want, atol=1e-12)


def test_edge_basis_is_orthonormal():
    rng = np.random.default_rng(9)
    sys_ = decompose_potential(PotentialSpec((-4, 4), rng.uniform(0.1, 1.0, 9)))
    for threshold, width in (("zero", 7), ("sixteen", 8)):
        B = _edge_data(sys_, threshold)[1]
        assert B.shape == (9, width)
        np.testing.assert_allclose(B.T @ B, np.eye(width), atol=1e-14)


def test_edge_basis_annihilates_moments():
    rng = np.random.default_rng(9)
    sys_ = decompose_potential(PotentialSpec((-4, 4), rng.uniform(-1.0, 1.0, 9)))
    zero, sixteen = (_edge_data(sys_, threshold)[1] for threshold in ("zero", "sixteen"))
    alternating = np.where(sys_.sites % 2 == 0, 1.0, -1.0) * sys_.v
    for B, w in ((zero, sys_.v), (zero, sys_.sites * sys_.v), (sixteen, alternating)):
        assert np.max(np.abs(B.T @ w)) < 1e-12 * np.max(np.abs(w))


def test_projections_single_site_degeneracy():
    # v alone spans a single site's space: both edge bases are empty and
    # the projections onto them vanish
    sys_ = decompose_potential(DELTA_HALF)
    for threshold in ("zero", "sixteen"):
        B = _edge_data(sys_, threshold)[1]
        assert B.shape == (1, 0)
        np.testing.assert_allclose(B @ B.T, [[0.0]])


def test_projections_two_site_s0_vanishes():
    sys_ = decompose_potential(PotentialSpec((0, 1), [1.0, -2.0]))
    B = _edge_data(sys_, "zero")[1]
    assert B.shape == (2, 0)
    assert np.max(np.abs(B @ B.T)) < 1e-12


def test_edge_limit_operators():
    sys1 = decompose_potential(PotentialSpec.delta(-4.0))
    np.testing.assert_allclose(_edge_data(sys1, "zero")[0], [[-1.0]], atol=1e-15)
    want = -1.0 - 4.0 / (32.0 * np.sqrt(2.0))
    np.testing.assert_allclose(_edge_data(sys1, "sixteen")[0], [[want]], rtol=1e-14)
    sysg = decompose_potential(GENERIC)
    for threshold in ("zero", "sixteen"):
        T = _edge_data(sysg, threshold)[0]
        np.testing.assert_allclose(T, T.T, atol=1e-14)


def test_regular_point_check_single_site_is_vacuous():
    sys_ = decompose_potential(DELTA_HALF)
    for thr in ("zero", "sixteen"):
        rep = regular_point_check(sys_, thr)
        assert rep.is_regular
        assert rep.smallest_singular_value == np.inf


def test_regular_point_check_generic():
    rng = np.random.default_rng(5)
    vals = rng.uniform(-0.3, 0.3, size=9)
    vals[np.abs(vals) < 0.05] = 0.21
    sys_ = decompose_potential(PotentialSpec((-4, 4), vals))
    for thr in ("zero", "sixteen"):
        rep = regular_point_check(sys_, thr)
        assert rep.is_regular and rep.smallest_singular_value > 1e-3


def test_constructed_potential_is_not_regular():
    rep = regular_point_check(decompose_potential(NONREGULAR), "zero")
    assert not rep.is_regular
    assert rep.smallest_singular_value < 1e-12


def test_probe_refuses_non_regular_edge():
    # the lower edge of NONREGULAR is not regular; its upper edge is, and
    # the probe runs there
    sys_ = decompose_potential(NONREGULAR)
    with pytest.raises(SingularSandwichError, match="threshold 'zero' not regular"):
        minv_expansion_probe(sys_, "zero", np.geomspace(1e-3, 1e-2, 5))
    upper = minv_expansion_probe(sys_, "sixteen", geometric_grid(1e-8, 1e-5))
    assert np.isfinite(upper.leakage_slope)


def test_probe_slopes_at_regular_edges():
    sys_ = decompose_potential(PotentialSpec((-1, 2), [0.8, -0.5, 0.0, 0.3]))
    pz = minv_expansion_probe(sys_, "zero", geometric_grid(1e-3, 1e-1))
    assert pz.leakage_slope == pytest.approx(1.0, abs=0.1)
    assert pz.sup_inverse_norm < 10.0
    # the square-root regime at the upper edge opens far closer in
    ps = minv_expansion_probe(sys_, "sixteen", geometric_grid(1e-8, 1e-5))
    assert ps.leakage_slope == pytest.approx(0.5, abs=0.05)
    assert ps.sup_inverse_norm < 10.0


def test_probe_grid_validation():
    sys_ = decompose_potential(GENERIC)
    with pytest.raises(ValueError, match="edge distances"):
        minv_expansion_probe(sys_, "zero", np.array([0.5, 2.5]))


def test_perturbed_resolvent_none_is_free():
    assert perturbed_resolvent_boundary(1.1, None, 2, -1) == _kernel(1.1, 3)


def test_perturbed_resolvent_solves_difference_equation():
    for V in (DELTA_HALF, GENERIC):
        vals = V.on_window(1) if V is GENERIC else np.array([0.5])
        sites = V.sites
        for mu in (0.6, 1.3):
            col = np.array(
                [perturbed_resolvent_boundary(mu, V, n, 0) for n in range(-9, 10)]
            )
            sten = (
                col[:-4] - 4 * col[1:-3] + 6 * col[2:-2] - 4 * col[3:-1] + col[4:]
            )
            lhs = sten - mu**4 * col[2:-2]
            for s, c in zip(sites, vals):
                lhs[s + 7] += c * col[s + 9]
            want = np.zeros(15, dtype=complex)
            want[7] = 1.0
            np.testing.assert_allclose(lhs, want, atol=1e-9)


def test_perturbed_resolvent_matches_windowed_ladder():
    for V in (DELTA_HALF, GENERIC):
        for mu in (0.7, 1.3):
            want = perturbed_resolvent_boundary(mu, V, 3, -2)
            got = windowed_boundary_resolvent(mu, [(3, -2)], [V])[0][0, 0]
            assert abs(got - want) / abs(want) < 1e-6


def test_perturbed_resolvent_against_dense_ladder_oracle():
    mu = 1.3
    want = perturbed_resolvent_boundary(mu, DELTA_HALF, 0, 0)
    got = oracles.dense_boundary_resolvent(mu, 0, 0, potential=([0], [0.5]))
    assert abs(got - want) / abs(want) < 2e-5


def test_perturbed_resolvent_symmetry_and_conjugate():
    for n, mm in ((2, -1), (0, 3)):
        a = perturbed_resolvent_boundary(0.8, GENERIC, n, mm)
        assert a == pytest.approx(
            perturbed_resolvent_boundary(0.8, GENERIC, mm, n), rel=1e-13
        )


def test_perturbed_resolvent_second_identity():
    # R_V = R0 - R0 V R0 + R0 V R_V V R0, all entries at the boundary
    sites = GENERIC.sites
    vals = GENERIC.on_window(1)
    for mu in (0.6, 1.2):
        n, m = 2, -1
        r0 = {
            (a, b): _kernel(mu, abs(a - b))
            for a in (n, *sites)
            for b in (m, *sites)
        }
        rv = {
            (a, b): perturbed_resolvent_boundary(mu, GENERIC, a, b)
            for a in sites
            for b in sites
        }
        first = sum(r0[n, j] * c * r0[j, m] for j, c in zip(sites, vals))
        second = sum(
            r0[n, j] * cj * rv[j, l] * cl * r0[l, m]
            for j, cj in zip(sites, vals)
            for l, cl in zip(sites, vals)
        )
        want = r0[n, m] - first + second
        got = perturbed_resolvent_boundary(mu, GENERIC, n, m)
        assert got == pytest.approx(want, abs=1e-10)


_READERS = {
    "stone": lambda: propagator.stone_kernel_slice(1.0, GENERIC, 2),
    "resolvent": lambda: perturbed_resolvent_boundary(1.0, GENERIC, 0, 0),
    "probe": lambda: minv_expansion_probe(decompose_potential(GENERIC), "zero", np.geomspace(1e-3, 1e-1, 9)),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("scale", [0.0, 1e-12, np.nan], ids=["singular", "near-singular", "nan"])
def test_every_reader_refuses_a_singular_sandwich(monkeypatch, reader, scale):
    # one node's sandwich becomes scale * identity: an exact zero pivot, an
    # inverse of Frobenius norm sqrt(3) 1e12, above the 1e10 threshold, or
    # NaN, as when M overflows; every on-band reader refuses it through
    # solve_sandwich alike
    grid = spectral.m_matrix_grid

    def one_singular(mu, sys, one_minus_q=None):
        m = grid(mu, sys, one_minus_q=one_minus_q)
        m[m.shape[0] // 2] = scale * np.eye(m.shape[1])
        return m

    monkeypatch.setattr(spectral, "m_matrix_grid", one_singular)
    monkeypatch.setattr(propagator, "m_matrix_grid", one_singular)
    with pytest.raises(SingularSandwichError, match="numerically singular at energy mu"):
        _READERS[reader]()


def test_discrete_eigs_delta_counts():
    (above,) = discrete_eigs(PotentialSpec.delta(5.0), 32)
    assert above > 16.0
    (below,) = discrete_eigs(PotentialSpec.delta(-5.0), 32)
    assert below < 0.0


def test_discrete_eigs_shallow_state_value():
    (lam,) = discrete_eigs(DELTA_HALF, 256)
    assert lam == pytest.approx(16.00798298037027, abs=1e-8)


def test_discrete_eigs_validation_and_empty():
    assert discrete_eigs(None, 64) == []
    # the Dirichlet stencil must clear the support by two sites
    with pytest.raises(ValueError, match="support radius \\+ 2"):
        discrete_eigs(DELTA_HALF, 1)
    # a state this shallow spreads over hundreds of sites: window 128 holds
    # 91 % of its norm and still returns its eigenvalue, which the
    # truncation, a compression of H, can only lower
    (lam,) = discrete_eigs(GENERIC, 128)
    ((E, _),) = bound_states(GENERIC)
    assert 16.0 + BAND_MARGIN < lam < E < lam + 1e-3


def test_bound_states_match_window_eigenvalues():
    # the state falls by e^-0.032 per site: window 256 still moves its
    # eigenvalue by 2.8e-9, window 512 by 4e-15
    got = [E for E, _ in bound_states(DELTA_HALF)]
    want = discrete_eigs(DELTA_HALF, 512)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    # window 268 localises the two states below the band but not the third,
    # 3e-6 above it, which no window of that size holds
    got = [E for E, _ in bound_states(MIXED)]
    assert len(got) == 3 and 16.0 < got[2] < 16.0 + 1e-5
    want = discrete_eigs(MIXED, 268)
    np.testing.assert_allclose(got[:2], want, rtol=0, atol=1e-10)
    assert bound_states(None) == []


def test_bound_state_norms_are_closed_form():
    # the shallowest state still falls below 1e-30 by |n| = 70000
    sites = np.arange(-70000, 70001)
    for E, psi in bound_states(DELTA_HALF) + bound_states(MIXED):
        assert np.sum(psi(sites) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_bound_states_are_eigenvectors():
    radius = 300
    sites = np.arange(-radius, radius + 1)
    for V in (DELTA_HALF, MIXED, PotentialSpec.delta(-5.0)):
        h = build_hamiltonian(V, radius)
        for E, psi in bound_states(V):
            vals = psi(sites)
            # the Dirichlet stencil cuts the two outermost sites on each side
            assert np.abs(h @ vals - E * vals)[2:-2].max() < 1e-12


def test_coincident_bound_states_are_orthonormal():
    # two deep wells 120 sites apart split their states by far less than a
    # float's spacing at 16.9
    V = PotentialSpec((-60, 60), np.r_[5.0, np.zeros(119), 5.0])
    states = bound_states(V)
    assert len(states) == 2 and states[0][0] == states[1][0]
    sites = np.arange(-400, 401)
    vals = np.array([psi(sites) for _, psi in states])
    np.testing.assert_allclose(vals @ vals.T, np.eye(2), rtol=0, atol=1e-12)


@pytest.mark.parametrize("coupling", [-1e18, -1e22])
def test_huge_negative_coupling_keeps_its_bound_state(coupling):
    # a delta of coupling V < 0 binds one state at E = V + 6 + O(1/V); the
    # bracket below V must not round onto V where 1 is below V's spacing
    states = bound_states(PotentialSpec.delta(coupling))
    assert len(states) == 1
    E, psi = states[0]
    assert abs(E - coupling) <= 16.0
    vals = psi(np.arange(-8, 9))
    assert np.sum(vals**2) == pytest.approx(1.0, abs=1e-12)
    assert abs(vals[8]) == pytest.approx(1.0, abs=1e-12)



@pytest.mark.parametrize("coupling", [1e250, -1e250, 1e300, -1e300])
def test_bound_state_of_coupling_near_float_range(coupling):
    # w (z - 16) overflows past |z| = 3.2e205; the ratio w / (w + 4) taken
    # first keeps the state at E = V + 6 + O(1/V) for couplings up to 2e307
    states = bound_states(PotentialSpec.delta(coupling))
    assert len(states) == 1
    E, psi = states[0]
    assert abs(E / coupling - 1.0) <= 1e-15
    vals = psi(np.arange(-8, 9))
    assert abs(vals[8]) == pytest.approx(1.0, abs=1e-12)
    pair = bound_states(PotentialSpec((0, 1), [1e300, 1e300]))
    assert len(pair) == 2 and all(abs(E / 1e300 - 1.0) <= 1e-15 for E, _ in pair)


@pytest.mark.parametrize(
    "values", [[1.7e308], [-1.7e308], [1.7e308, 1.7e308], [1.0, 1e300, 1.0]]
)
def test_bound_states_refuse_coupling_past_float_range(values):
    # the kernel's amplitude 1 / (2 |E|) at the outer bracket end is no
    # longer a normal float there; before, -1.7e308 gave a state at -8.5e307.
    # Near the band 1e300 beside couplings of order one puts infinite entries
    # beside finite ones in M, which eigvalsh cannot diagonalise
    with pytest.raises(SingularSandwichError, match="past the float range"):
        bound_states(PotentialSpec((0, len(values) - 1), values))


def test_bound_states_refuse_a_state_whose_norm_leaves_the_float_range():
    # beside 1e300 the count finds a drop at E = -2.5e-12, next to the band,
    # where the state's l2 norm is past the float range; before, eig-scan
    # overflowed there
    with pytest.raises(SingularSandwichError, match="l2 norm is past the float range"):
        bound_states(PotentialSpec((0, 1), [1e300, -0.001953125]))

def test_embedded_scan_clean_for_delta():
    # one site: M(mu) is a number whose imaginary part, from the kernel's
    # outgoing wave, never vanishes inside the band
    rep = embedded_eig_scan(PotentialSpec.delta(1.0))
    assert rep.verdict == "no embedded eigenvalues detected"
    assert rep.states == () and rep.minima == () and rep.points == 1057
    assert rep.resolved == (1e-9, 2.0 - 2.0**-52)
    rep = embedded_eig_scan(None)
    assert rep.states == () and rep.resolved == (1e-9, 2.0 - 2.0**-52)


# V = [c, -sqrt 5, c] on [-1, 1] has the eigenvalue 1 inside the band, with the
# decaying eigenvector r^|n|, r = e^b at mu = 1: V = (psi - Delta^2 psi) / psi
# on the three sites where Delta^2 psi differs from psi
EMBEDDED = PotentialSpec((-1, 1), [5.854101966249685, -np.sqrt(5.0), 5.854101966249685])


def test_embedded_scan_finds_the_constructed_eigenvalue():
    rep = embedded_eig_scan(EMBEDDED)
    assert rep.verdict == "1 embedded eigenvalue(s) found"
    ((E, psi),) = rep.states
    assert abs(E - 1.0) <= 1e-12
    ((mu, ratio),) = rep.minima
    assert abs(mu - 1.0) <= 1e-15 and ratio <= 2.0**-40
    # psi = R0 v phi solves (H - E) psi = 0 to rounding on a window, where it
    # has fallen by e^-38 at its ends
    n = np.arange(-42, 43)
    values = psi(n)
    diagonal = 6.0 + EMBEDDED.on_window(40) - E
    residual = (values[:-4] + values[4:] - 4.0 * (values[1:-3] + values[3:-1])
                + diagonal * values[2:-2])
    assert np.abs(values).max() == pytest.approx(np.abs(values[41:44]).max())
    assert np.abs(residual).max() <= 1e-14 * np.abs(values).max()
    # the state is even, as its potential, to rounding
    np.testing.assert_allclose(values, values[::-1], rtol=0, atol=1e-15 * np.abs(values).max())
    # three sites: M spreads like mu^-3, mu^-1 and 1 toward mu = 0, where
    # the float M reads singular up to the first grid point past 1e-9
    assert rep.resolved[0] == pytest.approx(3.048e-3, rel=1e-3)


@pytest.mark.parametrize(
    "V",
    [
        DELTA_HALF,
        GENERIC,
        # a near-resonance at mu = 0.2016, whose ratio refines only to 7.3e-9
        PotentialSpec((-1, 1), [0.5, -0.7999, 0.5]),
        # the crosscheck benchmark's 5-site potentials of seeds 1 and 2
        PotentialSpec((-2, 2), [0.453746, 0.738973, 0.70551, 0.502028, 0.598174]),
        PotentialSpec((-2, 2), [0.782414, 0.779131, 0.422621, 0.433949, 0.7342]),
    ],
)
def test_embedded_scan_reports_no_eigenvalue_off_the_constructed_one(V):
    rep = embedded_eig_scan(V)
    assert rep.states == () and rep.verdict == "no embedded eigenvalues detected"
    assert all(ratio > 2.0**-40 for _, ratio in rep.minima)


def test_embedded_scan_refines_only_minima_below_its_threshold():
    # the near-resonance's grid minimum, 1.1e-6, is refined; the seeds'
    # grid minima, 0.17 and 0.115, and the default's none are not
    ((mu, ratio),) = embedded_eig_scan(PotentialSpec((-1, 1), [0.5, -0.7999, 0.5])).minima
    assert mu == pytest.approx(0.20163, abs=1e-5) and 5e-9 < ratio < 1e-8
    assert embedded_eig_scan(GENERIC).minima == ()
    assert embedded_eig_scan(
        PotentialSpec((-2, 2), [0.453746, 0.738973, 0.70551, 0.502028, 0.598174])).minima == ()


def test_embedded_scan_grid_is_stones_resonance_grid():
    # the bulk is the theta grid on which Stone reads the phase of det M
    sys_ = decompose_potential(GENERIC)
    bulk = propagator._wave_scans(10.0, propagator._INNER_CUTOFF, propagator._EDGE_CUTOFF)[0]
    th, _ = propagator._resonance_phase(bulk[0][0], bulk[0][-1], sys_)
    mu = spectral._band_scan_grid()
    np.testing.assert_array_equal(mu[: th.size], 2.0 * np.sin(-th[::-1] / 2.0))
    assert np.all(np.diff(mu) > 0.0) and mu[-1] == 2.0 - 2.0**-52


# ---------------------------------------------------------------------------
# reflection-symmetric windows split by parity


@pytest.mark.parametrize(
    "V", [None, DELTA_HALF, PotentialSpec((-2, 2), [0.3, -0.15, 0.45, -0.15, 0.3])]
)
def test_parity_eigensystem_matches_full_eigh(V):
    # the parity blocks' eigenvalues against eigh of the whole window
    radius = 60
    want = np.linalg.eigh(build_hamiltonian(V, radius))[0]
    np.testing.assert_allclose(_window_eigenvalues(V, radius), want, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "V",
    [DELTA_HALF, PotentialSpec.delta(-3.0), PotentialSpec((-1, 1), [0.3, -0.2, 0.3]),
     None, PotentialSpec((-2, 2), [0.3, -0.15, 0.45, -0.15, 0.3])],
)
@pytest.mark.parametrize("radius", [None, 8, 128])
def test_symmetric_eigensystem_is_the_dense_assembly_to_the_bit(V, radius):
    # blocks built from the stencil against the folded window matrix; None
    # is the smallest radius the window splits at: two sites past the
    # support, one site for the free operator
    if radius is None:
        radius = 1 if V is None else V.support_radius + 2
    want = oracles.parity_eigenvalues(*oracles.parity_blocks(build_hamiltonian(V, radius)))
    assert _window_eigenvalues(V, radius).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "V,radius", [(GENERIC, 3), (GENERIC, 8), (MIXED, 128), (None, 0)]
)
def test_other_windows_are_diagonalised_whole(V, radius):
    want = np.linalg.eigvalsh(build_hamiltonian(V, radius))
    assert _window_eigenvalues(V, radius).tobytes() == want.tobytes()


def test_eigensystem_assembles_its_windows_in_build_hamiltonian(monkeypatch):
    # both routes build their matrices there, so timing it times assembly
    calls, build = [], spectral.build_hamiltonian

    def recording(V, radius, parity=None):
        calls.append((radius, parity))
        return build(V, radius, parity)

    monkeypatch.setattr(spectral, "build_hamiltonian", recording)
    discrete_eigs(DELTA_HALF, 6)
    discrete_eigs(GENERIC, 6)
    assert calls == [(6, 0), (6, 1), (6, None)]


def test_eigensystem_diagonalises_by_parity_only_when_symmetric(monkeypatch):
    # eigenvalues only: eigvalsh of each parity block, or of the whole window
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigenvectors were formed")

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    _window_eigenvalues(PotentialSpec((-1, 1), [0.35, -0.2, 0.35]), 20)
    assert shapes == [(21, 21), (20, 20)]
    shapes.clear()
    ev = _window_eigenvalues(PotentialSpec((-1, 1), [0.35, -0.2, 0.1]), 20)
    assert shapes == [(41, 41)]
    assert np.all(np.diff(ev) >= 0.0) and ev.shape == (41,)
