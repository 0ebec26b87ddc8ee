"""Potential factorisation, sandwich matrices, edge bases, eigenvalues."""

import numpy as np
import pytest

from bilap import propagator, spectral
from bilap.expansion import geometric_grid
from bilap.lattice import PotentialSpec, _neg_laplacian_matrix, build_hamiltonian
from bilap.resolvent import (
    boundary_kernel_plus,
    windowed_boundary_resolvent,
)
from bilap.spectral import (
    BAND_MARGIN,
    BirmanSchwingerSystem,
    LocalizationError,
    SingularSandwichError,
    bound_states,
    decompose_potential,
    discrete_eigs,
    eigensystem,
    embedded_eig_scan,
    m_matrix_grid,
    minv_expansion_probe,
    perturbed_resolvent_boundary,
    regular_point_check,
)
from bilap.spectral import _edge_data, _localization_ratios

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


def test_probe_skips_at_non_regular_edge():
    probe = minv_expansion_probe(
        decompose_potential(NONREGULAR), "zero", np.geomspace(1e-3, 1e-2, 5)
    )
    assert probe.skipped
    assert "not regular" in probe.diagnostic
    assert probe.leakage_slope is None


def test_probe_slopes_at_regular_edges():
    sys_ = decompose_potential(PotentialSpec((-1, 2), [0.8, -0.5, 0.0, 0.3]))
    pz = minv_expansion_probe(sys_, "zero", geometric_grid(1e-3, 1e-1))
    assert not pz.skipped
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
    above = discrete_eigs(PotentialSpec.delta(5.0), 32)
    assert len(above) == 1 and above[0][0] > 16.0
    below = discrete_eigs(PotentialSpec.delta(-5.0), 32)
    assert len(below) == 1 and below[0][0] < 0.0


def test_discrete_eigs_shallow_state_value():
    out = discrete_eigs(DELTA_HALF, 256)
    assert len(out) == 1
    lam, vec = out[0]
    assert lam == pytest.approx(16.00798298037027, abs=1e-8)
    assert vec.values[256] != 0.0  # peaked at the origin


def test_discrete_eigs_validation_and_empty():
    assert discrete_eigs(None, 64) == []
    with pytest.raises(ValueError, match="window_radius must be >= 4"):
        discrete_eigs(DELTA_HALF, 3)
    # a state this shallow spreads over hundreds of sites
    with pytest.raises(LocalizationError, match="localization ratio"):
        discrete_eigs(GENERIC, 128)


def test_bound_states_match_window_eigenvalues():
    # the state falls by e^-0.032 per site: window 256 still moves its
    # eigenvalue by 2.8e-9, eig-scan's window 512 by 4e-15
    got = [E for E, _ in bound_states(DELTA_HALF)]
    want = [lam for lam, _ in discrete_eigs(DELTA_HALF, 512)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    # window 268 localises the two states below the band but not the third,
    # 3e-6 above it, which no window of that size holds
    got = [E for E, _ in bound_states(MIXED)]
    assert len(got) == 3 and 16.0 < got[2] < 16.0 + 1e-5
    want = [lam for lam, _ in discrete_eigs(MIXED, 268)]
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


@pytest.mark.parametrize("values", [[1.7e308], [-1.7e308], [1.7e308, 1.7e308]])
def test_bound_states_refuse_coupling_past_float_range(values):
    # the kernel's amplitude 1 / (2 |E|) at the outer bracket end is no
    # longer a normal float there; before, -1.7e308 gave a state at -8.5e307
    with pytest.raises(SingularSandwichError, match="past the float range"):
        bound_states(PotentialSpec((0, len(values) - 1), values))

def test_embedded_scan_clean_for_delta():
    rep = embedded_eig_scan(PotentialSpec.delta(1.0), (128, 256))
    assert rep.verdict == "no embedded eigenvalues detected"
    assert rep.stable_candidates == ()
    rep = embedded_eig_scan(None, (64, 128))
    assert rep.stable_candidates == ()
    with pytest.raises(ValueError, match="at least two window radii"):
        embedded_eig_scan(DELTA_HALF, (128,))


def _per_vector_ratio(vec, window_radius):
    sites = np.arange(-window_radius, window_radius + 1)
    inner = np.abs(sites) <= window_radius // 2
    return float(np.sum(np.abs(vec[inner]) ** 2)) / float(np.sum(np.abs(vec) ** 2))


def test_vectorised_ratios_match_per_vector_ratio():
    # the default eig-scan windows: discrete 512, scan 128, 256, 384
    found = {}
    for radius in (512, 128, 256, 384):
        ev, vecs = eigensystem(DELTA_HALF, radius)
        want = np.array([_per_vector_ratio(v, radius) for v in vecs.T])
        got = _localization_ratios(vecs, radius)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        found[radius] = [
            float(lam)
            for lam, ratio in zip(ev, want)
            if BAND_MARGIN < lam < 16.0 - BAND_MARGIN and ratio >= 0.999
        ]
    scan = embedded_eig_scan(DELTA_HALF, (128, 256, 384))
    assert scan.candidates == {r: found[r] for r in (128, 256, 384)}
    ev, vecs = eigensystem(DELTA_HALF, 512)
    outside = (ev < -BAND_MARGIN) | (ev > 16.0 + BAND_MARGIN)
    assert [lam for lam, _ in discrete_eigs(DELTA_HALF, 512)] == list(ev[outside])


# ---------------------------------------------------------------------------
# reflection-symmetric windows split by parity


@pytest.mark.parametrize(
    "V,operator",
    [
        (None, "bilap"),
        (DELTA_HALF, "bilap"),
        (PotentialSpec((-2, 2), [0.3, -0.15, 0.45, -0.15, 0.3]), "bilap"),
        (None, "lap"),
    ],
)
def test_parity_eigensystem_matches_full_eigh(V, operator):
    radius, observe, t = 60, 6, 1.7
    if operator == "lap":
        h = _neg_laplacian_matrix(radius)
    else:
        h = build_hamiltonian(V, radius)
    want_ev, want_vecs = np.linalg.eigh(h)
    ev, vecs = eigensystem(V, radius, operator)
    assert not ev.flags.writeable and not vecs.flags.writeable
    np.testing.assert_allclose(ev, want_ev, rtol=0, atol=1e-13)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(2 * radius + 1), rtol=0, atol=1e-13)

    def window_kernel(lam, u):
        rows = u[radius - observe : radius + observe + 1]
        return (rows * np.exp(-1j * t * lam)[None, :]) @ rows.T

    np.testing.assert_allclose(
        window_kernel(ev, vecs), window_kernel(want_ev, want_vecs), rtol=0, atol=1e-13
    )


def test_eigensystem_diagonalises_by_parity_only_when_symmetric(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    # values no other test uses, so nothing is cached yet
    eigensystem(PotentialSpec((-1, 1), [0.35, -0.2, 0.35]), 20)
    assert shapes == [(21, 21), (20, 20)]
    shapes.clear()
    ev, vecs = eigensystem(PotentialSpec((-1, 1), [0.35, -0.2, 0.1]), 20)
    assert shapes == [(41, 41)]
    assert np.all(np.diff(ev) >= 0.0) and vecs.shape == (41, 41)
