"""Difference operators, weighted norms and the sign flip on finite windows."""

import numpy as np
import pytest

from bilap.lattice import (
    SPEED_BOUND,
    LatticeVector,
    PotentialSpec,
    WeightedNormSpec,
    apply_bilaplacian,
    apply_neg_laplacian,
    build_hamiltonian,
    fourier_symbol,
    sign_flip,
    site_weights,
    weighted_norm,
    weighted_operator_norm,
)

import oracles


def test_neg_laplacian_delta_stencil():
    out = apply_neg_laplacian(LatticeVector.delta(2))
    np.testing.assert_allclose(out.values, [0, -1, 2, -1, 0], atol=0)


def test_bilaplacian_delta_stencil():
    out = apply_bilaplacian(LatticeVector.delta(3))
    np.testing.assert_allclose(out.values, [0, 1, -4, 6, -4, 1, 0], atol=0)


def test_constant_is_harmonic_periodic():
    ones = LatticeVector(5, np.ones(11))
    for op in (apply_neg_laplacian, apply_bilaplacian):
        out = op(ones, boundary_mode="periodic")
        np.testing.assert_allclose(out.values, 0.0, atol=1e-14)


def test_plane_wave_is_symbol_eigenvector():
    # the ring has odd length, so the wavenumber must be commensurate:
    # x0 = 2 pi k / L with L = 2N+1; k = round(L/4) lands close to pi/2
    N = 64
    L = 2 * N + 1
    x0 = 2.0 * np.pi * 32 / L
    psi = LatticeVector(N, np.exp(1j * x0 * np.arange(-N, N + 1)))
    lam1 = 2.0 - 2.0 * np.cos(x0)
    out1 = apply_neg_laplacian(psi, boundary_mode="periodic")
    np.testing.assert_allclose(out1.values, lam1 * psi.values, atol=1e-12)
    out2 = apply_bilaplacian(psi, boundary_mode="periodic")
    np.testing.assert_allclose(out2.values, lam1**2 * psi.values, atol=1e-12)


def test_hamiltonian_is_hermitian():
    rng = np.random.default_rng(7)
    V = PotentialSpec((-3, 3), rng.normal(size=7))
    h = build_hamiltonian(V, 16)
    assert np.max(np.abs(h - h.T)) == 0.0


def test_free_periodic_spectrum_is_the_band():
    h = build_hamiltonian(None, 64, boundary_mode="periodic")
    ev = np.linalg.eigvalsh(h)
    assert ev.min() >= -1e-10 and ev.max() <= 16.0 + 1e-10


def test_periodic_eigenvalues_match_symbol_exactly():
    # the periodic truncation is a circulant, so its spectrum is the symbol
    # sampled at the ring frequencies
    N = 20
    L = 2 * N + 1
    ev = np.sort(np.linalg.eigvalsh(build_hamiltonian(None, N, "periodic")))
    freqs = 2.0 * np.pi * np.arange(L) / L
    freqs = np.where(freqs > np.pi, freqs - 2.0 * np.pi, freqs)
    np.testing.assert_allclose(ev, np.sort(fourier_symbol(freqs)), atol=1e-10)


def test_delta_potential_bound_state_counts():
    for c, expected_above in ((5.0, 1), (0.5, 1)):
        h = build_hamiltonian(PotentialSpec.delta(c), 128)
        ev = np.linalg.eigvalsh(h)
        assert np.sum(ev > 16.0 + 1e-6) == expected_above
        assert np.sum(ev < -1e-6) == 0


def test_stencil_matches_matrix_on_interior():
    N = 12
    h = build_hamiltonian(None, N)
    interior = slice(2, 2 * N - 1)  # |n| <= N - 2
    for j in range(2 * N + 1):
        col = apply_bilaplacian(LatticeVector.delta(N, j - N)).values
        np.testing.assert_allclose(col[interior], h[interior, j], atol=0)


def test_weighted_norm_values():
    for s in (0.0, 1.0, 3.5):
        assert weighted_norm(LatticeVector.delta(4), WeightedNormSpec(s)) == 1.0
    got = weighted_norm(LatticeVector.delta(4, 1), WeightedNormSpec(1.0))
    assert got == pytest.approx(np.sqrt(2.0), rel=1e-15)
    ones = LatticeVector(2, np.ones(5))
    assert weighted_norm(ones, WeightedNormSpec(0.0)) == pytest.approx(np.sqrt(5.0))


def test_weighted_operator_norm_identity_and_rank_one():
    eye = np.eye(17)
    assert weighted_operator_norm(eye, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert weighted_operator_norm(eye, 1.0) == pytest.approx(1.0, rel=1e-12)
    K = np.zeros((17, 17))
    K[2 + 8, -1 + 8] = 3.0
    assert weighted_operator_norm(K, 1.0) == pytest.approx(
        3.0 / np.sqrt(10.0), rel=1e-12
    )


def test_weighted_operator_norm_s0_is_spectral_norm():
    rng = np.random.default_rng(3)
    K = rng.normal(size=(9, 9))
    assert weighted_operator_norm(K, 0.0) == pytest.approx(
        np.linalg.norm(K, 2), rel=1e-12
    )


def test_weighted_operator_norm_rejects_bad_shapes():
    with pytest.raises(ValueError):
        weighted_operator_norm(np.zeros((4, 5)), 1.0)
    with pytest.raises(ValueError):
        weighted_operator_norm(np.zeros((4, 4)), 1.0)  # even side, no center


def test_site_weights_center_and_symmetry():
    w = site_weights(3, 2.0)
    assert w[3] == 1.0
    np.testing.assert_allclose(w, w[::-1], atol=0)
    np.testing.assert_allclose(w, (1.0 + np.arange(-3, 4) ** 2) ** 1.0)


def test_sign_flip_is_involution_and_fixes_delta():
    rng = np.random.default_rng(11)
    psi = LatticeVector(6, rng.normal(size=13) + 1j * rng.normal(size=13))
    np.testing.assert_allclose(sign_flip(sign_flip(psi)).values, psi.values, atol=0)
    np.testing.assert_allclose(
        sign_flip(LatticeVector.delta(6)).values, LatticeVector.delta(6).values
    )


def test_sign_flip_conjugates_neg_laplacian():
    # J (-lap) J = 4 I - (-lap), exact for the dirichlet truncation
    N = 8
    side = 2 * N + 1
    A = np.column_stack(
        [apply_neg_laplacian(LatticeVector.delta(N, j - N)).values.real
         for j in range(side)]
    )
    J = np.diag([(-1.0) ** n for n in range(-N, N + 1)])
    np.testing.assert_allclose(J @ A @ J, 4.0 * np.eye(side) - A, atol=1e-12)


def test_fourier_symbol_values_and_domain():
    assert fourier_symbol(0.0) == 0.0
    assert fourier_symbol(np.pi) == pytest.approx(16.0, rel=1e-15)
    assert fourier_symbol(np.pi / 2) == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(ValueError):
        fourier_symbol(3.5)


def test_speed_bound_is_max_symbol_slope():
    x = np.linspace(-np.pi, np.pi, 200001)
    slope = np.abs(8.0 * (1.0 - np.cos(x)) * np.sin(x))
    assert SPEED_BOUND == pytest.approx(6.0 * np.sqrt(3.0), rel=1e-15)
    assert slope.max() == pytest.approx(SPEED_BOUND, rel=1e-9)


def test_lattice_vector_validation():
    with pytest.raises(ValueError):
        LatticeVector(0, np.zeros(1))
    with pytest.raises(ValueError):
        LatticeVector(2, np.zeros(4))
    with pytest.raises(ValueError):
        LatticeVector(1, np.array([0.0, np.inf, 0.0]))
    v = LatticeVector.delta(3, -2)
    assert v[-2] == 1.0 and v[0] == 0.0
    np.testing.assert_array_equal(v.sites, np.arange(-3, 4))


def test_potential_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec((2, 1), np.array([1.0]))
    with pytest.raises(ValueError):
        PotentialSpec((0, 1), np.array([1.0]))
    with pytest.raises(ValueError):
        PotentialSpec((0, 0), np.array([0.0]))
    with pytest.raises(ValueError):
        PotentialSpec((0, 0), np.array([np.nan]))
    V = PotentialSpec.delta(0.5, site=2)
    assert V.support_radius == 2
    with pytest.raises(ValueError):
        V.on_window(1)
    np.testing.assert_allclose(V.on_window(3), [0, 0, 0, 0, 0, 0.5, 0])


def test_build_hamiltonian_window_and_mode_checks():
    V = PotentialSpec((-3, 3), np.ones(7))
    with pytest.raises(ValueError):
        build_hamiltonian(V, 4)
    with pytest.raises(ValueError):
        build_hamiltonian(V, 16, boundary_mode="absorbing")


def test_dirichlet_matrix_matches_oracle_assembly():
    got = build_hamiltonian(PotentialSpec((-1, 1), [0.3, -0.2, 0.1]), 8)
    diag = np.zeros(17)
    diag[7:10] = [0.3, -0.2, 0.1]
    np.testing.assert_allclose(got, oracles.dense_hamiltonian(17, diag), atol=0)


def _reflection_symmetric(rng, radius):
    side = 2 * radius + 1
    a = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    return a + a[::-1, ::-1]


def _record_norm_shapes(monkeypatch):
    shapes = []
    full_norm = np.linalg.norm

    def norm(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return full_norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm)
    return shapes


def test_parity_split_norm_matches_full_svd(monkeypatch):
    rng = np.random.default_rng(11)
    for radius in (1, 2, 64):
        for s in (0.0, 1.5):
            d = site_weights(radius, -s)
            K = _reflection_symmetric(rng, radius)
            want = np.linalg.norm(d[:, None] * K * d[None, :], 2)
            assert weighted_operator_norm(K, s) == pytest.approx(want, rel=1e-13)
    # a non-symmetric input takes the full SVD
    shapes = _record_norm_shapes(monkeypatch)
    K = _reflection_symmetric(rng, 2)
    K[0, 1] += 1.0
    d = site_weights(2, -1.5)
    want = float(np.linalg.svd(d[:, None] * K * d[None, :], compute_uv=False)[0])
    assert weighted_operator_norm(K, 1.5) == pytest.approx(want, rel=1e-13)
    assert shapes == [(5, 5)]


def test_symmetric_weighted_norm_never_decomposes_the_full_window(monkeypatch):
    # the remainder kernels of expansion-check: Toeplitz on [-64, 64]
    sites = np.arange(-64, 65)
    row = np.random.default_rng(5).normal(size=129) * (1 + 0.5j)
    K = row[np.abs(sites[:, None] - sites[None, :])]
    shapes = _record_norm_shapes(monkeypatch)
    weighted_operator_norm(K, 5.0)
    assert sorted(shapes) == [(64, 64), (65, 65)]
