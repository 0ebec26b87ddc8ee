"""Difference operators, weighted norms and potentials on finite windows."""

import numpy as np
import pytest

from bilap import expansion
from bilap.lattice import (
    SPEED_BOUND,
    LatticeVector,
    PotentialSpec,
    _parity_blocks,
    build_hamiltonian,
    site_weights,
    weighted_operator_norm,
)

import oracles


def test_neg_laplacian_delta_stencil():
    out = oracles.neg_laplacian_matrix(2)[:, 2]
    np.testing.assert_allclose(out, [0, -1, 2, -1, 0], atol=0)


def test_bilaplacian_delta_stencil():
    out = build_hamiltonian(None, 3)[:, 3]
    np.testing.assert_allclose(out, [0, 1, -4, 6, -4, 1, 0], atol=0)


def test_hamiltonian_is_hermitian():
    rng = np.random.default_rng(7)
    V = PotentialSpec((-3, 3), rng.normal(size=7))
    h = build_hamiltonian(V, 16)
    assert np.max(np.abs(h - h.T)) == 0.0


def test_delta_potential_bound_state_counts():
    for c, expected_above in ((5.0, 1), (0.5, 1)):
        h = build_hamiltonian(PotentialSpec.delta(c), 128)
        ev = np.linalg.eigvalsh(h)
        assert np.sum(ev > 16.0 + 1e-6) == expected_above
        assert np.sum(ev < -1e-6) == 0


def test_stencil_matches_matrix_on_interior():
    N = 12
    # the bilaplacian is the square of the second difference away from the
    # window edge
    h = build_hamiltonian(None, N)
    lap = oracles.neg_laplacian_matrix(N)
    interior = slice(2, 2 * N - 1)  # |n| <= N - 2
    np.testing.assert_allclose((lap @ lap)[interior], h[interior], atol=0)


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


def test_sign_flip_conjugates_neg_laplacian():
    # J (-lap) J = 4 I - (-lap), exact for the dirichlet truncation
    N = 8
    side = 2 * N + 1
    A = oracles.neg_laplacian_matrix(N)
    J = np.diag([(-1.0) ** n for n in range(-N, N + 1)])
    np.testing.assert_allclose(J @ A @ J, 4.0 * np.eye(side) - A, atol=1e-12)


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
    # parity blocks exist only for a window equal to its reflection
    with pytest.raises(ValueError):
        build_hamiltonian(PotentialSpec((-1, 1), [0.3, -0.2, 0.1]), 8, parity=0)
    with pytest.raises(ValueError):
        build_hamiltonian(None, 0, parity=1)


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


def _record_svd_shapes(monkeypatch):
    shapes = []
    full_svd = np.linalg.svd

    def svd(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return full_svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return shapes


def test_symmetric_weighted_norm_never_decomposes_the_full_window(monkeypatch):
    # the remainder kernels of expansion-check: Toeplitz on [-64, 64]; the
    # weaker block's Frobenius norm is below the stronger block's norm, so
    # only the stronger block is decomposed
    sites = np.arange(-64, 65)
    row = np.random.default_rng(5).normal(size=129) * (1 + 0.5j)
    K = row[np.abs(sites[:, None] - sites[None, :])]
    shapes = _record_svd_shapes(monkeypatch)
    weighted_operator_norm(K, 5.0)
    assert len(shapes) == 1 and shapes[0] in [(64, 64), (65, 65)]


def test_symmetric_weighted_norm_decomposes_a_block_its_frobenius_norm_cannot_rule_out(
    monkeypatch,
):
    # at s = 0 the identity's blocks are identities of sides 17 and 16: each
    # has norm 1 and Frobenius norm about 4, so both are decomposed
    full = float(np.linalg.svd(np.eye(33), compute_uv=False)[0])
    shapes = _record_svd_shapes(monkeypatch)
    assert weighted_operator_norm(np.eye(33), 0.0) == pytest.approx(full, rel=1e-15)
    assert sorted(shapes) == [(16, 16), (17, 17)]


def test_default_remainder_norms_are_the_larger_block_norm(monkeypatch):
    # each of expansion-check's 140 default remainder matrices gets the same
    # float as decomposing both parity blocks
    matrices, norm = [], expansion.weighted_operator_norm

    def recorded(K, s):
        matrices.append((K, s))
        return norm(K, s)

    monkeypatch.setattr(expansion, "weighted_operator_norm", recorded)
    for threshold, orders, base in (("zero", (0, 1, 2), 4), ("sixteen", (0, 1), 2)):
        for n in orders:
            expansion.remainder_norms(threshold, n, n + base + 1.0)
    assert len(matrices) == 140
    for K, s in matrices:
        radius = K.shape[0] // 2
        blocks = _parity_blocks(K, site_weights(radius, -s)[radius:])
        want = max(np.linalg.svd(block, compute_uv=False)[0] for block in blocks)
        assert weighted_operator_norm(K, s) == want
