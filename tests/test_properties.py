"""Randomized structural invariants, kept fast and derandomized."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilap.lattice import (
    LatticeVector,
    PotentialSpec,
    apply_neg_laplacian,
    build_hamiltonian,
    fourier_symbol,
    sign_flip,
)
from bilap.propagator import PropagatorRequest, evolve_spectral, kernel_spectral
from bilap.resolvent import SpectralParam, free_biresolvent_boundary
from bilap.spectral import build_M, decompose_potential

COMMON = dict(max_examples=20, deadline=None, derandomize=True)

mu_values = st.floats(min_value=0.1, max_value=1.9)
separations = st.integers(min_value=0, max_value=8)


@settings(**COMMON)
@given(mu=mu_values, k=separations)
def test_boundary_kernel_solves_equation_everywhere(mu, k):
    p = SpectralParam(mu, "plus")
    window = [free_biresolvent_boundary(p, k + d, 0) for d in range(-2, 3)]
    sten = window[0] - 4 * window[1] + 6 * window[2] - 4 * window[3] + window[4]
    want = 1.0 if k == 0 else 0.0
    assert sten - mu**4 * window[2] == pytest.approx(want, abs=1e-10)


@settings(**COMMON)
@given(mu=mu_values, n=st.integers(-6, 6), m=st.integers(-6, 6))
def test_boundary_kernel_symmetries(mu, n, m):
    p = SpectralParam(mu, "plus")
    q = SpectralParam(mu, "minus")
    a = free_biresolvent_boundary(p, n, m)
    assert free_biresolvent_boundary(p, m, n) == pytest.approx(a, rel=1e-12)
    assert free_biresolvent_boundary(p, n + 3, m + 3) == pytest.approx(a, rel=1e-12)
    assert free_biresolvent_boundary(q, n, m) == pytest.approx(np.conj(a), rel=1e-12)


@settings(**COMMON)
@given(
    vals=st.lists(
        st.floats(min_value=-1.0, max_value=1.0).filter(lambda x: abs(x) > 0.05),
        min_size=1,
        max_size=5,
    ),
    mu=mu_values,
)
def test_sandwich_matrix_complex_symmetric(vals, mu):
    V = PotentialSpec((0, len(vals) - 1), vals)
    sys_ = decompose_potential(V)
    plus = build_M(SpectralParam(mu, "plus"), sys_)
    np.testing.assert_allclose(plus, plus.T, atol=1e-12)
    minus = build_M(SpectralParam(mu, "minus"), sys_)
    np.testing.assert_allclose(minus, np.conj(plus), atol=1e-12)


@settings(**COMMON)
@given(n_ring=st.integers(min_value=3, max_value=24))
def test_periodic_truncation_spectrum_is_symbol_samples(n_ring):
    ev = np.sort(np.linalg.eigvalsh(
        build_hamiltonian(None, n_ring, "periodic")
    ))
    L = 2 * n_ring + 1
    x = 2.0 * np.pi * np.arange(L) / L
    x = np.where(x > np.pi, x - 2.0 * np.pi, x)
    np.testing.assert_allclose(ev, np.sort(fourier_symbol(x)), atol=1e-10)


@settings(**COMMON)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    t=st.floats(min_value=-1.0, max_value=1.0),
)
def test_flow_is_unitary(seed, t):
    rng = np.random.default_rng(seed)
    psi = LatticeVector(12, rng.normal(size=25) + 1j * rng.normal(size=25))
    req = PropagatorRequest("schrodinger_h", None, t, 12 + 13, 12)
    out = evolve_spectral(req, psi)
    assert np.linalg.norm(out.values) == pytest.approx(
        np.linalg.norm(psi.values), rel=1e-10
    )


@settings(**COMMON)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_sign_flip_involution_and_conjugation(seed):
    rng = np.random.default_rng(seed)
    psi = LatticeVector(9, rng.normal(size=19))
    np.testing.assert_allclose(sign_flip(sign_flip(psi)).values, psi.values, atol=0)
    # J (-lap) J psi = (4 - (-lap)) psi on the dirichlet window
    lhs = sign_flip(apply_neg_laplacian(sign_flip(psi))).values
    rhs = 4.0 * psi.values - apply_neg_laplacian(psi).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@settings(**COMMON)
@given(t=st.floats(min_value=0.0, max_value=0.5), shift=st.integers(-2, 2))
def test_free_kernel_translation_invariance(t, shift):
    sl = kernel_spectral(PropagatorRequest("schrodinger_free_bilap", None, t, 32, 6))
    a = sl.entry(1 + shift, shift)
    b = sl.entry(1, 0)
    assert a == pytest.approx(b, abs=1e-9)
