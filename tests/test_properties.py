"""Randomized structural invariants, kept fast and derandomized."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilap.lattice import PotentialSpec
from bilap.propagator import PropagatorRequest, auto_window_radius, kernel_spectral
from bilap.resolvent import boundary_kernel_plus
from bilap.spectral import (
    decompose_potential,
    m_matrix_grid,
    perturbed_resolvent_boundary,
)

COMMON = dict(max_examples=20, deadline=None, derandomize=True)

mu_values = st.floats(min_value=0.1, max_value=1.9)
separations = st.integers(min_value=0, max_value=8)


@settings(**COMMON)
@given(mu=mu_values, k=separations)
def test_boundary_kernel_solves_equation_everywhere(mu, k):
    window = boundary_kernel_plus(np.array([mu]), np.abs(k + np.arange(-2, 3)))[0]
    sten = window[0] - 4 * window[1] + 6 * window[2] - 4 * window[3] + window[4]
    want = 1.0 if k == 0 else 0.0
    assert sten - mu**4 * window[2] == pytest.approx(want, abs=1e-10)


@settings(**COMMON)
@given(mu=mu_values, n=st.integers(-6, 6), m=st.integers(-6, 6))
def test_boundary_kernel_symmetries(mu, n, m):
    a = perturbed_resolvent_boundary(mu, None, n, m)
    assert perturbed_resolvent_boundary(mu, None, m, n) == pytest.approx(a, rel=1e-12)
    assert perturbed_resolvent_boundary(mu, None, n + 3, m + 3) == pytest.approx(
        a, rel=1e-12
    )


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
    plus = m_matrix_grid(np.array([mu]), sys_)[0]
    np.testing.assert_allclose(plus, plus.T, atol=1e-12)


@settings(**COMMON)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    t=st.floats(min_value=-1.0, max_value=1.0),
)
def test_flow_is_unitary(seed, t):
    # observed at twice the causal window, the kernel keeps all of the norm
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=25) + 1j * rng.normal(size=25)
    r = 2 * auto_window_radius(t, 12)
    req = PropagatorRequest("schrodinger_h", None, t, auto_window_radius(t, r), r)
    vec = np.zeros(2 * r + 1, dtype=complex)
    vec[r - 12 : r + 13] = psi
    out = kernel_spectral(req).entries @ vec
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(psi), rel=1e-10)


@settings(**COMMON)
@given(t=st.floats(min_value=0.0, max_value=0.5), shift=st.integers(-2, 2))
def test_free_kernel_translation_invariance(t, shift):
    sl = kernel_spectral(PropagatorRequest("schrodinger_free_bilap", None, t, 32, 6))
    a = sl.entry(1 + shift, shift)
    b = sl.entry(1, 0)
    assert a == pytest.approx(b, abs=1e-9)
