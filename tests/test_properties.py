"""Property tests over random small symbols: the O(n) determinant sums and the recursion."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from szego_lab import log_dn_and_g, make_symbol, moments, run_to, trajectory

PROPERTY_SETTINGS = settings(
    max_examples=25, deadline=None, derandomize=True, database=None
)

coefficient = st.builds(
    complex,
    st.floats(-0.4, 0.4, allow_nan=False),
    st.floats(-0.4, 0.4, allow_nan=False),
)


@st.composite
def symbols(draw):
    """A log-weight with l_0 in [-1, 1] and one to three small coefficients."""
    tail = draw(st.lists(coefficient, min_size=1, max_size=3))
    coeffs = {0: draw(st.floats(-1.0, 1.0, allow_nan=False))}
    for k, value in enumerate(tail, start=1):
        coeffs[k] = value
        coeffs[-k] = value.conjugate()
    return make_symbol(coeffs)


def per_degree_log_dn(alphas, n: int, log_c0: float) -> float:
    """(n+1) log c_0 + Σ_{j<n} (n-j) log(1-|α_j|²), one degree at a time."""
    total = (n + 1) * log_c0
    for j, alpha in enumerate(alphas[:n]):
        total += (n - j) * math.log1p(-abs(alpha) ** 2)
    return total


def per_degree_log_g(alphas, n: int) -> float:
    """-Σ_j (min(n, j)+1) log(1-|α_j|²), one degree at a time."""
    return -sum(
        (min(n, j) + 1) * math.log1p(-abs(alpha) ** 2) for j, alpha in enumerate(alphas)
    )


def close(a: float, b: float) -> bool:
    return abs(a - b) <= max(1e-12 * max(abs(a), abs(b)), 1e-13)


@PROPERTY_SETTINGS
@given(s=symbols(), n_max=st.integers(0, 30), level=st.integers(0, 40))
def test_prefix_sums_match_the_per_degree_formulas(s, n_max, level):
    m = moments(s, n_max + 1)
    alphas = run_to(m, n_max + 1).alphas
    log_c0 = math.log(m.c0)
    log_dn, log_g = log_dn_and_g(alphas, n_max, log_c0)
    # a cut list of α's is the Bernstein–Szegő measure: the rest are zero
    _, log_g_cut = log_dn_and_g(alphas[:level], n_max)
    for n in range(n_max + 1):
        assert close(log_dn[n], per_degree_log_dn(alphas, n, log_c0)), n
        assert close(log_g[n], per_degree_log_g(alphas, n)), n
        assert close(log_g_cut[n], per_degree_log_g(alphas[:level], n)), n


@PROPERTY_SETTINGS
@given(s=symbols(), n=st.integers(0, 30))
def test_run_to_is_the_last_state_of_the_trajectory(s, n):
    m = moments(s, n)
    last = trajectory(m, n)[-1]
    state = run_to(m, n)
    assert state.n == last.n == n
    assert state.alphas == last.alphas
    assert state.norm_sq == last.norm_sq
    assert np.array_equal(state.phi.coeffs, last.phi.coeffs)
    assert np.array_equal(state.phi_star, last.phi_star)
