"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the code paths they check: Bessel-type
moments come from the defining power series, orthogonal polynomials from
dense Gram–Schmidt on the explicit moment matrix, and integrals from brute
Riemann sums.
"""

import math

import numpy as np
import pytest

from szego_lab import MomentSequence, make_symbol
from szego_lab.verify import ROUTE_AGREEMENT_FLOOR, bs_log_weight, default_suite


def bessel_i(n: int, x: float = 1.0) -> float:
    """Modified Bessel I_n(x) = Σ_m (x/2)^{n+2m} / (m! (n+m)!), summed to convergence.

    These are the moments of the weight e^{x cos θ}.
    """
    term = (x / 2.0) ** n / math.factorial(n)
    total = 0.0
    m = 0
    while True:
        total += term
        m += 1
        term *= (x / 2.0) ** 2 / (m * (n + m))
        if term < 1e-20 * total:
            return total


def geometric_moments(a: float, n_max: int) -> MomentSequence:
    """Exact moments c_n = a^{|n|} of w = (1-a²)/|1-a e^{iθ}|²."""
    return MomentSequence(tuple(a**k for k in range(n_max + 1)))


def gram_schmidt_monic(gram: np.ndarray, degree: int):
    """Monic orthogonal polynomials by dense Gram–Schmidt on the monomials.

    ``gram[a, b] = ⟨z^a, z^b⟩``.  Returns (coefficient arrays, squared norms),
    fully independent of the recursion being tested.
    """
    size = degree + 1
    assert gram.shape[0] >= size

    def ip(p, q):
        return np.conj(p) @ gram[: len(p), : len(q)] @ q

    polys = []
    norms = []
    for d in range(size):
        coeffs = np.zeros(d + 1, dtype=complex)
        coeffs[d] = 1.0
        for p, nsq in zip(polys, norms):
            proj = ip(p, coeffs) / nsq
            coeffs[: len(p)] -= proj * p
        polys.append(coeffs)
        norms.append(float(np.real(ip(coeffs, coeffs))))
    return polys, norms


def convolve_series(a: np.ndarray, b: np.ndarray, length: int) -> np.ndarray:
    """Truncated Cauchy product of two power series."""
    out = np.zeros(length, dtype=complex)
    for i, ai in enumerate(a[:length]):
        top = min(length - i, len(b))
        out[i : i + top] += ai * np.asarray(b[:top])
    return out


def polyval_log_weight_z(s, z):
    """Reference L = l_0 + 2 Re p, with p = Σ_{k≥1} l_k z^k from numpy's ``polyval``.

    The reference for the bits of ``symbol.eval_log_weight_z``, whose in-place
    Horner loop does the same IEEE operations.
    """
    positive = np.zeros(1, dtype=complex) if s.bandwidth == 0 else np.asarray(
        [0.0] + [s.coeffs[k] for k in range(1, s.bandwidth + 1)], dtype=complex
    )
    partial = np.polynomial.polynomial.polyval(z, positive)
    return s.mean + partial.real + partial.real


def relative_gap_reference(a: float, b: float) -> float:
    """The scalar route-agreement gap that ``verify.route_gaps`` vectorizes:
    |a - b| / max(|a|, |b|), 0 within the floor, nan unless both are finite."""
    gap = abs(a - b)
    if gap <= ROUTE_AGREEMENT_FLOOR:
        return 0.0
    scale = max(abs(a), abs(b))
    return gap / scale if scale > 0.0 else math.nan


def same_gaps(a, b) -> bool:
    """Equal bits, with any nan equal to any nan: the sign of a nan gap is not a result."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and same_bits(a[~nan], b[~nan])


def same_bits(a, b) -> bool:
    """Equal float64 arrays or scalars, down to the sign of zero."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture(scope="session")
def suite():
    """The five standing weights: name -> symbol."""
    return dict(default_suite())


@pytest.fixture(scope="session")
def cos_symbol():
    return make_symbol({1: 0.5, -1: 0.5})


@pytest.fixture(scope="session")
def two_band_symbol():
    return make_symbol({1: 0.2, -1: 0.2, 2: 0.1, -2: 0.1})


@pytest.fixture(scope="session")
def bs_symbol():
    return bs_log_weight()
