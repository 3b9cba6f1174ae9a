"""Christoffel–Darboux kernel: direct sum, closed forms, and boundary identities.

K_n(z, ζ) = Σ_{j≤n} conj(φ_j(ζ)) φ_j(z) has two closed forms built from the
degree n+1 or degree n orthonormal pair (φ, φ*); on the diagonal boundary the
kernel collapses to a radial-derivative expression whose integral against dμ
recovers the kernel normalization Σ_j ‖φ_j‖² = n+1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import quadrature
from .errors import InvariantViolation
from .opuc import RecursionState, orthonormal, orthonormal_star
from .symbol import LaurentSymbol, eval_weight

#: below this |1 - conj(ζ)z| the closed forms lose too many digits; use the sum
SINGULAR_THRESHOLD = 1e-6

_polyval = np.polynomial.polynomial.polyval


def _phi(states: Sequence[RecursionState], j: int, z) -> np.ndarray:
    return _polyval(z, orthonormal(states[j]))


def _phi_star(states: Sequence[RecursionState], j: int, z) -> np.ndarray:
    return _polyval(z, orthonormal_star(states[j]))


def kernel_sum(states: Sequence[RecursionState], n: int, z, zeta) -> complex:
    """Definitional sum Σ_{j=0}^{n} conj(φ_j(ζ)) φ_j(z)."""
    if n < 0:
        raise ValueError(f"kernel degree must be nonnegative, got {n}")
    if len(states) <= n:
        raise ValueError(f"kernel at n={n} needs states up to degree {n}")
    total = 0.0 + 0.0j
    for j in range(n + 1):
        total += np.conj(_phi(states, j, zeta)) * _phi(states, j, z)
    return complex(total)


def kernel_cd(
    states: Sequence[RecursionState], n: int, z, zeta, variant: str = "next"
) -> complex:
    """Closed-form kernel away from the removable singularity at conj(ζ)z = 1.

    variant="next" uses the degree n+1 pair:
        [conj(φ*_{n+1}(ζ)) φ*_{n+1}(z) - conj(φ_{n+1}(ζ)) φ_{n+1}(z)] / (1 - ζ̄z)
    variant="current" uses the degree n pair:
        [conj(φ*_n(ζ)) φ*_n(z) - ζ̄z conj(φ_n(ζ)) φ_n(z)] / (1 - ζ̄z)
    """
    denom = 1.0 - np.conj(zeta) * z
    if abs(denom) <= SINGULAR_THRESHOLD:
        raise InvariantViolation(
            f"|1 - conj(zeta) z| = {abs(denom):.3g} too close to the removable "
            "singularity; evaluate kernel_sum there instead"
        )
    if variant == "next":
        if len(states) <= n + 1:
            raise ValueError(f"variant 'next' at n={n} needs the degree-{n + 1} state")
        numer = np.conj(_phi_star(states, n + 1, zeta)) * _phi_star(states, n + 1, z) - np.conj(
            _phi(states, n + 1, zeta)
        ) * _phi(states, n + 1, z)
    elif variant == "current":
        if len(states) <= n:
            raise ValueError(f"variant 'current' at n={n} needs the degree-{n} state")
        numer = np.conj(_phi_star(states, n, zeta)) * _phi_star(states, n, z) - np.conj(
            zeta
        ) * z * np.conj(_phi(states, n, zeta)) * _phi(states, n, z)
    else:
        raise ValueError(f"variant must be 'next' or 'current', got {variant!r}")
    return complex(numer / denom)


def _radial_derivative_sq(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """∂_r |p(re^{iθ})|² at r = 1, from the coefficients: 2 Re[conj(p) · e^{iθ} p']."""
    deriv = np.polynomial.polynomial.polyder(coeffs)
    return 2.0 * np.real(np.conj(_polyval(z, coeffs)) * z * _polyval(z, deriv))


def kernel_diag_boundary(states: Sequence[RecursionState], n: int, theta) -> np.ndarray | float:
    """K_n(e^{iθ}, e^{iθ}) via the boundary limit of the closed form.

    Equals -∂_r|φ*_{n+1}(re^{iθ})|²|_{r=1} + (n+1)|φ*_{n+1}(e^{iθ})|², with the
    radial derivative taken analytically at the coefficient level.
    """
    if len(states) <= n + 1:
        raise ValueError(f"diagonal boundary kernel at n={n} needs degree {n + 1}")
    star = orthonormal_star(states[n + 1])
    z = np.exp(1j * np.asarray(theta, dtype=float))
    values = -_radial_derivative_sq(star, z) + (n + 1) * np.abs(_polyval(z, star)) ** 2
    return float(values) if np.isscalar(theta) else values


def normalization_check(states: Sequence[RecursionState], s: LaurentSymbol, n: int) -> float:
    """Kernel normalization through the boundary identity; returns ≈ 1.

    Integrating the diagonal boundary form against dμ must reproduce
    Σ_{j≤n} ‖φ_j‖² = n+1 (the ∂_r term integrates to zero); the returned
    value is that quadrature divided by n+1.
    """

    def integrand(theta: np.ndarray) -> np.ndarray:
        return kernel_diag_boundary(states, n, theta) * eval_weight(s, theta)

    value, _ = quadrature.adaptive_circle_mean(integrand, start=512)
    return float(np.real(value)) / (n + 1)
