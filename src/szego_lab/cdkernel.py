"""Christoffel–Darboux kernel: direct sum, closed forms, and boundary identities.

K_n(z, ζ) = Σ_{j≤n} conj(φ_j(ζ)) φ_j(z) has two closed forms built from the
degree n+1 or degree n orthonormal pair (φ, φ*); on the diagonal boundary the
kernel collapses to a radial-derivative expression whose integral against dμ
recovers the kernel normalization Σ_j ‖φ_j‖² = n+1.  The checks that
``szego-lab cd-check`` prints live here with their bounds (:func:`identity_checks`);
``szego-lab verify`` never loads this module.
"""

from __future__ import annotations

import numpy as np

from . import quadrature
from .errors import InvariantViolation
from .opuc import Trajectory
from .symbol import LaurentSymbol, eval_weight
from .textio import fmt

#: below this |1 - conj(ζ)z| the closed forms lose too many digits; use the sum
SINGULAR_THRESHOLD = 1e-6

_polyval = np.polynomial.polynomial.polyval


def kernel_sum(traj: Trajectory, n: int, z, zeta) -> np.ndarray | complex:
    """Definitional sum Σ_{j=0}^{n} conj(φ_j(ζ)) φ_j(z), at broadcast scalar or array points."""
    if n < 0:
        raise ValueError(f"kernel degree must be nonnegative, got {n}")
    if len(traj) <= n:
        raise ValueError(f"kernel at n={n} needs states up to degree {n}")
    z, zeta = np.broadcast_arrays(z, zeta)
    rows = traj.phi[: n + 1, : n + 1].T
    a, b = (np.vander(p.ravel(), n + 1, increasing=True) @ rows for p in (zeta, z))
    # real and imaginary parts apart, so that swapping z and ζ conjugates exactly
    re = np.sum(a.real * b.real + a.imag * b.imag, axis=1)
    im = np.sum(a.real * b.imag - a.imag * b.real, axis=1)
    return (re + 1j * im).reshape(z.shape)[()]


def kernel_cd(traj: Trajectory, n: int, z, zeta, variant: str = "next") -> np.ndarray | complex:
    """Closed-form kernel away from the removable singularity at conj(ζ)z = 1.

    variant="next" uses the degree n+1 pair:
        [conj(φ*_{n+1}(ζ)) φ*_{n+1}(z) - conj(φ_{n+1}(ζ)) φ_{n+1}(z)] / (1 - ζ̄z)
    variant="current" uses the degree n pair:
        [conj(φ*_n(ζ)) φ*_n(z) - ζ̄z conj(φ_n(ζ)) φ_n(z)] / (1 - ζ̄z)
    """
    q = np.conj(zeta) * z
    denom = 1.0 - q
    if np.any(np.abs(denom) <= SINGULAR_THRESHOLD):
        raise InvariantViolation(
            f"|1 - conj(zeta) z| = {np.min(np.abs(denom)):.3g} too close to the removable "
            "singularity; evaluate kernel_sum there instead"
        )
    if variant not in ("next", "current"):
        raise ValueError(f"variant must be 'next' or 'current', got {variant!r}")
    d, factor = (n + 1, 1.0) if variant == "next" else (n, q)
    if len(traj) <= d:
        raise ValueError(f"variant {variant!r} at n={n} needs the degree-{d} state")
    phi, star = traj.phi[d, : d + 1], traj.phi_star[d, : d + 1]
    numer = np.conj(_polyval(zeta, star)) * _polyval(z, star)
    return (numer - factor * np.conj(_polyval(zeta, phi)) * _polyval(z, phi)) / denom


def _radial_derivative_sq(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """∂_r |p(re^{iθ})|² at r = 1, from the coefficients: 2 Re[conj(p) · e^{iθ} p']."""
    deriv = np.polynomial.polynomial.polyder(coeffs)
    return 2.0 * np.real(np.conj(_polyval(z, coeffs)) * z * _polyval(z, deriv))


def kernel_diag_boundary(traj: Trajectory, n: int, theta) -> np.ndarray | float:
    """K_n(e^{iθ}, e^{iθ}) via the boundary limit of the closed form.

    Equals -∂_r|φ*_{n+1}(re^{iθ})|²|_{r=1} + (n+1)|φ*_{n+1}(e^{iθ})|², with the
    radial derivative taken analytically at the coefficient level.
    """
    if len(traj) <= n + 1:
        raise ValueError(f"diagonal boundary kernel at n={n} needs degree {n + 1}")
    star = traj.phi_star[n + 1, : n + 2]
    z = quadrature.circle_points(theta)
    values = -_radial_derivative_sq(star, z) + (n + 1) * np.abs(_polyval(z, star)) ** 2
    return float(values) if np.isscalar(theta) else values


def normalization_check(traj: Trajectory, s: LaurentSymbol, n: int) -> float:
    """Kernel normalization through the boundary identity; returns ≈ 1.

    Integrating the diagonal boundary form against dμ must reproduce
    Σ_{j≤n} ‖φ_j‖² = n+1 (the ∂_r term integrates to zero); the returned
    value is that quadrature divided by n+1.
    """

    def integrand(theta: np.ndarray) -> np.ndarray:
        return kernel_diag_boundary(traj, n, theta) * eval_weight(s, theta)

    value, _ = quadrature.adaptive_circle_mean(integrand, start=512)
    return float(np.real(value)) / (n + 1)


def identity_checks(
    traj: Trajectory, s: LaurentSymbol, n: int, seed: int
) -> tuple[str, list[tuple[str, bool, str]]]:
    """cd-check's (empty body, checks) at degree n, from a trajectory to degree n+1:
    both closed forms against the sum at seeded pairs inside the disk, the boundary
    diagonal against the sum on the circle, and the kernel normalization."""
    draws = np.random.default_rng(seed).uniform(size=(100, 4))  # for |z|, |ζ|, arg z, arg ζ
    z, zeta = (0.95 * np.sqrt(draws[:, :2]) * quadrature.circle_points(2 * np.pi * draws[:, 2:])).T
    reference = kernel_sum(traj, n, z, zeta)
    closed = np.array([kernel_cd(traj, n, z, zeta, v) for v in ("next", "current")])
    worst_closed = float(np.max(np.abs(closed - reference) / np.maximum(1.0, np.abs(reference))))
    theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    diag = kernel_diag_boundary(traj, n, theta)
    on_circle = quadrature.circle_points(theta)
    direct = np.real(kernel_sum(traj, n, on_circle, on_circle))
    worst_diag = float(np.max(np.abs(diag - direct) / np.maximum(1.0, np.abs(direct))))
    ratio = normalization_check(traj, s, n)
    return "", [
        ("closed-forms", worst_closed <= 1e-11, f"worst deviation {fmt(worst_closed)}"),
        ("diagonal-boundary", worst_diag <= 1e-10, f"worst deviation {fmt(worst_diag)}"),
        ("normalization", abs(ratio - 1.0) <= 1e-9, f"ratio {fmt(ratio)}"),
    ]
