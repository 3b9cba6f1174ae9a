"""The Szegő function D(z) and the diagnostics built on it.

For an analytic log-weight L with coefficients l_k, the outer function
D(z) = exp(l_0/2) · exp(Σ_{k≥1} l_k z^k) satisfies |D(e^{iθ})|² = w(θ) and
D(0) = κ_∞^{-1}.  The symbol alone fixes D, so every function here takes the
:class:`LaurentSymbol` itself.  This module holds the series, its reciprocal,
the D-function route to the Verblunsky coefficients, the exponential-decay
fit, and the disk-integral form of Σ k|l_k|².
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import quadrature
from .errors import InsufficientDataError
from .opuc import Trajectory
from .symbol import LaurentSymbol

#: |α_n| below this is double-precision noise, unusable for fits
DECAY_FLOOR = 1e-13


def _d0(s: LaurentSymbol) -> float:
    """D(0) = exp(l_0/2) = κ_∞^{-1}."""
    return float(np.exp(0.5 * s.mean))


def _log_series(s: LaurentSymbol) -> np.ndarray:
    """l_1..l_K, the Taylor coefficients of log D from z^1 on."""
    return np.asarray(s.coeffs[1:], dtype=complex)


def eval_D(s: LaurentSymbol, z) -> np.ndarray | complex:
    """D(z); exact up to rounding for finite bandwidth, since D is then entire."""
    z_arr = np.asarray(z, dtype=complex)
    series = np.concatenate([np.zeros(1, dtype=complex), _log_series(s)])
    values = _d0(s) * np.exp(np.polynomial.polynomial.polyval(z_arr, series))
    return complex(values) if np.isscalar(z) or z_arr.ndim == 0 else values


def _series_exp(g: np.ndarray, j_max: int) -> np.ndarray:
    """Taylor coefficients of exp(Σ g_k z^k), g indexed from k=1.

    The first-derivative recurrence m e_m = Σ_{k=1}^{m} k g_k e_{m-k} is
    numerically stable for the coefficient sizes in scope.
    """
    out = np.zeros(j_max + 1, dtype=complex)
    out[0] = 1.0
    for m in range(1, j_max + 1):
        acc = 0.0 + 0.0j
        for k in range(1, min(m, len(g)) + 1):
            acc += k * g[k - 1] * out[m - k]
        out[m] = acc / m
    return out


def series_coeffs(s: LaurentSymbol, j_max: int) -> np.ndarray:
    """Taylor coefficients of D itself."""
    return _d0(s) * _series_exp(_log_series(s), j_max)


def inverse_coeffs(s: LaurentSymbol, j_max: int) -> np.ndarray:
    """Taylor coefficients of 1/D(z), via exp of the negated log-series."""
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    return _series_exp(-_log_series(s), j_max) / _d0(s)


def alpha_from_D(traj: Trajectory, s: LaurentSymbol, n: int) -> complex:
    """α_n from the D-function integral, independent of the recursion route.

    α_n = -κ_∞ ∫ conj(Φ_{n+1}(e^{iθ})) D(e^{iθ})^{-1} dμ(θ) with
    κ_∞ = D(0)^{-1}; the boundary measure dμ = |D|² dθ/2π requires no
    separate weight evaluation.
    """
    if len(traj) <= n + 1:
        raise ValueError(f"alpha_{n} needs the degree-{n + 1} state")
    phi_next = traj.coeffs[n + 1, : n + 2]

    def integrand(theta: np.ndarray) -> np.ndarray:
        z = quadrature.circle_points(theta)
        # D^{-1} dμ = (|D|²/D) dθ/2π = conj(D) dθ/2π on the boundary
        return np.conj(np.polynomial.polynomial.polyval(z, phi_next)) * np.conj(eval_D(s, z))

    kappa_inf = 1.0 / _d0(s)
    value, _ = quadrature.adaptive_circle_mean(integrand, start=512)
    return complex(-kappa_inf * value)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line through (n, log|α_n|) over the usable window."""

    a_half: float  # magnitude of the slope: |α_n| ≈ C e^{-a_half · n}
    c: float       # exp(intercept)
    r2: float
    window: tuple[int, ...]


def decay_fit(alphas: Sequence[complex]) -> DecayFit:
    """Fit the exponential decay rate of the Verblunsky coefficients.

    Requires at least 8 points above the double-precision floor.
    """
    mags = np.abs(np.asarray(alphas, dtype=complex))
    usable = np.flatnonzero(mags > DECAY_FLOOR)
    if len(usable) < 8:
        raise InsufficientDataError(
            f"decay fit needs >= 8 usable points, found {len(usable)}"
        )
    x = usable.astype(float)
    y = np.log(mags[usable])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        a_half=float(-slope),
        c=float(np.exp(intercept)),
        r2=float(r2),
        window=tuple(int(i) for i in usable),
    )


def disk_integral_check(s: LaurentSymbol, r: float) -> float:
    """(1/π) ∫_{|z|≤r} |∂_z log D|² d²z by a 64-radius Gauss–Legendre × 256-angle
    uniform tensor rule.

    For an analytic symbol this equals Σ_{k≥1} k |l_k|² r^{2k}; the integrand
    |Σ k l_k z^{k-1}|² is a polynomial in z and z̄ of modest degree, so the
    fixed rule is effectively exact.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    if s.bandwidth == 0:
        return 0.0
    deriv = np.arange(1, s.bandwidth + 1) * _log_series(s)  # ∂_z log D coefficients
    radii, weights = quadrature.gauss_legendre(64, 0.0, r)
    theta = quadrature.angles(256)
    z = radii[:, None] * quadrature.circle_points(theta)[None, :]
    values = np.abs(np.polynomial.polynomial.polyval(z, deriv)) ** 2
    angular_mean = values.mean(axis=1)  # (1/2π) ∫ dθ
    return float(2.0 * np.sum(weights * radii * angular_mean))


def phi_star_convergence(traj: Trajectory, s: LaurentSymbol) -> np.ndarray:
    """max_z |φ_n*(z) - D(z)^{-1}| per degree n, on a grid reaching past the circle.

    The grid is 16 radii × 64 angles inside |z| ≤ 1.05, probing the
    analytic continuation of the convergence beyond the boundary.
    """
    radii = 1.05 * (np.arange(1, 17) / 16.0)
    angles = quadrature.angles(64)
    grid = (radii[:, None] * quadrature.circle_points(angles)[None, :]).ravel()
    values = np.polynomial.polynomial.polyval(grid, traj.phi_star.T)
    return np.max(np.abs(values - 1.0 / eval_D(s, grid)), axis=1)


def boundary_l2_error(traj: Trajectory, s: LaurentSymbol) -> np.ndarray:
    """∫ |D φ_n* - 1|² dθ/2π per degree n, on a fixed 512-point uniform boundary grid."""
    z = quadrature.circle_points(quadrature.angles(512))
    values = np.polynomial.polynomial.polyval(z, traj.phi_star.T)
    return np.mean(np.abs(eval_D(s, z) * values - 1.0) ** 2, axis=1)
