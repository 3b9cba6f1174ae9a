"""Spectral quadrature on the torus.

Periodic analytic integrands are integrated with the uniform-grid rule
(trapezoid = rectangle on the torus), which converges geometrically in the
number of nodes.  Every adaptive routine, here and in :mod:`symbol`, doubles
the grid by the one stop rule of :func:`_double_until_stagnant`.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from .errors import QuadratureError

GRID_CAP_ENV = "SZEGO_LAB_GRID_MAX"
DEFAULT_GRID_CAP = 2**20

#: stagnation threshold for grid doubling
STAGNATION_TOL = 1e-14
#: largest acceptable change when the doubling cap is hit
FAILURE_TOL = 1e-10


def grid_cap() -> int:
    """Upper bound on quadrature grid sizes, overridable via the environment."""
    raw = os.environ.get(GRID_CAP_ENV)
    if raw is None:
        return DEFAULT_GRID_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise QuadratureError(f"{GRID_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise QuadratureError(f"{GRID_CAP_ENV} must be positive, got {cap}")
    return cap


def angles(m: int) -> np.ndarray:
    """Uniform grid θ_j = 2πj/m, j = 0..m-1."""
    return 2.0 * np.pi * np.arange(m) / m


def _double_until_stagnant(evaluate, start: int, what: str):
    """``evaluate(m)`` for m = max(start, 64), then doubling up to
    ``SZEGO_LAB_GRID_MAX``, until two successive values differ by less than
    ``STAGNATION_TOL`` of the largest entry, or of 1 if that is larger.

    The change is max|new - value| / max(1, max|new|): values of size at most 1
    stop on the absolute change, larger ones on the change relative to their
    largest entry, so the rule never asks for accuracy below rounding.  For
    moments the largest entry is c_0, since |c_n| <= c_0.

    Returns the last value and its m.  Raises :class:`QuadratureError` naming
    ``what`` if a value is not finite, or if the cap is reached with the last
    scaled change above ``FAILURE_TOL``.
    """
    cap = grid_cap()

    def finite(m: int):
        value = evaluate(m)
        if not np.all(np.isfinite(value)):
            raise QuadratureError(f"{what} quadrature gave a non-finite value on the grid m={m}")
        return value

    m = min(max(start, 64), cap)
    value = finite(m)
    change = np.inf
    while 2 * m <= cap:
        m *= 2
        new = finite(m)
        change = float(np.max(np.abs(new - value)) / max(1.0, np.max(np.abs(new))))
        value = new
        if change < STAGNATION_TOL:
            return value, m
    if change > FAILURE_TOL:
        raise QuadratureError(
            f"{what} quadrature did not stagnate below {FAILURE_TOL:g} "
            f"within the grid cap {cap} (last change {change:g})"
        )
    return value, m


def adaptive_circle_mean(
    f: Callable[[np.ndarray], np.ndarray], start: int = 64
) -> tuple[complex, int]:
    """Doubling uniform-grid quadrature of ∫ f(θ) dθ/2π.

    Returns the stagnated value and the grid size that produced it.  Raises
    :class:`QuadratureError` if the cap is reached while successive values
    still differ by more than ``FAILURE_TOL`` times max(1, |value|), or if a
    value is not finite.
    """
    return _double_until_stagnant(lambda m: np.mean(f(angles(m))), start, "circle")


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights transplanted to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w
