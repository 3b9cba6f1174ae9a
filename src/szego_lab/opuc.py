"""Monic orthogonal polynomials on the unit circle via the Szegő recursion.

The recursion Φ_{n+1} = zΦ_n - ᾱ_n Φ_n*, with the reversed polynomial
Φ_n*(z) = z^n conj(Φ_n(1/z̄)), extracts the Verblunsky coefficients α_n from
the moments through the bilinear form ⟨z^a, z^b⟩ = c_{a-b}.  Each step reads
the moments once, in the O(n) sum ⟨1, zΦ_n⟩ = Σ_b Φ_n[b] c_{-b-1}, which
equals ⟨Φ_n*, zΦ_n⟩ because zΦ_n is orthogonal to z, ..., z^n.  Φ_n* is
never stored: a state derives it from Φ_n by the reversal involution.
:func:`run_to` keeps only the current coefficients and the α's (O(N) memory)
and builds one state at the end; :func:`trajectory` keeps every state for
callers that need each Φ_n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityError, RecursionConsistencyError
from .symbol import MomentSequence

ALPHA_CROSSCHECK_TOL = 1e-10
INVERSE_RESIDUE_TOL = 1e-11


@dataclass(frozen=True)
class MonicPoly:
    """Polynomial with ascending coefficients and leading coefficient exactly 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if arr[-1] != 1.0:
            raise ValueError(f"leading coefficient must be 1, got {arr[-1]}")
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coeffs)


def reversed_conj(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of p*(z) = z^deg conj(p(1/z̄)): reverse and conjugate."""
    return np.conj(np.asarray(coeffs, dtype=complex))[::-1].copy()


@dataclass(frozen=True)
class RecursionState:
    """Recursion data at degree n: Φ_n, ‖Φ_n‖², and α_0..α_{n-1}."""

    n: int
    phi: MonicPoly
    norm_sq: float
    alphas: tuple[complex, ...]
    c0: float

    @property
    def phi_star(self) -> np.ndarray:
        """Coefficients of Φ_n*(z) = z^n conj(Φ_n(1/z̄)), derived from Φ_n."""
        return reversed_conj(self.phi.coeffs)

    def kappa(self) -> float:
        """κ_n = ‖Φ_n‖^{-1}, the orthonormal leading coefficient."""
        return 1.0 / np.sqrt(self.norm_sq)


def init_state(m: MomentSequence) -> RecursionState:
    """Degree-0 state: Φ_0 = Φ_0* = 1, ‖Φ_0‖² = c_0, no α's yet."""
    one = MonicPoly(np.ones(1, dtype=complex))
    return RecursionState(n=0, phi=one, norm_sq=m.c0, alphas=(), c0=m.c0)


def _advance(
    coeffs: np.ndarray, norm_sq: float, c: np.ndarray, n: int
) -> tuple[np.ndarray, float, complex]:
    """One Szegő step on bare data: (Φ_{n+1}, ‖Φ_{n+1}‖², α_n) from (Φ_n, ‖Φ_n‖²).

    ``coeffs`` holds Φ_n in ascending order and ``c`` the moments c_0..c_{n+1}
    or more.  ᾱ_n = ⟨Φ_n*, zΦ_n⟩/‖Φ_n‖² by orthogonality of Φ_{n+1} to Φ_n*,
    and ⟨Φ_n*, zΦ_n⟩ = ⟨1, zΦ_n⟩ = Σ_b Φ_n[b] c_{-b-1}; then
    Φ_{n+1} = zΦ_n - ᾱ_n Φ_n* and ‖Φ_{n+1}‖² = (1-|α_n|²)‖Φ_n‖².  A redundant
    cross-check confirms α_n = -conj(Φ_{n+1}(0)).
    """
    alpha_bar = complex(np.vdot(c[1 : n + 2], coeffs)) / norm_sq
    alpha = alpha_bar.conjugate()
    if not abs(alpha) < 1.0:
        raise PositivityError(
            f"|alpha_{n}| = {abs(alpha):.6g} >= 1: moment matrix not positive "
            "definite or accuracy exhausted"
        )
    next_coeffs = np.concatenate([np.zeros(1, dtype=complex), coeffs])
    next_coeffs[: n + 1] -= alpha_bar * reversed_conj(coeffs)
    if abs(alpha - (-np.conj(next_coeffs[0]))) > ALPHA_CROSSCHECK_TOL:
        raise RecursionConsistencyError(
            f"alpha_{n} disagrees with -conj(Phi_{n + 1}(0)) beyond {ALPHA_CROSSCHECK_TOL:g}"
        )
    return next_coeffs, norm_sq * (1.0 - abs(alpha) ** 2), alpha


def step(state: RecursionState, m: MomentSequence) -> RecursionState:
    """One Szegő step: extract α_n from the moments and advance to degree n+1."""
    n = state.n
    if m.order < n + 1:
        raise ValueError(f"step from degree {n} needs moments up to {n + 1}, have {m.order}")
    coeffs, norm_sq, alpha = _advance(state.phi.coeffs, state.norm_sq, m.nonnegative(), n)
    return RecursionState(
        n=n + 1,
        phi=MonicPoly(coeffs),
        norm_sq=norm_sq,
        alphas=state.alphas + (alpha,),
        c0=state.c0,
    )


def _check_target(m: MomentSequence, n: int) -> None:
    if n < 0:
        raise ValueError("target degree must be nonnegative")
    if m.order < n:
        raise ValueError(f"moments up to order {n} required, have {m.order}")


def run_to(m: MomentSequence, n: int) -> RecursionState:
    """The state of degree n: the steps of :func:`step` on a bare coefficient
    array and a list of α's, with one :class:`RecursionState` built at the end."""
    _check_target(m, n)
    c = m.nonnegative()
    coeffs = np.ones(1, dtype=complex)
    norm_sq = m.c0
    alphas = []
    for k in range(n):
        coeffs, norm_sq, alpha = _advance(coeffs, norm_sq, c, k)
        alphas.append(alpha)
    return RecursionState(
        n=n, phi=MonicPoly(coeffs), norm_sq=norm_sq, alphas=tuple(alphas), c0=m.c0
    )


def trajectory(m: MomentSequence, n: int) -> list[RecursionState]:
    """All states of degrees 0..n."""
    _check_target(m, n)
    states = [init_state(m)]
    for _ in range(n):
        states.append(step(states[-1], m))
    return states


def inverse_step(
    phi_next: MonicPoly, phi_next_star: np.ndarray, alpha: complex
) -> tuple[MonicPoly, np.ndarray]:
    """Undo one Szegő step: recover (Φ_n, Φ_n*) from (Φ_{n+1}, Φ_{n+1}*, α_n).

    Φ_n = ρ_n^{-2} [Φ_{n+1} + ᾱ_n Φ_{n+1}*]/z and
    Φ_n* = ρ_n^{-2} [Φ_{n+1}* + α_n Φ_{n+1}], with ρ_n² = 1-|α_n|².  The
    division by z must be exact: a constant term above 1e-11 in the bracket
    means the supplied α_n does not belong to this polynomial pair.
    """
    alpha = complex(alpha)
    if not abs(alpha) < 1.0:
        raise PositivityError(f"|alpha| = {abs(alpha):.6g} >= 1 in inverse step")
    rho_sq = 1.0 - abs(alpha) ** 2
    coeffs = np.asarray(phi_next.coeffs, dtype=complex)
    star = np.asarray(phi_next_star, dtype=complex)
    bracket = coeffs + np.conj(alpha) * star
    if abs(bracket[0]) > INVERSE_RESIDUE_TOL:
        raise RecursionConsistencyError(
            f"inverse step: constant term {abs(bracket[0]):.3g} does not vanish"
        )
    phi_coeffs = bracket[1:] / rho_sq
    phi_coeffs[-1] = 1.0  # equals ρ²/ρ² analytically
    star_bracket = (star + alpha * coeffs) / rho_sq
    if abs(star_bracket[-1]) > INVERSE_RESIDUE_TOL:
        raise RecursionConsistencyError(
            f"inverse step: degree-reducing term {abs(star_bracket[-1]):.3g} does not vanish"
        )
    return MonicPoly(phi_coeffs), star_bracket[:-1].copy()


def zeros_in_disk(p: MonicPoly) -> tuple[float, bool]:
    """Largest root modulus (companion-matrix roots) and whether all |roots| < 1."""
    if p.degree < 1:
        raise ValueError("root location needs degree >= 1")
    roots = np.roots(p.coeffs[::-1])
    max_modulus = float(np.max(np.abs(roots))) if roots.size else 0.0
    return max_modulus, bool(max_modulus < 1.0)


def orthonormal(state: RecursionState) -> np.ndarray:
    """Coefficients of φ_n = Φ_n/‖Φ_n‖."""
    return state.phi.coeffs / np.sqrt(state.norm_sq)


def orthonormal_star(state: RecursionState) -> np.ndarray:
    """Coefficients of φ_n* = Φ_n*/‖Φ_n‖."""
    return state.phi_star / np.sqrt(state.norm_sq)
