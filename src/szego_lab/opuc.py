"""Monic orthogonal polynomials on the unit circle via the Szegő recursion.

The recursion Φ_{n+1} = zΦ_n - ᾱ_n Φ_n*, with the reversed polynomial
Φ_n*(z) = z^n conj(Φ_n(1/z̄)), extracts the Verblunsky coefficients α_n from
the moments through the bilinear form ⟨z^a, z^b⟩ = c_{a-b}.  Each step reads
the moments once, in the O(n) sum ⟨1, zΦ_n⟩ = Σ_b Φ_n[b] c_{-b-1}, which
equals ⟨Φ_n*, zΦ_n⟩ because zΦ_n is orthogonal to z, ..., z^n.  A state
never stores Φ_n*: it derives it from Φ_n by the reversal involution.
One loop, :func:`_walk`, runs the recursion in one sliding buffer and one
scratch array, with no allocation per step; each item is a view that the next
step overwrites.  :func:`run_to` copies its last item into one state (O(N)
memory), :func:`trajectory` copies every item into one row of a coefficient
array, so that callers evaluate all degrees at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PositivityError, RecursionConsistencyError
from .symbol import MomentSequence

ALPHA_CROSSCHECK_TOL = 1e-10
INVERSE_RESIDUE_TOL = 1e-11
WINDING_MAX_POINTS = 1 << 16
WINDING_BLOCK_SAMPLES = 1 << 16


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


def _walk(m: MomentSequence, n: int):
    """Yield (Φ_k coefficients, ‖Φ_k‖², [α_0..α_{k-1}]) for k = 0..n.

    Φ_k is the view ``buf[n-k:]`` of one (n+1)-long buffer, so zΦ_k is
    ``buf[n-k-1:]`` with no copy.  Step k takes ᾱ_k = ⟨Φ_k*, zΦ_k⟩/‖Φ_k‖², where
    ⟨Φ_k*, zΦ_k⟩ = ⟨1, zΦ_k⟩ = Σ_b Φ_k[b] c_{-b-1} by orthogonality, then
    Φ_{k+1} = zΦ_k - ᾱ_k Φ_k* in place, with Φ_k* reversed and conjugated into a
    scratch array made once, and ‖Φ_{k+1}‖² = (1-|α_k|²)‖Φ_k‖².  A redundant
    cross-check confirms α_k = -conj(Φ_{k+1}(0)).  The view changes in place and
    the α list grows in place: a consumer that keeps either past the next item
    must copy it.
    """
    if not 0 <= n <= m.order:
        raise ValueError(f"target degree {n} not in 0..{m.order}: moments up to order {m.order}")
    c = m.values
    buf = np.zeros(n + 1, dtype=complex)
    buf[n] = 1.0
    scratch = np.empty(n + 1, dtype=complex)
    norm_sq = m.c0
    alphas = []
    yield buf[n:], norm_sq, alphas
    for k in range(n):
        alpha_bar = complex(np.vdot(c[1 : k + 2], buf[n - k :])) / norm_sq
        alpha = alpha_bar.conjugate()
        if not abs(alpha) < 1.0:
            raise PositivityError(
                f"|alpha_{k}| = {abs(alpha):.6g} >= 1: moment matrix not positive "
                "definite or accuracy exhausted"
            )
        star = np.conj(buf[n : n - k - 1 : -1], out=scratch[: k + 1])
        buf[n - k - 1 : n] -= np.multiply(alpha_bar, star, out=star)
        if abs(alpha - (-np.conj(buf[n - k - 1]))) > ALPHA_CROSSCHECK_TOL:
            raise RecursionConsistencyError(
                f"alpha_{k} disagrees with -conj(Phi_{k + 1}(0)) beyond {ALPHA_CROSSCHECK_TOL:g}"
            )
        norm_sq = norm_sq * (1.0 - abs(alpha) ** 2)
        alphas.append(alpha)
        yield buf[n - k - 1 :], norm_sq, alphas


def run_to(m: MomentSequence, n: int) -> RecursionState:
    """The state of degree n, built once from the last item of :func:`_walk`."""
    for coeffs, norm_sq, alphas in _walk(m, n):
        pass
    return RecursionState(n, MonicPoly(coeffs.copy()), norm_sq, tuple(alphas), m.c0)


@dataclass(frozen=True)
class Trajectory:
    """Degrees 0..n: row k of ``coeffs`` is Φ_k (zero above k); ``traj[k]`` is its state."""

    coeffs: np.ndarray
    norm_sq: np.ndarray
    alphas: tuple[complex, ...]
    c0: float

    def __len__(self) -> int:
        return len(self.norm_sq)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]
        phi = MonicPoly(self.coeffs[k, : k + 1])
        return RecursionState(k, phi, float(self.norm_sq[k]), self.alphas[:k], self.c0)

    @cached_property
    def phi(self) -> np.ndarray:
        """Orthonormal rows φ_k = Φ_k/‖Φ_k‖, computed once."""
        return self.coeffs / np.sqrt(self.norm_sq)[:, None]

    @cached_property
    def phi_star(self) -> np.ndarray:
        """Rows φ_k*: φ_k reversed in 0..k, conjugated; j > k reads (k-j) mod (n+1) > k, a 0."""
        k = np.arange(len(self))
        return np.conj(np.take_along_axis(self.phi, (k[:, None] - k) % len(k), axis=1))


def trajectory(m: MomentSequence, n: int) -> Trajectory:
    """All degrees 0..n as one coefficient array."""
    coeffs = np.zeros((n + 1, n + 1), dtype=complex)
    norm_sq = np.empty(n + 1)
    for k, (row, norm, alphas) in enumerate(_walk(m, n)):
        coeffs[k, : k + 1] = row
        norm_sq[k] = norm
    coeffs.flags.writeable = False
    return Trajectory(coeffs, norm_sq, tuple(alphas), m.c0)


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


def winding_check(traj: Trajectory) -> str | None:
    """None if every Φ_k, 1 ≤ k ≤ n, has all its zeros in |z| < 1, else why not.

    By the argument principle, exactly when each Φ_k* winds 0 times round 0 on the
    circle.  FFTs sample the rows, WINDING_BLOCK_SAMPLES values at a time, on
    M = 8·2^⌈log₂(n+1)⌉ points v_j.  A row with a step |v_{j+1} - v_j| ≥ |v_j|/2 is
    sampled again on 2M points; past WINDING_MAX_POINTS it fails as unresolved.
    """
    todo, turns = np.arange(len(traj) - 1), np.full(len(traj) - 1, np.nan)
    points = 8 << (len(traj) - 1).bit_length()
    limit = max(points, WINDING_MAX_POINTS)
    while todo.size and points <= limit:
        for rows in np.array_split(todo, 1 + todo.size * points // WINDING_BLOCK_SAMPLES):
            v = np.fft.ifft(traj.phi_star[rows + 1], n=points, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.roll(v, -1, axis=1) / v  # v_{j+1}/v_j
            ok = np.all(np.abs(ratio - 1.0) < 0.5, axis=1)
            turns[rows[ok]] = np.rint(np.sum(np.angle(ratio[ok]), axis=1) / (2.0 * np.pi))
        todo, points = np.flatnonzero(np.isnan(turns)), 2 * points
    failing = np.flatnonzero(turns != 0)
    if failing.size == 0:
        return None
    k = failing[0]
    if np.isnan(turns[k]):
        return f"Phi_{k + 1}* unresolved on {points // 2} circle points"
    return f"Phi_{k + 1}* winds {turns[k]:.0f} times round 0: zeros outside the disk"


def orthonormal(state: RecursionState) -> np.ndarray:
    """Coefficients of φ_n = Φ_n/‖Φ_n‖."""
    return state.phi.coeffs / np.sqrt(state.norm_sq)


def orthonormal_star(state: RecursionState) -> np.ndarray:
    """Coefficients of φ_n* = Φ_n*/‖Φ_n‖."""
    return state.phi_star / np.sqrt(state.norm_sq)
