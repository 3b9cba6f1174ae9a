"""Analytic log-weights L(θ) on the unit circle and their Fourier moments.

A log-weight is a real Laurent polynomial L(θ) = Σ_{|k|≤K} l_k e^{ikθ} with
l_{-k} = conj(l_k); the associated weight is w = e^L and the moments are
c_n = ∫ e^{-inθ} w(θ) dθ/2π.  Moments are computed by FFT on a uniform grid
with adaptive doubling (the one stop rule of :mod:`quadrature`), which is
spectrally accurate for these integrands.  Stored coefficients, from symbol
files and ``--coeff`` flags alike, obey the one rule set of :func:`stored_symbol`.
:func:`hermitian_strip` is the one builder of a two-sided strip x_{-n}..x_n.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from . import quadrature
from .errors import (
    ConjugateSymmetryError,
    PositivityError,
    QuadratureError,
    SymbolParseError,
)
from .textio import fmt, records

SYMMETRY_TOL = 1e-12
IMAG_RESIDUE_TOL = 1e-13


@dataclass(frozen=True)
class LaurentSymbol:
    """Finitely many Fourier coefficients of a real-valued log-weight.

    Only k ≥ 0 is stored, as ``coeffs[k] = l_k``; the negative-index
    coefficients are implied by the Hermitian symmetry l_{-k} = conj(l_k).
    ``coeffs[0]`` is real.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if not self.coeffs:
            object.__setattr__(self, "coeffs", (0.0 + 0.0j,))
        if abs(complex(self.coeffs[0]).imag) > IMAG_RESIDUE_TOL:
            raise ConjugateSymmetryError(
                f"constant coefficient must be real, got {self.coeffs[0]}"
            )

    @property
    def bandwidth(self) -> int:
        """Largest |k| with a stored coefficient (K)."""
        return len(self.coeffs) - 1

    @property
    def mean(self) -> float:
        """l_0, the mean of L over the circle."""
        return complex(self.coeffs[0]).real

    def coeff(self, k: int) -> complex:
        """l_k for any integer k, zero beyond the bandwidth."""
        if abs(k) > self.bandwidth:
            return 0.0 + 0.0j
        value = complex(self.coeffs[abs(k)])
        return value if k >= 0 else value.conjugate()


def make_symbol(coeffs: Mapping[int, complex]) -> LaurentSymbol:
    """Build a symbol from a finite k → l_k map, enforcing Hermitian symmetry.

    Coefficients are symmetrized as l_k ← (l_k + conj(l_{-k}))/2.  Input whose
    symmetrized form differs from the original by more than 1e-12 in any
    coefficient is rejected: it would describe a non-real log-weight.
    """
    if not coeffs:
        return LaurentSymbol((0.0 + 0.0j,))
    bandwidth = max(abs(int(k)) for k in coeffs)
    full = {int(k): complex(v) for k, v in coeffs.items()}
    stored = []
    for k in range(bandwidth + 1):
        plus = full.get(k, 0.0 + 0.0j)
        minus = full.get(-k, 0.0 + 0.0j)
        sym = 0.5 * (plus + minus.conjugate())
        for provided, symmetrized in ((k, sym), (-k, sym.conjugate())):
            if provided in full and abs(full[provided] - symmetrized) > SYMMETRY_TOL:
                raise ConjugateSymmetryError(
                    f"coefficient {provided} violates l_-k = conj(l_k): "
                    f"{full[provided]} vs symmetrized {symmetrized}"
                )
        stored.append(sym)
    stored[0] = complex(stored[0].real)
    return LaurentSymbol(tuple(stored))


def eval_log_weight(s: LaurentSymbol, theta) -> np.ndarray | float:
    """L(θ) = Σ_{|k|≤K} l_k e^{ikθ}, returned as a real value.

    The value is :func:`eval_log_weight_z` at z = e^{iθ}; a scalar θ gives a float.
    """
    theta_arr = np.asarray(theta, dtype=float)
    real = eval_log_weight_z(s, quadrature.circle_points(theta_arr))
    return float(real) if np.isscalar(theta) or theta_arr.ndim == 0 else real


def eval_log_weight_z(s: LaurentSymbol, z: np.ndarray) -> np.ndarray:
    """L at points z = e^{iθ} of the unit circle: Σ_{|k|≤K} l_k z^k, as a real array.

    With p = Σ_{k≥1} l_k z^k, the terms k < 0 sum to conj(p), so
    L = l_0 + 2 Re p; the imaginary parts cancel exactly and are never formed.
    p comes from an in-place Horner loop, p = l_K·z, then p = (p + l_k)·z for
    k = K-1..1: the IEEE operations of ``polyval`` on [0, l_1..l_K] without its
    ``z*0`` start and ``0 +`` end, in one buffer, so the same bits for a scalar z
    and for every array of two or more points.  A one-point array can differ in
    the last place, since numpy multiplies it in place without the FMA that it
    uses for every other complex product.
    """
    z = np.asarray(z)
    if s.bandwidth == 0:
        return np.full(z.shape, s.mean)
    partial = np.full(z.shape, s.coeffs[-1], dtype=complex)
    partial *= z
    for coeff in s.coeffs[-2:0:-1]:
        partial += coeff
        partial *= z
    real = np.add(s.mean, partial.real)
    real += partial.real
    return real


def eval_weight(s: LaurentSymbol, theta) -> np.ndarray | float:
    """w(θ) = exp(L(θ)); strictly positive."""
    return np.exp(eval_log_weight(s, theta))


@dataclass(frozen=True, eq=False)  # an array field has no == of the whole
class MomentSequence:
    """Toeplitz moments c_0..c_N of a positive weight; c_{-n} = conj(c_n).

    ``values`` holds only n ≥ 0, as a read-only complex array copied from the
    sequence given, so Hermitian symmetry holds exactly by construction.
    ``quadrature_points`` records the grid that produced them (0 in closed form).
    """

    values: np.ndarray
    quadrature_points: int = 0

    def __post_init__(self):
        values = np.array(self.values, dtype=complex)
        if values.ndim != 1 or not values.size:
            raise ValueError("a moment sequence needs at least c_0")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        c0 = complex(values[0])
        if abs(c0.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(c0)):
            raise PositivityError(f"c_0 must be real, got {c0}")
        if c0.real <= 0.0:
            raise PositivityError(f"c_0 must be strictly positive, got {c0.real}")

    @property
    def order(self) -> int:
        return len(self.values) - 1

    @property
    def c0(self) -> float:
        return float(self.values[0].real)

    def moment(self, n: int) -> complex:
        """c_n for |n| ≤ order."""
        if abs(n) > self.order:
            raise IndexError(f"moment index {n} beyond order {self.order}")
        value = complex(self.values[abs(n)])
        return value if n >= 0 else value.conjugate()

    def normalized(self) -> "MomentSequence":
        """Moments of dμ/c_0: real and imaginary parts divided by c_0 one by one, as
        in Python's ``complex / float``; numpy's complex divide multiplies by 1/c_0."""
        scaled = (self.values.view(float) / self.c0).view(complex)
        return MomentSequence(scaled, self.quadrature_points)


def hermitian_strip(x: np.ndarray) -> np.ndarray:
    """x_{-n}..x_n from x_0..x_n, with x_{-k} = conj(x_k): x_k lands at index n+k."""
    return np.concatenate([np.conj(x[:0:-1]), x])


def _grid_moments(w: Callable[[np.ndarray], np.ndarray], n_max: int, m: int) -> np.ndarray:
    # an overflowing weight is reported once, as the non-finite grid, by _double_until_stagnant
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(w(quadrature.angles(m)), dtype=float)
        spectrum = np.fft.rfft(values) / m
    if n_max >= spectrum.size:
        raise QuadratureError(f"grid of {m} points cannot resolve moment order {n_max}")
    # a copy, not a view: the rest of the spectrum is freed before the next grid
    return spectrum[: n_max + 1].copy()


def _fast_fft_size(m: int) -> int:
    """The smallest size ≥ m with no prime factor above 7.

    numpy's FFT runs such a size on its fast radix passes, where a size with a
    large prime factor, such as 8·1609, goes through Bluestein's chirp at several
    times the cost; doubling keeps the property.
    """
    best = 1 << (m - 1).bit_length()
    p7 = 1
    while p7 < best:
        p5 = p7
        while p5 < best:
            odd = p5
            while odd < best:
                best = min(best, odd << (-(-m // odd) - 1).bit_length())
                odd *= 3
            p5 *= 5
        p7 *= 7
    return best


def moments_from_function(
    w: Callable[[np.ndarray], np.ndarray], n_max: int, start: int = 64
) -> MomentSequence:
    """Moments c_0..c_{n_max} of a positive weight given as a grid-evaluable function.

    The m-point uniform rule (1/m) Σ_j e^{-inθ_j} w(θ_j) is applied via the FFT,
    doubling m until no moment moves by more than ``quadrature.STAGNATION_TOL``
    times max(1, c_0) (every |c_n| ≤ c_0) or the grid cap is exceeded; only
    n ≥ 0 is computed, so symmetry is exact.  The first m is the smallest size
    at least max(start, 2(n_max+1)) with no prime factor above 7, so every grid
    below the cap is a fast FFT length.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    current, m = quadrature._double_until_stagnant(
        lambda m: _grid_moments(w, n_max, m),
        _fast_fft_size(max(int(start), 2 * (n_max + 1))),
        "moment",
    )
    current[0] = current[0].real
    return MomentSequence(current, m)


def moments(s: LaurentSymbol, n_max: int) -> MomentSequence:
    """Moments of w = e^L for a symbol, starting from m = max(64, 8(n_max+K)) raised
    to the next size with no prime factor above 7 (see :func:`moments_from_function`)."""
    return moments_from_function(
        lambda th: eval_weight(s, th), n_max, start=8 * (n_max + s.bandwidth)
    )


def gi_truncate(s: LaurentSymbol, n: int) -> LaurentSymbol:
    """Drop all coefficients with |k| > n (Fourier truncation of L)."""
    if n < 0:
        raise ValueError("truncation order must be nonnegative")
    kept = s.coeffs[: n + 1]
    return LaurentSymbol(tuple(kept))


def target_sum(s: LaurentSymbol) -> tuple[float, float]:
    """(l_0, Σ_{k≥1} k |l_k|²) — the two terms of the determinant asymptotics."""
    tail = sum(k * abs(complex(s.coeffs[k])) ** 2 for k in range(1, s.bandwidth + 1))
    return s.mean, float(tail)


# --------------------------------------------------------------------------
# symbol files: one `k re im` line per stored coefficient, k ≥ 0, `#` comments
# --------------------------------------------------------------------------


def stored_symbol(entries: Iterable[tuple[int, complex, int | str]]) -> LaurentSymbol:
    """The symbol with l_k = value for each stored ``(k, value, where)`` entry.

    The one rule set for stored coefficients, from symbol files and from
    ``--coeff`` flags alike: k ≥ 0 (negative k is implied by l_{-k} = conj(l_k)),
    each k at most once, every value finite, and l_0 real.  A violation raises
    :class:`SymbolParseError` located by ``where``: a file line number, or the
    text of the flag that gave the entry.
    """
    stored: dict[int, complex] = {}
    for k, value, where in entries:
        if k < 0:
            problem = "only k >= 0 may be stored; negative k is implied"
        elif k in stored:
            problem = f"duplicate coefficient k={k}"
        elif not cmath.isfinite(value):
            problem = f"coefficient {k} is not finite"
        elif k == 0 and value.imag != 0.0:
            problem = "coefficient 0 must be real"
        else:
            stored[k] = complex(value.real) if k == 0 else value
            continue
        if isinstance(where, int):
            raise SymbolParseError(problem, lineno=where)
        raise SymbolParseError(f"{where}: {problem}")
    bandwidth = max(stored, default=0)
    return LaurentSymbol(tuple(stored.get(k, 0.0 + 0.0j) for k in range(bandwidth + 1)))


def parse_symbol(text: str | bytes) -> LaurentSymbol:
    """Parse the plain-text symbol format (negative k implied by symmetry); bytes are UTF-8."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    return stored_symbol(records(data, None, "expected `k re im`, got {} fields"))


def load_symbol(path) -> LaurentSymbol:
    with open(path, "rb") as handle:
        return parse_symbol(handle.read())


def format_symbol(s: LaurentSymbol) -> str:
    lines = ["# k re im"]
    for k in range(s.bandwidth + 1):
        v = complex(s.coeffs[k])
        if k > 0 and v == 0:
            continue
        lines.append(f"{k} {fmt(v.real)} {fmt(v.imag)}")
    return "\n".join(lines) + "\n"

