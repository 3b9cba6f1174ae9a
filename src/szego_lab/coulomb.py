"""Coulomb gas representation of the Toeplitz determinant.

D_n equals the partition-function integral
[(n+1)!]^{-1} ∫ |Π_{k<j}(z_k - z_j)|² e^{Σ L(θ_j)} Π dθ_j/2π over the
(n+1)-torus, with z_j = e^{iθ_j}.  Low dimensions are handled by exact
tensor quadrature and moderate dimensions by seeded uniform Monte Carlo.
Both take z = e^{iθ} once per point, as cos θ + i sin θ with no complex
exponential (:func:`quadrature.circle_points`), evaluate L on that same z
through :func:`symbol.eval_log_weight_z`, and form every pair gap from its
coordinates, |z_k - z_j|² = (x_k - x_j)² + (y_k - y_j)², with no trigonometry
per pair.  Monte Carlo carries the Vandermonde and the factorial prefactor in
log space, and draws in batches of ``_MC_BATCH`` (8192) samples so that a
batch's temporaries stay in cache; z, its coordinates, the rows of pair gaps
and their sums go into buffers that a worker allocates once and every batch
reuses, so a batch does not fault in fresh pages for them.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .quadrature import angles, circle_points
# eval_log_weight is not called here: it is imported so that the perfbench layer
# span on ``coulomb.eval_log_weight`` still finds its target
from .symbol import LaurentSymbol, eval_log_weight, eval_log_weight_z

EXACT_MAX_N = 2
MC_MAX_N = 8
MC_MIN_SAMPLES = 10_000
#: samples per Monte Carlo batch: small enough that a batch's temporaries stay
#: in a core's L2 cache; draws split across batches give the same stream
_MC_BATCH = 8192


@dataclass(frozen=True)
class CoulombEstimate:
    """One determinant estimate; std_err is zero exactly for quadrature."""

    n: int
    value: float
    std_err: float
    samples: int
    method: str  # "exact-quadrature" | "monte-carlo"
    seed: int | None = None


def _require_finite_positive(n: int, value: float, std_err: float) -> None:
    """Reject the nan, inf or 0 that an overflowing or underflowing weight gives."""
    if not (0.0 < value < math.inf and math.isfinite(std_err)):
        raise QuadratureError(
            f"gas estimate of D_{n} is {value!r} (std_err {std_err!r}), not finite and > 0"
        )


def _sq_gaps(xa, ya, xb, yb, dx=None, dy=None):
    """|z_a - z_b|² = (x_a - x_b)² + (y_a - y_b)², broadcast over the coordinates.

    The result is written into ``dx`` and ``dy`` is scratch, when they are given.
    """
    dx = np.subtract(xa, xb, out=dx)
    dy = np.subtract(ya, yb, out=dy)
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _add_log_gaps(total, x, y, dx, dy, row_sum) -> np.ndarray:
    """total += Σ_{k<j} log |z_k - z_j|², from the coordinates z = x + iy of shape (n+1, ...).

    One row of pairs (k, k+1..n) at a time, each a vector operation over the
    trailing (sample) axes, written into the leading rows of the n-row gap
    buffers dx, dy and summed through row_sum; coincident points contribute -inf.
    """
    pairs = x.shape[0] - 1
    with np.errstate(divide="ignore"):
        for k in range(pairs):
            rows = pairs - k
            gaps = _sq_gaps(x[k], y[k], x[k + 1 :], y[k + 1 :], dx[:rows], dy[:rows])
            total += np.sum(np.log(gaps, out=gaps), axis=0, out=row_sum)
    return total


def _log_vandermonde_sq(z: np.ndarray) -> np.ndarray:
    """Σ_{k<j} log |z_k - z_j|² over the first axis of an (n+1, ...) array of points.

    The gaps come from contiguous copies of x and y, in buffers allocated once per call.
    """
    x = np.ascontiguousarray(z.real)
    y = np.ascontiguousarray(z.imag)
    dx = np.empty((max(z.shape[0] - 1, 0), *z.shape[1:]))
    total = np.zeros(z.shape[1:])
    return _add_log_gaps(total, x, y, dx, np.empty_like(dx), np.empty_like(total))


def vandermonde_sq(theta) -> float:
    """|Π_{k<j}(e^{iθ_k} - e^{iθ_j})|², accumulated in log space."""
    theta = np.asarray(theta, dtype=float)
    if theta.size < 2:
        return 1.0
    return float(np.exp(_log_vandermonde_sq(circle_points(theta).T)))


def exact_Dn(s: LaurentSymbol, n: int) -> CoulombEstimate:
    """Tensor-product quadrature of the gas integral for n ≤ 2.

    The 512-point grid is doubled once as a stability pass; a relative shift above
    1e-8 between the two grids is reported as non-convergence.
    """
    if not 0 <= n <= EXACT_MAX_N:
        raise ValueError(f"exact quadrature supports n in 0..{EXACT_MAX_N}, got {n}")
    m = 512
    first = _exact_on_grid(s, n, m)
    second = _exact_on_grid(s, n, 2 * m)
    if abs(second - first) > 1e-8 * abs(second):
        raise QuadratureError(
            f"gas quadrature for n={n} moved by {abs(second - first):.3g} "
            f"between grids {m} and {2 * m}"
        )
    _require_finite_positive(n, second, 0.0)
    return CoulombEstimate(
        n=n,
        value=float(second),
        std_err=0.0,
        samples=(2 * m) ** (n + 1),
        method="exact-quadrature",
    )


@np.errstate(over="ignore", invalid="ignore")  # reported by _require_finite_positive
def _exact_on_grid(s: LaurentSymbol, n: int, m: int) -> float:
    z = circle_points(angles(m))
    w = np.exp(eval_log_weight_z(s, z))
    if n == 0:
        return float(np.mean(w))
    x, y = z.real, z.imag
    gaps = _sq_gaps(x[:, None], y[:, None], x[None, :], y[None, :])
    if n == 1:
        total = w @ gaps @ w
        return float(total / (2.0 * m**2))
    weighted = gaps * w[None, :]  # R[a, b] = |z_a - z_b|² w_b
    cross = weighted @ gaps  # Σ_b R[a, b] gaps[b, c]
    per_a = np.einsum("ac,ac->a", cross, weighted)
    total = float(w @ per_a)
    return total / (6.0 * m**3)


@np.errstate(over="ignore", invalid="ignore")  # reported by _require_finite_positive
def _mc_worker(task) -> tuple[float, float, int, int]:
    """(Σf·2^-k, Σf²·2^-2k, count, k) over one worker's substream, deterministic given the task.

    k ≥ 0 is the largest binary exponent of a batch maximum so far, so that f·2^-k ≤ 1
    and its square cannot overflow when f does not; scaling by 2^-k is exact.
    """
    coeffs, n, count, seed, index, workers = task
    s = LaurentSymbol(tuple(coeffs))
    child = np.random.SeedSequence(seed).spawn(workers)[index]
    rng = np.random.default_rng(child)
    log_prefactor = -math.lgamma(n + 2)
    total = 0.0
    total_sq = 0.0
    k = 0
    done = 0
    # one set of buffers for every batch: z sample by sample for L, its
    # coordinates point by point for the gaps, the gap rows and the sums
    width = min(_MC_BATCH, count)
    z_rows = np.empty((width, n + 1), dtype=complex)
    xy = np.empty((2, n + 1, width))
    gap_rows = np.empty((2, n, width))
    sums = np.empty((2, width))
    while done < count:
        batch = min(_MC_BATCH, count - done)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(batch, n + 1))
        z = circle_points(theta, out=z_rows[:batch])
        x, y = xy[..., :batch]
        np.copyto(x, z.real.T)
        np.copyto(y, z.imag.T)
        log_f, row_sum = sums[:, :batch]
        log_f.fill(0.0)
        _add_log_gaps(log_f, x, y, *gap_rows[..., :batch], row_sum)
        log_f += np.sum(eval_log_weight_z(s, z), axis=-1)
        f = np.exp(log_f + log_prefactor)
        shift = max(0, int(np.frexp(np.max(f))[1]) - k)
        total, total_sq, k = math.ldexp(total, -shift), math.ldexp(total_sq, -2 * shift), k + shift
        np.ldexp(f, -k, out=f)
        total += float(np.sum(f))
        total_sq += float(np.sum(f * f))
        done += batch
    return total, total_sq, count, k


@np.errstate(over="ignore")  # reported by _require_finite_positive
def mc_Dn(
    s: LaurentSymbol, n: int, samples: int, seed: int, workers: int = 1
) -> CoulombEstimate:
    """Uniform-sampling Monte Carlo estimate of D_n with a standard error.

    Deterministic given (seed, samples, workers): worker substreams are
    spawned from the seed and the partial sums are reduced in worker order.
    The samples see l_0 = 0, and D_n(e^{l_0} w) = e^{(n+1) l_0} D_n(w) scales the result.
    """
    if not 1 <= n <= MC_MAX_N:
        raise ValueError(f"Monte Carlo supports n in 1..{MC_MAX_N}, got {n}")
    if samples < MC_MIN_SAMPLES:
        raise ValueError(f"need at least {MC_MIN_SAMPLES} samples, got {samples}")
    if workers < 1:
        raise ValueError("workers must be positive")
    base, extra = divmod(samples, workers)
    counts = [base + (1 if i < extra else 0) for i in range(workers)]
    tasks = [
        ((0.0, *s.coeffs[1:]), n, counts[i], seed, i, workers)
        for i in range(workers)
        if counts[i] > 0
    ]
    processes = min(len(tasks), os.cpu_count() or 1)
    if processes > 1:
        with multiprocessing.get_context("fork").Pool(processes) as pool:
            parts = pool.map(_mc_worker, tasks)
    else:
        parts = [_mc_worker(task) for task in tasks]
    k = max(part[3] for part in parts)
    total = 0.0
    total_sq = 0.0
    for part_sum, part_sq, _, part_k in parts:  # ordered reduction, at the common 2^-k
        total += math.ldexp(part_sum, part_k - k)
        total_sq += math.ldexp(part_sq, 2 * (part_k - k))
    mean = total / samples
    variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    scale = float(np.exp((n + 1) * s.mean))  # inf past the float range, then refused
    value = float(np.ldexp(mean, k)) * scale
    std_err = float(np.ldexp(math.sqrt(variance / samples), k)) * scale
    _require_finite_positive(n, value, std_err)
    return CoulombEstimate(
        n=n,
        value=value,
        std_err=std_err,
        samples=samples,
        method="monte-carlo",
        seed=seed,
    )
