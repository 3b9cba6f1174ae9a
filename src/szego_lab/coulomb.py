"""Coulomb gas representation of the Toeplitz determinant.

D_n equals the partition-function integral
[(n+1)!]^{-1} ∫ |Π_{k<j}(z_k - z_j)|² e^{Σ L(θ_j)} Π dθ_j/2π over the
(n+1)-torus, with z_j = e^{iθ_j}.  Low dimensions are handled by exact
tensor quadrature and moderate dimensions by seeded uniform Monte Carlo.
Both form every pair gap from the coordinates of z = exp(iθ),
|z_k - z_j|² = (x_k - x_j)² + (y_k - y_j)², with no trigonometry per pair.
Monte Carlo takes each sample's z once, evaluates L on that same z through
:func:`symbol.eval_log_weight_z`, carries the Vandermonde and the factorial
prefactor in log space, and draws in batches of ``_MC_BATCH`` (8192) samples
so that a batch's temporaries stay in cache.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .quadrature import angles
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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "value": self.value,
            "std_err": self.std_err,
            "samples": self.samples,
            "method": self.method,
            "seed": self.seed,
        }


def _sq_gaps(xa, ya, xb, yb):
    """|z_a - z_b|² = (x_a - x_b)² + (y_a - y_b)², broadcast over the coordinates."""
    dx = xa - xb
    dy = ya - yb
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _log_vandermonde_sq(z: np.ndarray) -> np.ndarray:
    """Σ_{k<j} log |z_k - z_j|² over the first axis of an (n+1, ...) array of points.

    The gaps come from the coordinates z = x + iy, one row of pairs (k, k+1..n)
    at a time, each a vector operation over the trailing (sample) axes on
    contiguous copies of x and y; coincident points contribute -inf.
    """
    x = np.ascontiguousarray(z.real)
    y = np.ascontiguousarray(z.imag)
    total = np.zeros(z.shape[1:])
    with np.errstate(divide="ignore"):
        for k in range(z.shape[0] - 1):
            gaps = _sq_gaps(x[k], y[k], x[k + 1 :], y[k + 1 :])
            total += np.sum(np.log(gaps, out=gaps), axis=0)
    return total


def vandermonde_sq(theta) -> float:
    """|Π_{k<j}(e^{iθ_k} - e^{iθ_j})|², accumulated in log space."""
    theta = np.asarray(theta, dtype=float)
    if theta.size < 2:
        return 1.0
    return float(np.exp(_log_vandermonde_sq(np.exp(1j * theta).T)))


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
    return CoulombEstimate(
        n=n,
        value=float(second),
        std_err=0.0,
        samples=(2 * m) ** (n + 1),
        method="exact-quadrature",
    )


def _exact_on_grid(s: LaurentSymbol, n: int, m: int) -> float:
    theta = angles(m)
    w = np.exp(np.asarray(eval_log_weight(s, theta), dtype=float))
    if n == 0:
        return float(np.mean(w))
    z = np.exp(1j * theta)
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


def _mc_worker(task) -> tuple[float, float, int]:
    """Σf, Σf², count over one worker's substream (deterministic given the task)."""
    coeffs, n, count, seed, index, workers = task
    s = LaurentSymbol(tuple(coeffs))
    child = np.random.SeedSequence(seed).spawn(workers)[index]
    rng = np.random.default_rng(child)
    log_prefactor = -math.lgamma(n + 2)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < count:
        batch = min(_MC_BATCH, count - done)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(batch, n + 1))
        z = np.exp(1j * theta)
        log_f = _log_vandermonde_sq(z.T)
        log_f += np.sum(eval_log_weight_z(s, z), axis=-1)
        f = np.exp(log_f + log_prefactor)
        total += float(np.sum(f))
        total_sq += float(np.sum(f * f))
        done += batch
    return total, total_sq, count


def mc_Dn(
    s: LaurentSymbol, n: int, samples: int, seed: int, workers: int = 1
) -> CoulombEstimate:
    """Uniform-sampling Monte Carlo estimate of D_n with a standard error.

    Deterministic given (seed, samples, workers): worker substreams are
    spawned from the seed and the partial sums are reduced in worker order.
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
        (tuple(s.coeffs), n, counts[i], seed, i, workers)
        for i in range(workers)
        if counts[i] > 0
    ]
    if workers > 1 and len(tasks) > 1:
        with multiprocessing.get_context("fork").Pool(len(tasks)) as pool:
            parts = pool.map(_mc_worker, tasks)
    else:
        parts = [_mc_worker(task) for task in tasks]
    total = 0.0
    total_sq = 0.0
    for part_sum, part_sq, _ in parts:  # ordered reduction
        total += part_sum
        total_sq += part_sq
    mean = total / samples
    variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return CoulombEstimate(
        n=n,
        value=float(mean),
        std_err=float(math.sqrt(variance / samples)),
        samples=samples,
        method="monte-carlo",
        seed=seed,
    )
