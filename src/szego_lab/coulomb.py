"""Coulomb gas representation of the Toeplitz determinant.

D_n equals the partition-function integral
[(n+1)!]^{-1} ∫ |Π_{k<j}(z_k - z_j)|² e^{Σ L(θ_j)} Π dθ_j/2π over the
(n+1)-torus, with z_j = e^{iθ_j}, which is Heine's identity
D_n(w) = E[Π_j w(θ_j)] over the eigenvalues e^{iθ_j} of an (n+1)×(n+1) CUE
matrix.  Low dimensions are handled by exact tensor quadrature on m points
per axis, m doubling by the one stop rule of :mod:`quadrature` from
max(64, 2(n+K)+1) up to ``EXACT_MAX_GRID`` (1024), with the factor
e^{(n+1) l_0} carried exactly.  It takes z = e^{iθ} once per point, as
cos θ + i sin θ with no complex exponential (:func:`quadrature.circle_points`),
evaluates L on that same z through :func:`symbol.eval_log_weight_z`, and forms
every pair gap from its coordinates, |z_k - z_j|² = (x_k - x_j)² + (y_k - y_j)²,
with no trigonometry per pair.

Moderate dimensions are handled by seeded Monte Carlo over CUE(N), N = n+1,
itself (Killip & Nenciu, arXiv:math/0410034).  A draw is the paraorthogonal
Φ_N of the Szegő recursion Φ_{k+1} = zΦ_k - ᾱ_k Φ_k* on independent α_k,
|α_k|² ~ Beta(1, N-k-1) with uniform phases for k < N-1 and |α_{N-1}| = 1;
its zeros are the eigenvalues.  A phase e^{-2πiu} is taken from its uniform
u by the half-angle tangent t = tan(π(u - 1/2)), as (t² - 1 + 2it)/(1 + t²),
with no cos or sin, which would cost most of a batch.  No zero is computed:
with l_0 = 0, Σ_j L(θ_j) = 2 Re Σ_k l_k p_k needs the power sums
p_k = Σ_j z_j^k, k ≤ K, and Newton's identities give them from the top
min(K, N) coefficients of Φ_N, which the recursion carries together with the
bottom ones and nothing in between.  A sample is the mean of
Π_j w(θ_j + 2πd/8) over the eight turns d = 0..7 of one draw: turning every
zero by 2πd/8 multiplies p_k by e^{2πidk/8}, so the eight sums S_d come from
one (8, K) @ (K, batch) product.
Haar measure does not change when every eigenvalue turns by the same angle,
so each turned draw is again a CUE draw and the mean is unbiased, with no
quadrature in the angle.  Its relative variance is
(1/8) Σ_d D_n(w·τ_d w)/D_n(w)² - 1, with τ_d w(θ) = w(θ + 2πd/8): 0.0635 for
cosine and 0.0020 for two-band at n = 8, against D_n(w²)/D_n(w)² - 1 = 0.649
and 0.1275 for one turn.  Samples are drawn in batches of ``_MC_BATCH``
(8192) so that a batch's temporaries stay in cache, into buffers that a
worker allocates once and every batch reuses.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .quadrature import _double_until_stagnant, angles, circle_points
# eval_log_weight is not called here: it is imported so that the perfbench layer
# span on ``coulomb.eval_log_weight`` still finds its target
from .symbol import LaurentSymbol, eval_log_weight, eval_log_weight_z

EXACT_MAX_N = 2
#: finest exact tensor grid, points per axis: three dense float64 m×m matrices
#: (8 MiB each at 1024) and an O(m³) contraction at n = 2
EXACT_MAX_GRID = 1024
MC_MAX_N = 8
MC_MIN_SAMPLES = 10_000
#: samples per Monte Carlo batch: small enough that a batch's temporaries stay
#: in a core's L2 cache; draws split across batches give the same stream
_MC_BATCH = 8192
#: turns 2πd/R, d < R, of each CUE draw averaged into one sample.  Relative
#: variance per draw at n = 8 for R = 1, 4, 8, 16: cosine 0.650, 0.0645,
#: 0.0642, 0.0642; two-band 0.128, 0.0025, 0.0021, 0.0021; Bernstein–Szegő
#: (K = 48) 0.783, 0.0768, 0.0679, 0.0678 (200k draws each): 8 is the plateau
_MC_ROTATIONS = 8


@dataclass(frozen=True)
class CoulombEstimate:
    """One determinant estimate, by tensor quadrature or by Monte Carlo over CUE(n+1).

    For Monte Carlo, ``samples`` counts CUE draws, and each draw's sample is
    the mean of Π_j w(θ_j) over its eight turns θ_j + 2πd/8 (see the module
    docstring).  std_err is zero exactly for quadrature, and for Monte Carlo
    on a constant L, where every sample is e^{(n+1) l_0} exactly.
    """

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


def _sq_gaps(xa, ya, xb, yb):
    """|z_a - z_b|² = (x_a - x_b)² + (y_a - y_b)², broadcast over the coordinates."""
    dx = np.subtract(xa, xb)
    dy = np.subtract(ya, yb)
    dx *= dx
    dy *= dy
    dx += dy
    return dx


@np.errstate(over="ignore")  # reported by _require_finite_positive
def exact_Dn(s: LaurentSymbol, n: int) -> CoulombEstimate:
    """Tensor-product quadrature of the gas integral for n ≤ 2, with m points per axis.

    The grid doubles by the one stop rule of :func:`quadrature._double_until_stagnant`
    from m = max(64, 2(n+K)+1), which samples the degree-n gaps and the
    degree-K L of each axis above their Nyquist rate, up to ``EXACT_MAX_GRID``
    (or ``SZEGO_LAB_GRID_MAX`` if lower); at the cap the last change must be
    below ``FAILURE_TOL``.  L is evaluated at the points, so no FFT of e^L asks
    for the finer start of :func:`symbol.moments`.  The grid integrates w·e^{-l_0},
    whose D_n is at least 1 for real L, so the rule's max(1, |value|) scale makes
    the stop relative; D_n(e^{l_0} w) = e^{(n+1) l_0} D_n(w) scales the result.
    ``samples`` is m^{n+1} on the last grid.
    """
    if not 0 <= n <= EXACT_MAX_N:
        raise ValueError(f"exact quadrature supports n in 0..{EXACT_MAX_N}, got {n}")
    centred = LaurentSymbol((0.0,) + s.coeffs[1:])
    value, m = _double_until_stagnant(
        lambda m: _exact_on_grid(centred, n, m), 2 * (n + s.bandwidth) + 1, "gas", EXACT_MAX_GRID
    )
    value *= float(np.exp((n + 1) * s.mean))  # inf past the float range, then refused
    _require_finite_positive(n, value, 0.0)
    return CoulombEstimate(
        n=n,
        value=value,
        std_err=0.0,
        samples=m ** (n + 1),
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


def _substream(seed: int, index: int) -> np.random.SeedSequence:
    """Worker ``index``'s child of ``SeedSequence(seed)``: ``spawn(workers)[index]`` in O(1)."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def _conj_alphas(u: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Rows ᾱ_0..ᾱ_{N-1} of Killip–Nenciu coefficients from (batch, 2N-1) uniforms on [0, 1).

    The last N columns of ``u`` are the phases ψ_k = 2πu of α_k = r_k e^{iψ_k}.
    e^{-iψ_k} is taken by the half-angle tangent t = tan(π(u - 1/2)) as
    (t² - 1 + 2it)/(1 + t²), with no cos or sin: numpy's float64 tan runs as a
    vector loop, and its cos and sin do not.  The map is within 8e-16 of
    e^{-2πiu}, and finite at u = 0, where |t| ≈ 1.6e16.
    The first N-1 give r_k² = -expm1(log(1-u)/(N-k-1)) = 1 - (1-u)^{1/(N-k-1)},
    a Beta(1, N-k-1) draw (1-u lies in (0, 1], so the log is finite), and
    r_{N-1} = 1.  ``out`` is complex and ``scratch`` real, both (N, batch).
    """
    points = out.shape[0]
    t = np.subtract(u[:, points - 1 :].T, 0.5, out=scratch)
    t *= np.pi
    np.tan(t, out=t)
    np.multiply(t, 2.0, out=out.imag)
    np.multiply(t, t, out=out.real)
    np.add(out.real, 1.0, out=t)  # 1 + t²; t itself is read no more
    out.real -= 1.0
    out.real /= t
    out.imag /= t  # e^{-iψ_k}
    r = np.subtract(1.0, u[:, : points - 1].T, out=scratch[:-1])
    np.log(r, out=r)
    r /= np.arange(points - 1, 0, -1.0)[:, None]
    np.expm1(r, out=r)
    np.negative(r, out=r)
    out[:-1] *= np.sqrt(r, out=r)
    return out


def _top_coefficients(abar, top, bottom, spare, scratch) -> np.ndarray:
    """Top coefficients of the monic Φ_N that Φ_{k+1} = zΦ_k - ᾱ_k Φ_k* builds from Φ_0 = 1.

    Row m of ``top`` is t_m, the coefficient of z^{k-m} in Φ_k, and row j of
    ``bottom`` is b_j, that of z^j, for m, j ≤ M (M + 1 rows), zero past the
    degree.  Φ_k* holds conj(b_{m-1}) at z^{k+1-m} and conj(t_j) at z^j, so a
    step is t_m ← t_m - ᾱ conj(b_{m-1}) and b_j ← b_{j-1} - ᾱ conj(t_j), with
    t_0 = 1 and b_{-1} = 0; ``spare`` and ``scratch`` are buffers of their shape.
    """
    top.fill(0.0)
    top[0] = 1.0
    bottom.fill(0.0)
    bottom[0] = 1.0
    for a in abar:
        np.conjugate(top, out=spare)
        spare *= a  # ᾱ conj(t_j), j = 0..M
        shifted = np.conjugate(bottom[:-1], out=scratch[1:])
        top[1:] -= np.multiply(shifted, a, out=shifted)  # ᾱ conj(b_{m-1}), m = 1..M
        np.subtract(bottom[:-1], spare[1:], out=scratch[1:])
        np.negative(spare[0], out=scratch[0])
        bottom, scratch = scratch, bottom
    return top


def _power_sums(top: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows p_1..p_K of the power sums p_k = Σ_j z_j^k over the zeros z_j of Φ_N.

    Newton's identities on the top coefficients t_m = (-1)^m e_m of Φ_N, zero
    past m = N: p_k = -k t_k - Σ_{0<m<k} t_m p_{k-m}.  ``rows`` is a complex
    buffer of K + 1 rows, the K power sums and a product.
    """
    ends = top.shape[0] - 1
    *sums, product = rows
    for k, p_k in enumerate(sums, start=1):
        if k <= ends:
            np.multiply(top[k], -k, out=p_k)
        else:
            p_k.fill(0.0)
        for m in range(1, min(k - 1, ends) + 1):
            p_k -= np.multiply(top[m], sums[k - 1 - m], out=product)
    return rows[:-1]


def _rotation_mean(
    table: np.ndarray, sums: np.ndarray, pairing: np.ndarray, terms: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """g = mean_d exp(S_d) with S_d = 2 Re Σ_k table[d, k] p_k, one draw per column.

    S_d is Σ_j L(θ_j + 2πd/R) for l_0 = 0, since turning every zero by 2πd/R
    multiplies p_k by e^{2πidk/R}.  ``pairing`` is a complex (R, batch) buffer
    and ``terms`` a real one; ``out`` is real.
    """
    np.matmul(table, sums, out=pairing)
    np.multiply(pairing.real, 2.0, out=terms)
    np.exp(terms, out=terms)
    return np.mean(terms, axis=0, out=out)


@np.errstate(over="ignore", invalid="ignore")  # reported by _require_finite_positive
def _mc_worker(task) -> tuple[float, float, int, int]:
    """(Σg·2^-k, Σg²·2^-2k, count, k) over one worker's substream, deterministic given the task.

    Each sample is g = mean_d Π_j w(θ_j + 2πd/R), d < R = ``_MC_ROTATIONS``,
    over the eigenvalues e^{iθ_j} of one CUE(n+1) draw.  Each turned set of
    eigenvalues is again a CUE draw, so each term, and g, has mean D_n(w).
    k ≥ 0 is the largest binary exponent of a batch maximum so far, so that
    g·2^-k ≤ 1 and its square cannot overflow when g does not; scaling by
    2^-k is exact.
    """
    coeffs, n, count, seed, index = task
    l = np.asarray(coeffs, dtype=complex)  # l_1..l_K; the samples see l_0 = 0
    # row d holds l_k e^{2πidk/R}, the coefficients of L turned by 2πd/R
    steps = np.outer(np.arange(_MC_ROTATIONS), np.arange(1, l.size + 1)) % _MC_ROTATIONS
    table = l * circle_points(steps * (2.0 * np.pi / _MC_ROTATIONS))
    points = n + 1
    rng = np.random.default_rng(_substream(seed, index))
    total = 0.0
    total_sq = 0.0
    k = 0
    done = 0
    # one set of buffers for every batch: the uniforms sample by sample, the
    # ᾱ_k row by row, the ends of Φ_k, the power sums and the turned sums
    width = min(_MC_BATCH, count)
    u_rows = np.empty((width, 2 * points - 1))
    angle_rows = np.empty((points, width))
    abar_rows = np.empty((points, width), dtype=complex)
    end_rows = np.empty((4, min(l.size, points) + 1, width), dtype=complex)
    sum_rows = np.empty((l.size + 1, width), dtype=complex)
    pairing_rows = np.empty((_MC_ROTATIONS, width), dtype=complex)
    term_rows = np.empty((_MC_ROTATIONS, width))
    g_row = np.empty(width)
    while done < count:
        batch = min(_MC_BATCH, count - done)
        u = rng.random(out=u_rows[:batch])
        abar = _conj_alphas(u, abar_rows[:, :batch], angle_rows[:, :batch])
        top = _top_coefficients(abar, *end_rows[..., :batch])
        sums = _power_sums(top, sum_rows[:, :batch])
        g = _rotation_mean(
            table, sums, pairing_rows[:, :batch], term_rows[:, :batch], g_row[:batch]
        )
        shift = max(0, int(np.frexp(np.max(g))[1]) - k)
        total, total_sq, k = math.ldexp(total, -shift), math.ldexp(total_sq, -2 * shift), k + shift
        np.ldexp(g, -k, out=g)
        total += float(np.sum(g))
        total_sq += float(np.sum(g * g))
        done += batch
    return total, total_sq, count, k


@np.errstate(over="ignore")  # reported by _require_finite_positive
def mc_Dn(
    s: LaurentSymbol, n: int, samples: int, seed: int, workers: int = 1
) -> CoulombEstimate:
    """Monte Carlo estimate of D_n = E[Π_j w(θ_j)] over CUE(n+1) draws, with a standard error.

    Each of the ``samples`` draws is averaged over its eight turns θ_j + 2πd/8.
    A turned draw is again a CUE draw, so the estimate stays unbiased, and the
    relative variance per draw falls to (1/8) Σ_d D_n(w·τ_d w)/D_n(w)² - 1
    (0.0635 for cosine and 0.0020 for two-band at n = 8, from 0.649 and 0.1275).
    Deterministic given (seed, samples, workers): worker i draws from the
    seed's i-th spawned substream and the partial sums are reduced in worker order.
    The fork pool has at most one process per CPU this process may run on.
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
    tasks = [(s.coeffs[1:], n, counts[i], seed, i) for i in range(workers) if counts[i] > 0]
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on, not the machine's
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    processes = min(len(tasks), cores)
    if processes > 1:
        import multiprocessing  # 6-13 ms to import, so only when a pool runs

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
