"""Direct Toeplitz linear algebra and the determinant functionals F and G.

Two independent determinant routes live here.  The direct route factors the
Hermitian Toeplitz matrix once: the Cholesky factor of each leading block is
the same leading block of the full factor, so every leading minor
log D_n = 2 Σ_{i≤n} log L_ii comes from one O(N³) factorization.  The matrix
has one builder, :func:`_toeplitz_view`, a strided view of the 2N+1 entries
c_{-N}..c_N: the factor reads the view, and :func:`assemble` copies it.  The product
route accumulates D_n = Π_{j≤n} ‖Φ_j‖² from c_0 and the Verblunsky
coefficients alone, with prefix sums over log(1-|α_j|²) in O(N) time.  The
ledger is three arrays over n: log D_n, the ratio D_{n+1}/D_n, which is the
running product F = c_0 Π (1-|α_j|²), and G_n = Π_j (1-|α_j|²)^{-min(n,j)-1},
all carried in log space internally.  The direct route never reads an α and
the product route never reads the factor.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PositivityError
from .opuc import RecursionState
from .symbol import MomentSequence, hermitian_strip


def _toeplitz_view(m: MomentSequence, n: int) -> np.ndarray:
    """Read-only (n+1)×(n+1) view with entry (i, j) = c_{j-i}, over one strip c_{-n}..c_n."""
    if n < 0:
        raise ValueError(f"matrix order must be nonnegative, got {n}")
    if m.order < n:
        raise ValueError(f"moments up to order {n} required, have {m.order}")
    strip = hermitian_strip(m.values[: n + 1])  # c_{-n}..c_n: window i is row n-i
    return sliding_window_view(strip, n + 1)[::-1]


def assemble(m: MomentSequence, n: int) -> np.ndarray:
    """(n+1)×(n+1) Toeplitz matrix with entry (i, j) = c_{j-i}, as a C-contiguous copy."""
    return _toeplitz_view(m, n).copy()


def _log_chol_diag(t: np.ndarray) -> np.ndarray:
    """log diag(L) of the Cholesky factor t = L L^H.

    A factorization failure is diagnostic (the matrix is not positive
    definite) and surfaces as :class:`PositivityError`.  numpy raises an empty
    :class:`MemoryError` when LAPACK's work buffer does not fit; it is raised
    again naming the matrix order, and one with a message passes unchanged.
    """
    try:
        chol = np.linalg.cholesky(t)
    except np.linalg.LinAlgError as exc:
        raise PositivityError(f"Toeplitz matrix is not positive definite: {exc}") from exc
    except MemoryError as exc:
        if str(exc):
            raise
        raise MemoryError(f"no room to factor the Toeplitz matrix of order {t.shape[0]}") from exc
    return np.log(np.real(np.diag(chol)))


def log_det_direct(t: np.ndarray) -> float:
    """log det via Cholesky: 2 Σ log diag(L).  Never forms the determinant itself."""
    return float(2.0 * np.sum(_log_chol_diag(t)))


def log_det_minors(m: MomentSequence, n_max: int) -> np.ndarray:
    """log D_n for n = 0..n_max from one factorization of the Toeplitz matrix of order n_max.

    log D_n = 2 Σ_{i≤n} log L_ii, since the factor of a leading block is the
    leading block of the factor.  The factor reads the strided view, not a copy:
    LAPACK's column-major input buffer is then filled column by column from the
    2N+1-entry strip, which stays in cache, and the bits are those of the copy's.
    """
    return 2.0 * np.cumsum(_log_chol_diag(_toeplitz_view(m, n_max)))


def log_rho_sums(alphas, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(r_j = log(1-|α_j|²) for j < max(len(alphas), n_max + 1), zero past the list;
    Σ_{j≤n} r_j = log(D_{n+1}/D_n) - log c_0 for n = 0..n_max): the one sum over the α's."""
    r = np.zeros(max(len(alphas), n_max + 1))
    r[: len(alphas)] = np.log1p(-np.abs(np.asarray(alphas, dtype=complex)) ** 2)
    return r, np.cumsum(r[: n_max + 1])


def log_dn_and_g(alphas, n_max: int, log_c0: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(log D_n, log G_n) for n = 0..n_max of the measure with mass e^{log_c0}
    and Verblunsky coefficients α_0, α_1, ... followed by zeros.

    With r_j = log(1-|α_j|²): log ‖Φ_n‖² = log c_0 + Σ_{j<n} r_j, log D_n is
    the running sum of those, and
    log G_n = -Σ_{j≤n} (j+1) r_j - (n+1) Σ_{j>n} r_j.
    Every r_j is ≤ 0, so no sum cancels.  O(n_max + len(alphas)).
    """
    r, prefix = log_rho_sums(alphas, n_max)
    degrees = np.arange(n_max + 1)
    log_norm_excess = np.concatenate(([0.0], prefix[:-1]))
    log_dn = (degrees + 1) * log_c0 + np.cumsum(log_norm_excess)
    head = np.cumsum((np.arange(r.size) + 1) * r)[: n_max + 1]
    tail = np.append(np.cumsum(r[::-1])[::-1], 0.0)[1 : n_max + 2]  # Σ_{j>n} r_j
    return log_dn, -(head + (degrees + 1) * tail)


def log_det_product(state: RecursionState) -> float:
    """log D_n = Σ_{j=0}^{n} log ‖Φ_j‖² from c_0 and the Verblunsky coefficients.

    Equals (n+1) log c_0 + Σ_{j<n} (n-j) log(1-|α_j|²).
    """
    log_dn, _ = log_dn_and_g(state.alphas[: state.n], state.n, float(np.log(state.c0)))
    return float(log_dn[-1])


def ledger(state: RecursionState, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log D_n, D_{n+1}/D_n, G_n) for n = 0..n_max, from a recursion state holding the α's.

    G_n uses the probability-normalized convention G_n(dμ) = G_n(dμ/c_0),
    which depends on the α's alone.  The state must carry at least n_max + 1
    Verblunsky coefficients so the ratio D_{n+1}/D_n = c_0 Π_{j≤n}(1-|α_j|²),
    which is F, is available at every degree.
    """
    if n_max < 0:
        raise ValueError("ledger needs n_max >= 0")
    if len(state.alphas) < n_max + 1:
        raise ValueError(
            f"ledger to n={n_max} needs {n_max + 1} alphas, state holds {len(state.alphas)}"
        )
    log_c0 = float(np.log(state.c0))
    log_dn, log_g = log_dn_and_g(state.alphas, n_max, log_c0)
    ratio = np.exp(log_c0 + log_rho_sums(state.alphas, n_max)[1])
    return log_dn, ratio, np.exp(log_g)
