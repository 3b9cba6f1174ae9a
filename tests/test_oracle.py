"""Extended-precision oracles for the cosine weight w = e^{2a cos θ}.

Its moments are c_k = I_k(2a), which mpmath evaluates to any precision, so
the double-precision moments and the Verblunsky coefficients built on them
can be checked against values free of rounding.  The amplitudes reach
c_0 = I_0(20) ≈ 4.4e7, where a stop rule that ignored the scale of the
moments would chase rounding noise.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from szego_lab import make_symbol, moments, verify


def cosine(a: float):
    """L(θ) = 2a cos θ, stored as l_1 = a."""
    return make_symbol({1: a, -1: a})


@pytest.mark.parametrize("a", [0.5, 4.5, 10.0])
def test_cosine_moments_match_bessel_i_to_rounding(a):
    # The bound is c_0-scaled, not relative to each c_k: from n = 10, 17 and 22
    # at a = 0.5, 2 and 5, FFT moments are off by more than 1e-8 relative, while
    # Taylor products of e^{2a cos θ} give moments within 8e-16 of I_k.  Do not
    # swap such exactly rounded moments in: at a = 5 they gave Cholesky errors of
    # 2.5e-10, 1.4e-9 and 2.6e-9 at n = 12, 24 and 40, 6-100 times worse than the
    # FFT moments.  The likely reason, not proved: FFT moments are the exact
    # moments of a positive discrete measure within a relative eps of w, so their
    # determinants are backward stable in weight space; rounded moments are not.
    m = moments(cosine(a), 41)
    with mpmath.workdps(40):
        exact = [mpmath.besseli(k, 2 * a) for k in range(42)]
    c0 = float(exact[0])
    worst = max(abs(m.moment(k) - complex(exact[k])) for k in range(42))
    assert worst <= 2e-15 * c0
    assert m.quadrature_points <= 1344


def levinson_log_g(a: float, n_max: int, dps: int = 60) -> list[float]:
    """log G_n, n = 0..n_max, from a Szegő recursion in ``dps``-digit arithmetic
    on the exact moments I_k(2a).

    The weight is even, so the moments and α's are real.  With
    r_j = log(1-α_j²) for j = 0..n_max, log G_n = -Σ_j (min(n, j)+1) r_j,
    summed term by term.
    """
    with mpmath.workdps(dps):
        c = [mpmath.besseli(k, 2 * a) for k in range(n_max + 2)]
        phi = [mpmath.mpf(1)]
        norm_sq = c[0]
        r = []
        for n in range(n_max + 1):
            alpha = mpmath.fsum(phi[b] * c[b + 1] for b in range(n + 1)) / norm_sq
            reversed_phi = phi[::-1]
            phi = [mpmath.mpf(0)] + phi
            for b in range(n + 1):
                phi[b] -= alpha * reversed_phi[b]
            norm_sq *= 1 - alpha**2
            r.append(mpmath.log(1 - alpha**2))
        return [
            float(-mpmath.fsum((min(n, j) + 1) * r[j] for j in range(n_max + 1)))
            for n in range(n_max + 1)
        ]


def test_cosine_log_g_matches_levinson_oracle():
    # The G-bound check to N = 1600, as the benchmark runs it, read at n <= 200.
    # The floor is cond·eps with cond ≈ e^{max L - min L} = e^{18}, about 1.5e-8;
    # this configuration measures 2.1e-10, and other moment orders land
    # between 1.6e-10 and 6e-9 under either stop rule, so the bound pins this
    # configuration rather than the method.
    rows = verify.gi_bound_check(cosine(4.5), level=8, n_max=1600).rows[:201]
    exact = np.asarray(levinson_log_g(4.5, 200))
    assert np.max(np.abs(np.asarray([r.log_g_full for r in rows]) - exact)) <= 1e-9
