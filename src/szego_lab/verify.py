"""Headline experiments: the determinant limit and the identity cross-checks.

Everything here composes the lower modules into end-to-end verifications:
the normalized determinant excess log D_n - (n+1) l_0 against Σ k|l_k|²,
the Bernstein–Szegő approximation identities, the monotone G-functional
bounds for truncated log-weights, and the derivative identities for the
one-parameter family w_t = exp(tL - c_t).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import cdkernel, coulomb, opuc, quadrature, toeplitz
from .errors import InvariantViolation
from .symbol import (
    LaurentSymbol,
    MomentSequence,
    eval_log_weight,
    eval_weight,
    format_symbol,
    gi_truncate,
    make_symbol,
    moments,
    moments_from_function,
    target_sum,
)
from .textio import CSV_SCHEMA, fmt, json_text

ROUTE_AGREEMENT_TOL = 1e-10
G_BOUND_TOL = 1e-8
MONOTONE_SLACK = 1e-12
ERROR_FIT_FLOOR = 1e-12
#: how closely a Bernstein–Szegő approximant must reproduce its data
BS_APPROX_TOL = 1e-10


# --------------------------------------------------------------------------
# suite symbols
# --------------------------------------------------------------------------


def bs_log_weight(a: float = 0.5) -> LaurentSymbol:
    """Log-weight of the single-coefficient Bernstein–Szegő measure.

    w(θ) = (1-a²)/|1-a e^{iθ}|² has log-weight coefficients l_0 = log(1-a²),
    l_k = a^k/k, and exact moments c_n = a^{|n|}.  Truncating at k = 48 for
    a = 1/2 perturbs the weight below double precision.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("the pole parameter must lie in (0, 1)")
    coeffs = {0: math.log(1.0 - a * a)}
    for k in range(1, 49):
        coeffs[k] = a**k / k
        coeffs[-k] = a**k / k
    return make_symbol(coeffs)


def default_suite() -> tuple[tuple[str, LaurentSymbol], ...]:
    """The five standing test weights used across the verification suites."""
    return (
        ("lebesgue", make_symbol({})),
        ("cosine", make_symbol({1: 0.5, -1: 0.5})),
        ("two-band", make_symbol({1: 0.2, -1: 0.2, 2: 0.1, -2: 0.1})),
        ("offset", make_symbol({0: 0.3, 1: 0.2, -1: 0.2, 2: 0.1, -2: 0.1})),
        ("bernstein-szego", bs_log_weight()),
    )


# --------------------------------------------------------------------------
# the normalized family w_t = exp(tL - c_t)
# --------------------------------------------------------------------------


def scaled_symbol(s: LaurentSymbol, t: float) -> LaurentSymbol:
    return LaurentSymbol(tuple(t * complex(c) for c in s.coeffs))


def family_member(s: LaurentSymbol, t: float) -> tuple[LaurentSymbol, float]:
    """(symbol of w_t, c_t) with c_t = log ∫ e^{tL} dθ/2π, so ∫ w_t dθ/2π = 1."""
    st = scaled_symbol(s, t)
    mean_weight, _ = quadrature.adaptive_circle_mean(
        lambda th: eval_weight(st, th), start=8 * (s.bandwidth + 1)
    )
    c_t = float(np.log(np.real(mean_weight)))
    shifted = (complex(st.coeffs[0].real - c_t),) + tuple(st.coeffs[1:])
    return LaurentSymbol(shifted), c_t


def _c_t_derivative(s: LaurentSymbol, t: float, c_t: float) -> float:
    """ċ_t = ∫ L e^{tL} dθ/2π / ∫ e^{tL} dθ/2π, by the same torus quadrature;
    the denominator is e^{c_t}, with c_t from :func:`family_member` at this t."""
    st = scaled_symbol(s, t)
    numer, _ = quadrature.adaptive_circle_mean(
        lambda th: eval_log_weight(s, th) * eval_weight(st, th),
        start=8 * (s.bandwidth + 1),
    )
    return float(np.real(numer) / np.exp(c_t))


# --------------------------------------------------------------------------
# strong limit report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    n: int
    log_dn: float
    excess: float  # log D_n - (n+1) l_0
    target: float
    abs_err: float
    g_n: float


@dataclass(frozen=True)
class ConvergenceReport:
    symbol_id: str
    route: str
    mean_coeff: float
    target: float
    rows: tuple[ReportRow, ...]
    error_slope: float | None
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [CSV_SCHEMA]
        for key, value in self.meta.items():
            lines.append(f"# {key}={value}")
        lines.append(f"# route={self.route}")
        lines.append(f"# target={fmt(self.target)}")
        lines.append("n,log_dn,excess,target,abs_err,g_n")
        for r in self.rows:
            lines.append(
                f"{r.n},{fmt(r.log_dn)},{fmt(r.excess)},{fmt(r.target)},"
                f"{fmt(r.abs_err)},{fmt(r.g_n)}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "symbol_id": self.symbol_id,
            "route": self.route,
            "mean_coeff": self.mean_coeff,
            "target": self.target,
            "error_slope": self.error_slope,
            "meta": dict(self.meta),
            "rows": [asdict(r) for r in self.rows],
        }

    def to_json(self) -> str:
        return json_text(self.to_json_dict())


#: below this absolute gap two log-determinants are numerically identical;
#: keeps the relative criterion meaningful when both values are ~0
ROUTE_AGREEMENT_FLOOR = 1e-13


def routes_agree(a: float, b: float, rtol: float = ROUTE_AGREEMENT_TOL) -> bool:
    """Whether two values of one log-determinant agree to ``rtol``; a nan or an
    infinity agrees with nothing."""
    return _relative_gap(a, b) <= rtol


def _relative_gap(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|), 0 within the absolute floor, nan unless both are finite."""
    gap = abs(a - b)
    if gap <= ROUTE_AGREEMENT_FLOOR:
        return 0.0
    scale = max(abs(a), abs(b))
    return gap / scale if scale > 0.0 else math.nan


def error_slope_fit(rows) -> float | None:
    """Least-squares slope of log abs_err against n, above the noise floor."""
    xs = [r.n for r in rows if r.abs_err > ERROR_FIT_FLOOR]
    ys = [math.log(r.abs_err) for r in rows if r.abs_err > ERROR_FIT_FLOOR]
    if len(xs) < 2:
        return None
    slope, _ = np.polyfit(np.asarray(xs, dtype=float), np.asarray(ys), 1)
    return float(slope)


def strong_szego_report(
    s: LaurentSymbol,
    n_max: int = 40,
    route: str = "product",
    symbol_id: str = "",
) -> ConvergenceReport:
    """Per-degree ledger of the determinant excess against Σ k|l_k|².

    log D_n is computed through both the Cholesky and the norm-product
    routes, each for every n in one pass (they must agree to relative
    1e-10); G_n is tracked and must increase toward the target.  route="coulomb" records the gas-integral
    value instead, which caps n_max at 2 (tensor-quadrature cost).
    """
    if route not in ("direct", "product", "coulomb"):
        raise ValueError(f"route must be 'direct', 'product' or 'coulomb', got {route!r}")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if route == "coulomb" and n_max > 2:
        raise ValueError("the coulomb route supports n_max <= 2")
    mean_coeff, target = target_sum(s)
    m = moments(s, n_max + 1)
    state = opuc.run_to(m, n_max + 1)
    log_direct = toeplitz.log_det_minors(m, n_max).tolist()
    log_products, log_g = toeplitz.log_dn_and_g(state.alphas, n_max, float(np.log(m.c0)))
    rows = []
    for n, log_product in enumerate(log_products.tolist()):
        if not routes_agree(log_direct[n], log_product):
            raise InvariantViolation(
                f"determinant routes disagree at n={n}: "
                f"direct {log_direct[n]!r} vs product {log_product!r}"
            )
        if route == "coulomb":
            log_dn = float(np.log(coulomb.exact_Dn(s, n).value))
            if not routes_agree(log_dn, log_product, rtol=1e-8):
                raise InvariantViolation(
                    f"gas route disagrees with the product route at n={n}"
                )
        else:
            log_dn = log_direct[n] if route == "direct" else log_product
        excess = log_dn - (n + 1) * mean_coeff
        rows.append(
            ReportRow(
                n=n,
                log_dn=log_dn,
                excess=excess,
                target=target,
                abs_err=abs(excess - target),
                g_n=float(np.exp(log_g[n])),
            )
        )
    if np.any(np.diff(log_g) < -MONOTONE_SLACK):
        raise InvariantViolation("G_n is not nondecreasing")
    if np.any(log_g > target + G_BOUND_TOL):
        raise InvariantViolation("G_n exceeds the limit exp(Σ k|l_k|²)")
    return ConvergenceReport(
        symbol_id=symbol_id,
        route=route,
        mean_coeff=mean_coeff,
        target=target,
        rows=tuple(rows),
        error_slope=error_slope_fit(rows),
        meta={
            "symbol": format_symbol(s).replace("\n", ";"),
            "grid_m": m.quadrature_points,
            "n_max": n_max,
            "route_agreement_tol": fmt(ROUTE_AGREEMENT_TOL),
            "g_bound_tol": fmt(G_BOUND_TOL),
        },
    )


# --------------------------------------------------------------------------
# Bernstein–Szegő approximation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BSApproxBundle:
    """The level-N approximant dμ^{(N)} = dθ/(2π|φ_N|²) and its diagnostics."""

    level: int
    weight_values: np.ndarray
    grid_m: int
    moments: MomentSequence
    alphas: tuple[complex, ...]
    mass: float
    moment_deviation: float
    alpha_head_deviation: float
    alpha_tail_deviation: float


def bs_approximation(m: MomentSequence, level: int) -> BSApproxBundle:
    """Build dμ^{(N)} and verify it reproduces the data it must reproduce.

    The approximant is a probability measure whose moments match those of
    the (normalized) input through order N and whose Verblunsky coefficients
    match below N and vanish from N on, checked on α_0..α_{N+9} to
    ``BS_APPROX_TOL``.
    """
    if level < 1:
        raise ValueError("approximation level must be >= 1")
    n_alphas = level + 10
    mn = m.normalized()
    state = opuc.run_to(mn, level)
    phi_level = opuc.orthonormal(state)

    def weight(theta: np.ndarray) -> np.ndarray:
        values = np.polynomial.polynomial.polyval(np.exp(1j * theta), phi_level)
        return 1.0 / np.abs(values) ** 2

    new_m = moments_from_function(weight, n_alphas, start=8 * (n_alphas + level))
    new_alphas = opuc.run_to(new_m, n_alphas).alphas
    old_alphas = state.alphas

    mass = new_m.c0
    moment_dev = max(
        abs(new_m.moment(j) - mn.moment(j)) for j in range(level + 1)
    )
    head_dev = max(
        (abs(new_alphas[j] - old_alphas[j]) for j in range(level)), default=0.0
    )
    tail_dev = max(
        (abs(new_alphas[j]) for j in range(level, n_alphas)), default=0.0
    )
    if abs(mass - 1.0) > BS_APPROX_TOL:
        raise InvariantViolation(
            f"approximant mass {mass!r} is not 1 within {BS_APPROX_TOL:g}"
        )
    if moment_dev > BS_APPROX_TOL:
        raise InvariantViolation(
            f"approximant moments deviate by {moment_dev:g} through order {level}"
        )
    if head_dev > BS_APPROX_TOL:
        raise InvariantViolation(
            f"approximant alphas below level deviate by {head_dev:g}"
        )
    if tail_dev > BS_APPROX_TOL:
        raise InvariantViolation(
            f"approximant alphas from level on reach {tail_dev:g}, expected 0"
        )
    grid_m = new_m.quadrature_points
    return BSApproxBundle(
        level=level,
        weight_values=np.asarray(weight(quadrature.angles(grid_m)), dtype=float),
        grid_m=grid_m,
        moments=new_m,
        alphas=tuple(new_alphas),
        mass=float(mass),
        moment_deviation=float(moment_dev),
        alpha_head_deviation=float(head_dev),
        alpha_tail_deviation=float(tail_dev),
    )


# --------------------------------------------------------------------------
# monotone bounds for truncations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GIBoundRow:
    n: int
    log_g_full: float
    log_g_bs: float
    log_g_gi: float
    gap_full: float  # target - log G_n(dμ), nonnegative


@dataclass(frozen=True)
class GIBoundReport:
    target: float
    gi_target: float
    level: int
    rows: tuple[GIBoundRow, ...]


def gi_bound_check(s: LaurentSymbol, level: int, n_max: int = 40) -> GIBoundReport:
    """Sandwich diagnostics: G_n of the weight and of its two truncations.

    G_n must increase and stay below exp(Σ k|l_k|²) for the full weight; the
    Fourier truncation obeys the same bound against its own (smaller) target,
    and the Bernstein–Szegő truncation (α's cut at the level) stays below
    the full G_n.  Gap sequences are reported as diagnostics, with no
    asserted decay rate.
    """
    _, target = target_sum(s)
    m = moments(s, n_max + 1)
    alphas_full = opuc.run_to(m, n_max + 1).alphas
    _, log_g_full = toeplitz.log_dn_and_g(alphas_full, n_max)

    truncated = gi_truncate(s, level)
    _, gi_target = target_sum(truncated)
    m_gi = moments(truncated, n_max + 1)
    _, log_g_gi = toeplitz.log_dn_and_g(opuc.run_to(m_gi, n_max + 1).alphas, n_max)

    _, log_g_bs = toeplitz.log_dn_and_g(alphas_full[:level], n_max)

    for name, seq, bound in (
        ("full", log_g_full, target),
        ("fourier-truncated", log_g_gi, gi_target),
    ):
        if np.any(np.diff(seq) < -MONOTONE_SLACK):
            raise InvariantViolation(f"G_n for the {name} weight is not nondecreasing")
        if np.any(seq > bound + G_BOUND_TOL):
            raise InvariantViolation(f"G_n for the {name} weight exceeds its limit")
    if np.any(log_g_bs > log_g_full + MONOTONE_SLACK):
        raise InvariantViolation("G_n of the BS truncation exceeds the full G_n")

    rows = tuple(
        GIBoundRow(
            n=n,
            log_g_full=float(log_g_full[n]),
            log_g_bs=float(log_g_bs[n]),
            log_g_gi=float(log_g_gi[n]),
            gap_full=float(target - log_g_full[n]),
        )
        for n in range(n_max + 1)
    )
    return GIBoundReport(target=target, gi_target=gi_target, level=level, rows=rows)


# --------------------------------------------------------------------------
# derivative identities for the family w_t
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FHResult:
    analytic: float
    finite_diff: float
    gap: float
    ratio: float  # gap(h)/gap(h/2); ≈ 4 when the h² term dominates
    h: float


def _log_norm_sq_at(s: LaurentSymbol, t: float, n: int) -> float:
    member, _ = family_member(s, t)
    m = moments(member, max(n, 1))
    return float(np.log(opuc.run_to(m, n).norm_sq))


def feynman_hellman_check(
    s: LaurentSymbol, n: int, t: float = 0.5, h: float = 1e-3
) -> FHResult:
    """Derivative of log ‖Φ_n‖² along w_t: analytic form vs central difference.

    The analytic side is ∫ |φ_n|² (L - ċ_t) w_t dθ/2π; the finite-difference
    side recomputes the recursion at t ± h.  The ratio of gaps at h and h/2
    confirms the O(h²) accuracy of the central difference whenever the gap
    is above machine noise.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    if h == 0.0:
        raise ValueError("the difference step h must be nonzero")
    member, c_t = family_member(s, t)
    m = moments(member, max(n, 1))
    state = opuc.run_to(m, n)
    phi_n = opuc.orthonormal(state)
    c_dot = _c_t_derivative(s, t, c_t)

    def integrand(theta: np.ndarray) -> np.ndarray:
        values = np.polynomial.polynomial.polyval(np.exp(1j * theta), phi_n)
        log_l = np.asarray(eval_log_weight(s, theta), dtype=float)
        return np.abs(values) ** 2 * (log_l - c_dot) * eval_weight(member, theta)

    analytic_cplx, _ = quadrature.adaptive_circle_mean(
        integrand, start=8 * (n + s.bandwidth + 1)
    )
    analytic = float(np.real(analytic_cplx))

    def central(step: float) -> float:
        upper = _log_norm_sq_at(s, t + step, n)
        lower = _log_norm_sq_at(s, t - step, n)
        return (upper - lower) / (2.0 * step)

    fd = central(h)
    gap = abs(fd - analytic)
    gap_half = abs(central(0.5 * h) - analytic)
    ratio = math.inf if gap_half == 0.0 else gap / gap_half
    return FHResult(analytic=analytic, finite_diff=fd, gap=gap, ratio=ratio, h=h)


@dataclass(frozen=True)
class IntegratedIdentityResult:
    log_dn_direct: float
    rhs: float
    residual: float
    limit_value: float
    limit_target: float
    limit_residual: float


def integrated_identity_check(s: LaurentSymbol, n: int) -> IntegratedIdentityResult:
    """Integrated derivative identity for log D_n, plus its n → ∞ limit form.

    log D_n(w_1) must equal (n+1) log ‖Φ_{n+1}‖²_{t=1} minus the double
    integral over t and θ of (d/dt log w_t) ∂_r|φ*_{n+1}(re^{iθ}; w_t)|²|_{r=1} w_t;
    the t-integral uses 16-node Gauss–Legendre (the integrand is analytic in t), the
    θ-integral the spectral grid.  The limit form is the Parseval identity
    ∫ L · Re(Σ k l_k e^{ikθ}) dθ/2π = Σ k|l_k|².
    """
    if n > 30:
        raise ValueError("identity check is intended for moderate n (<= 30)")
    member_1, _ = family_member(s, 1.0)
    m1 = moments(member_1, n + 1)
    log_dn_direct = toeplitz.log_det_direct(toeplitz.assemble(m1, n))
    norm_term = (n + 1) * float(np.log(opuc.run_to(m1, n + 1).norm_sq))

    nodes, weights = quadrature.gauss_legendre(16, 0.0, 1.0)
    integral = 0.0
    for t_i, w_i in zip(nodes, weights):
        member, c_t = family_member(s, float(t_i))
        m_t = moments(member, n + 1)
        star = opuc.orthonormal_star(opuc.run_to(m_t, n + 1))
        c_dot = _c_t_derivative(s, float(t_i), c_t)

        def integrand(theta: np.ndarray) -> np.ndarray:
            z = np.exp(1j * theta)
            du = cdkernel._radial_derivative_sq(star, z)
            log_l = np.asarray(eval_log_weight(s, theta), dtype=float)
            return (log_l - c_dot) * du * eval_weight(member, theta)

        value, _ = quadrature.adaptive_circle_mean(
            integrand, start=8 * (n + s.bandwidth + 2)
        )
        integral += float(w_i) * float(np.real(value))
    rhs = norm_term - integral

    _, target = target_sum(s)

    def limit_integrand(theta: np.ndarray) -> np.ndarray:
        z = np.exp(1j * theta)
        tail = np.asarray(s.coeffs, dtype=complex).copy()
        tail[0] = 0.0
        deriv_boundary = np.polynomial.polynomial.polyval(
            z, np.arange(len(tail)) * tail
        )
        return np.asarray(eval_log_weight(s, theta), dtype=float) * np.real(
            deriv_boundary
        )

    limit_value_cplx, _ = quadrature.adaptive_circle_mean(
        limit_integrand, start=8 * (2 * s.bandwidth + 1)
    )
    limit_value = float(np.real(limit_value_cplx))
    return IntegratedIdentityResult(
        log_dn_direct=log_dn_direct,
        rhs=rhs,
        residual=abs(rhs - log_dn_direct),
        limit_value=limit_value,
        limit_target=target,
        limit_residual=abs(limit_value - target),
    )
