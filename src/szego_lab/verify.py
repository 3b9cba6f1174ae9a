"""Headline experiments: the determinant limit and the identity cross-checks.

Everything here composes the lower modules into end-to-end verifications:
the normalized determinant excess log D_n - (n+1) l_0 against Σ k|l_k|²,
the Bernstein–Szegő approximation identities, the monotone G-functional
bounds for truncated log-weights, and the derivative identities for the
one-parameter family w_t = exp(tL - c_t).  The checks that ``szego-lab verify``,
``bs-check`` and ``fh-check`` print live here with their tolerances
(:func:`symbol_checks`, :func:`moment_checks`, :func:`bs_checks`, :func:`fh_checks`).
One rule judges every G_n sequence (:func:`g_problem`) and one every pair of
determinant routes (:func:`route_gaps`).  The limit report writes its CSV through
:func:`szego_lab.textio.csv_text`, and its JSON form is ``asdict`` of it.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import opuc, quadrature, toeplitz
from .errors import InvariantViolation, PositivityError, SzegoLabError
from .symbol import (
    LaurentSymbol,
    MomentSequence,
    eval_log_weight_z,
    format_symbol,
    gi_truncate,
    hermitian_strip,
    make_symbol,
    moments,
    moments_from_function,
    target_sum,
)
from .textio import csv_text, fmt, json_text

ROUTE_AGREEMENT_TOL = 1e-10
G_BOUND_TOL = 1e-8
MONOTONE_SLACK = 1e-12
ERROR_FIT_FLOOR = 1e-12
LIMIT_CONVERGENCE_TOL = 1e-6
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


def family_moments(
    s: LaurentSymbol, t: float, n: int
) -> tuple[MomentSequence, float, np.ndarray]:
    """(moments of w_t, c_t, Laurent coefficients of L - ċ_t) from one moment quadrature.

    The moments of e^{tL}, to order max(n, K), divided by their c_0 are those of
    w_t, with c_0 = 1 exactly, and c_t = log c_0(e^{tL}).  Every θ-integral of a
    trigonometric polynomial against w_t is a pairing with them (:func:`_pair`),
    so ċ_t = ∫ L w_t dθ/2π = Σ_{|k|≤K} l_k c_{-k}.  The last item, indexed
    -K..K, is d/dt log w_t = L - ċ_t.
    """
    raw = moments(scaled_symbol(s, t), max(n, s.bandwidth))
    m = raw.normalized()
    dlog_w = hermitian_strip(np.asarray(s.coeffs, dtype=complex))
    dlog_w[s.bandwidth] -= _pair(dlog_w, m)
    return m, float(np.log(raw.c0)), dlog_w


def _pair(p: np.ndarray, m: MomentSequence) -> float:
    """∫ P dμ/2π = Σ_d p_d c_{-d} for P = Σ_{|d|≤D} p_d e^{idθ}, given as p_{-D}..p_D."""
    # a contiguous copy: numpy's dot product on the reversed view rounds differently
    c_minus_d = hermitian_strip(m.values[: len(p) // 2 + 1])[::-1].copy()
    return float(np.real(p @ c_minus_d))


# --------------------------------------------------------------------------
# strong limit report, and the checks that `szego-lab verify` prints
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
    """The limit report; its fields are in the order of its JSON form, ``asdict``."""

    symbol_id: str
    route: str
    mean_coeff: float
    target: float
    error_slope: float | None
    meta: dict
    rows: tuple[ReportRow, ...]

    def to_csv(self) -> str:
        meta = {**self.meta, "route": self.route, "target": fmt(self.target)}
        header = ",".join(f.name for f in fields(ReportRow))
        return csv_text(meta, header, map(astuple, self.rows))


#: below this absolute gap two log-determinants are numerically identical;
#: keeps the relative criterion meaningful when both values are ~0
ROUTE_AGREEMENT_FLOOR = 1e-13


def route_gaps(a, b) -> np.ndarray:
    """|a - b| / max(|a|, |b|) elementwise: 0 within ``ROUTE_AGREEMENT_FLOOR``, and
    nan unless both values are finite, so that a nan or an infinity agrees with nothing."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # inf - inf, inf / inf and 0 / 0 give nan; a finite difference past the float range, inf
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.abs(a - b)
        relative = gap / np.maximum(np.abs(a), np.abs(b))
    return np.where(gap <= ROUTE_AGREEMENT_FLOOR, 0.0, relative)


def routes_agree(a: float, b: float) -> bool:
    """Whether two values of one log-determinant agree to ``ROUTE_AGREEMENT_TOL``."""
    return bool(route_gaps(a, b) <= ROUTE_AGREEMENT_TOL)


def error_slope_fit(rows) -> float | None:
    """Least-squares slope of log abs_err against n, above the noise floor."""
    xs = [r.n for r in rows if r.abs_err > ERROR_FIT_FLOOR]
    ys = [math.log(r.abs_err) for r in rows if r.abs_err > ERROR_FIT_FLOOR]
    if len(xs) < 2:
        return None
    slope, _ = np.polyfit(np.asarray(xs, dtype=float), np.asarray(ys), 1)
    return float(slope)


def _g_pass(m: MomentSequence, n_max: int):
    """(α_0..α_{n_max}, log D_n, log G_n for n = 0..n_max) from moments to order n_max + 1."""
    alphas = opuc.run_to(m, n_max + 1).alphas
    log_dn, log_g = toeplitz.log_dn_and_g(alphas, n_max, float(np.log(m.c0)))
    return alphas, log_dn, log_g


@contextmanager
def _dense_route(m: MomentSequence, n_max: int):
    """Run ``toeplitz.log_det_minors(m, n_max)`` on a helper thread while the block runs.

    The block gets a function that joins the thread and returns the log D_n column,
    or raises what the factor raised.  LAPACK releases the GIL, so the factor and
    the product route on the calling thread use two cores.  The thread is joined on
    every exit from the block, so none outlives the call.
    """
    outcome = []

    def factor():
        try:
            outcome.append(toeplitz.log_det_minors(m, n_max))
        except BaseException as exc:  # raised again on the calling thread
            outcome.append(exc)

    helper = threading.Thread(target=factor, daemon=True)
    helper.start()

    def log_direct() -> np.ndarray:
        helper.join()
        if isinstance(outcome[0], BaseException):
            raise outcome[0]
        return outcome[0]

    try:
        yield log_direct
    finally:
        helper.join()


def g_problem(log_g, bound: float | None = None) -> str | None:
    """None if G_n is nondecreasing within ``MONOTONE_SLACK`` and, given the log of
    its limit, at most ``bound + G_BOUND_TOL``; else what is wrong.  A nan fails both."""
    if not np.all(np.diff(log_g) >= -MONOTONE_SLACK):
        return "is not nondecreasing"
    if bound is not None and not np.all(log_g <= bound + G_BOUND_TOL):
        return "exceeds the limit exp(Σ k|l_k|²)"
    return None


def strong_szego_report(
    s: LaurentSymbol,
    n_max: int = 40,
    symbol_id: str = "",
) -> ConvergenceReport:
    """Per-degree ledger of the determinant excess against Σ k|l_k|².

    log D_n is computed through both the Cholesky and the norm-product
    routes, each for every n in one pass (they must agree to relative
    1e-10), and the rows carry the product value; G_n is tracked and must
    increase toward the target.  After the moments the two routes run at once:
    the dense factor on one helper thread (:func:`_dense_route`), the α recursion,
    the rows and the G_n rule on the calling thread, which joins the helper before
    it reads the direct column.  A failure is raised in the order quadrature,
    recursion, dense factor, route agreement, G_n.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    mean_coeff, target = target_sum(s)
    m = moments(s, n_max + 1)
    with _dense_route(m, n_max) as dense:
        _, log_products, log_g = _g_pass(m, n_max)
        excess = log_products - np.arange(1, n_max + 2) * mean_coeff
        abs_err = np.abs(excess - target)
        columns = (log_products, excess, np.full_like(excess, target), abs_err, np.exp(log_g))
        rows = tuple(
            ReportRow(n, *row) for n, row in enumerate(zip(*(c.tolist() for c in columns)))
        )
        problem = g_problem(log_g, target)
        error_slope = error_slope_fit(rows)
        log_direct = dense()
    bad = np.flatnonzero(~(route_gaps(log_direct, log_products) <= ROUTE_AGREEMENT_TOL))
    if bad.size:
        n = bad[0]
        raise InvariantViolation(
            f"determinant routes disagree at n={n}: "
            f"direct {log_direct[n].tolist()!r} vs product {log_products[n].tolist()!r}",
            check="route-agreement",
        )
    if problem:
        raise InvariantViolation(f"G_n {problem}", check="g-monotone-bounded")
    return ConvergenceReport(
        symbol_id=symbol_id,
        route="product",
        mean_coeff=mean_coeff,
        target=target,
        error_slope=error_slope,
        meta={
            "symbol": format_symbol(s).replace("\n", ";"),
            "grid_m": m.quadrature_points,
            "n_max": n_max,
            "route_agreement_tol": fmt(ROUTE_AGREEMENT_TOL),
            "g_bound_tol": fmt(G_BOUND_TOL),
        },
        rows=rows,
    )


def symbol_checks(
    s: LaurentSymbol, n_max: int
) -> tuple[ConvergenceReport | None, list[tuple[str, bool, str]]]:
    """(the limit report or None, its checks): a failed report is one FAIL row,
    named after the check that failed."""
    try:
        report = strong_szego_report(s, n_max=n_max)
    except (PositivityError, InvariantViolation) as exc:
        name = "positivity" if isinstance(exc, PositivityError) else exc.check
        return None, [(name, False, str(exc))]
    final = report.rows[-1]
    return report, [
        ("positivity", True, "Cholesky factorization succeeded"),
        ("route-agreement", True, f"within {fmt(ROUTE_AGREEMENT_TOL)}"),
        ("g-monotone-bounded", True, "G_n nondecreasing and below the target"),
        (
            "limit-convergence",
            final.abs_err < LIMIT_CONVERGENCE_TOL,
            f"abs_err {fmt(final.abs_err)} at n={final.n}",
        ),
    ]


def moment_checks(m: MomentSequence, n_max: int) -> list[tuple[str, bool, str]]:
    """The invariant suite for a moment sequence to degree min(n_max, m.order); a failed
    positivity or recursion check ends the list, since the later checks read its result.

    The dense factor runs on a helper thread (:func:`_dense_route`) while the calling
    thread runs the recursion, whose error, if any, is held until the factor is judged:
    a positivity FAIL comes first and ends the list, as when the two ran in turn.
    """
    n_top = min(n_max, m.order - 1)
    traj = held = None
    with _dense_route(m, min(n_max, m.order)) as dense:
        try:
            traj = opuc.trajectory(m, n_top + 1) if n_top >= 0 else None
        except Exception as exc:  # judged once the factor has passed
            held = exc
        try:
            log_direct = dense()
        except PositivityError as exc:
            return [("positivity", False, str(exc))]
    checks = [("positivity", True, "Cholesky factorization succeeded")]
    if isinstance(held, SzegoLabError):
        return checks + [("recursion", False, str(held))]
    if held is not None:
        raise held
    if n_top < 0:
        return checks
    log_c0 = float(np.log(m.c0))
    alphas = np.asarray(traj.alphas)
    log_product, log_g = toeplitz.log_dn_and_g(alphas, n_top, log_c0)
    worst = float(np.max(route_gaps(log_direct[: n_top + 1], log_product)))  # nan propagates
    # log(D_{n+1}/D_n) from the α's, independent of norm-monotone's norm_sq
    log_ratios = log_c0 + toeplitz.log_rho_sums(alphas, n_top)[1]
    ratios_ok = bool(np.all(np.diff(log_ratios) <= MONOTONE_SLACK))
    problem = opuc.winding_check(traj)
    return checks + [
        ("recursion", True, f"ran to degree {n_top + 1}"),
        ("route-agreement", worst <= ROUTE_AGREEMENT_TOL, f"worst relative gap {fmt(worst)}"),
        ("alpha-bound", bool(np.all(np.abs(alphas) < 1.0)), "|alpha_n| < 1"),
        ("norm-monotone", bool(np.all(np.diff(traj.norm_sq) <= 1e-15)), "norms nonincreasing"),
        ("ratio-monotone", ratios_ok, "D_{n+1}/D_n nonincreasing"),
        ("g-monotone", g_problem(log_g) is None, "G_n nondecreasing"),
        ("zeros-in-disk", problem is None, problem or "all roots strictly inside"),
    ]


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
        values = np.polynomial.polynomial.polyval(quadrature.circle_points(theta), phi_level)
        return 1.0 / np.abs(values) ** 2

    new_m = moments_from_function(weight, n_alphas, start=8 * (n_alphas + level))
    new_alphas = opuc.run_to(new_m, n_alphas).alphas
    old_alphas = state.alphas

    mass = new_m.c0
    moment_gap = new_m.values[: level + 1] - mn.values[: level + 1]
    # hypot is Python's abs(complex); np.abs differs in the last bit for about a third
    moment_dev = float(np.max(np.hypot(moment_gap.real, moment_gap.imag)))
    head_dev = max((abs(new_alphas[j] - old_alphas[j]) for j in range(level)), default=0.0)
    tail_dev = max((abs(new_alphas[j]) for j in range(level, n_alphas)), default=0.0)
    for deviation, problem in (
        (abs(mass - 1.0), f"mass {mass!r} is not 1 within {BS_APPROX_TOL:g}"),
        (moment_dev, f"moments deviate by {moment_dev:g} through order {level}"),
        (head_dev, f"alphas below level deviate by {head_dev:g}"),
        (tail_dev, f"alphas from level on reach {tail_dev:g}, expected 0"),
    ):
        if deviation > BS_APPROX_TOL:
            raise InvariantViolation(f"approximant {problem}")
    grid_m = new_m.quadrature_points
    return BSApproxBundle(
        level=level,
        weight_values=np.asarray(weight(quadrature.angles(grid_m)), dtype=float),
        grid_m=grid_m,
        moments=new_m,
        mass=float(mass),
        moment_deviation=moment_dev,
        alpha_head_deviation=float(head_dev),
        alpha_tail_deviation=float(tail_dev),
    )


def bs_checks(s: LaurentSymbol, level: int) -> tuple[str, list[tuple[str, bool, str]]]:
    """bs-check's (JSON body, checks): the level-N approximant's diagnostics, or no
    body and one FAIL row naming the identity that :func:`bs_approximation` found broken."""
    try:
        bundle = bs_approximation(moments(s, level + 10), level)
    except InvariantViolation as exc:
        return "", [("bs-approximation", False, str(exc))]
    fields = ("level", "mass", "moment_deviation", "alpha_head_deviation",
              "alpha_tail_deviation", "grid_m")
    body = json_text({name: getattr(bundle, name) for name in fields})
    return body, [("bs-approximation", True, "")]


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
    the full G_n.  Each distinct weight takes one pass (:func:`_g_pass`): at a
    level of at least the bandwidth the Fourier truncation is the weight itself.
    Gap sequences are reported as diagnostics, with no asserted decay rate.
    """
    _, target = target_sum(s)
    alphas_full, _, log_g_full = _g_pass(moments(s, n_max + 1), n_max)

    truncated = gi_truncate(s, level)
    _, gi_target = target_sum(truncated)
    log_g_gi = log_g_full if truncated == s else _g_pass(moments(truncated, n_max + 1), n_max)[2]

    _, log_g_bs = toeplitz.log_dn_and_g(alphas_full[:level], n_max)

    for name, seq, bound in (
        ("full", log_g_full, target),
        ("fourier-truncated", log_g_gi, gi_target),
    ):
        problem = g_problem(seq, bound)
        if problem:
            raise InvariantViolation(f"G_n for the {name} weight {problem}")
    if np.any(log_g_bs > log_g_full + MONOTONE_SLACK):
        raise InvariantViolation("G_n of the BS truncation exceeds the full G_n")

    rows = tuple(
        GIBoundRow(n=n, log_g_full=full, log_g_bs=bs, log_g_gi=gi, gap_full=gap)
        for n, (full, bs, gi, gap) in enumerate(
            zip(
                log_g_full.tolist(),
                log_g_bs.tolist(),
                log_g_gi.tolist(),
                (target - log_g_full).tolist(),
            )
        )
    )
    return GIBoundReport(target=target, gi_target=gi_target, level=level, rows=rows)


# --------------------------------------------------------------------------
# derivative identities for the family w_t
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FHResult:
    n: int
    t: float
    h: float
    analytic: float
    finite_diff: float
    gap: float
    ratio: float  # gap(h)/gap(h/2); ≈ 4 when the h² term dominates


def _log_norm_sq_at(s: LaurentSymbol, t: float, n: int) -> float:
    m, _, _ = family_moments(s, t, n)
    return float(np.log(opuc.run_to(m, n).norm_sq))


def feynman_hellman_check(
    s: LaurentSymbol, n: int, t: float = 0.5, h: float = 1e-3
) -> FHResult:
    """Derivative of log ‖Φ_n‖² along w_t: analytic form vs central difference.

    The analytic side is ∫ |φ_n|² (L - ċ_t) w_t dθ/2π, the pairing of the
    moments of w_t with the coefficients of |φ_n|² (L - ċ_t); the finite-difference
    side recomputes the recursion at t ± h.  The ratio of gaps at h and h/2
    confirms the O(h²) accuracy of the central difference whenever the gap
    is above machine noise.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    if h == 0.0 or not math.isfinite(h):
        raise ValueError("the difference step h must be nonzero and finite")
    m, _, dlog_w = family_moments(s, t, n + s.bandwidth)
    phi_n = opuc.orthonormal(opuc.run_to(m, n))
    abs_sq = np.convolve(phi_n, np.conj(phi_n[::-1]))  # |φ_n|², degrees -n..n
    analytic = _pair(np.convolve(abs_sq, dlog_w), m)

    def central(step: float) -> float:
        upper = _log_norm_sq_at(s, t + step, n)
        lower = _log_norm_sq_at(s, t - step, n)
        return (upper - lower) / (2.0 * step)

    fd = central(h)
    gap = abs(fd - analytic)
    gap_half = abs(central(0.5 * h) - analytic)
    ratio = math.inf if gap_half == 0.0 else gap / gap_half
    return FHResult(n=n, t=t, h=h, analytic=analytic, finite_diff=fd, gap=gap, ratio=ratio)


def fh_checks(
    s: LaurentSymbol, n: int, t: float, h: float
) -> tuple[str, list[tuple[str, bool, str]]]:
    """fh-check's (JSON body, checks): the identity holds when the gap at h is machine
    noise, or when halving h divides it by about 4 (the central difference's h² term)."""
    result = feynman_hellman_check(s, n, t=t, h=h)
    noise_floor = 1e-10 * max(1.0, abs(result.analytic))
    ok = result.gap <= noise_floor or 3.0 <= result.ratio <= 5.0
    return json_text(asdict(result)), [("feynman-hellman", ok, "")]


@dataclass(frozen=True)
class IntegratedIdentityResult:
    log_dn_direct: float
    rhs: float
    residual: float
    limit_value: float
    limit_target: float
    limit_residual: float


def _radial_term(s: LaurentSymbol, t: float, n: int) -> float:
    """∫ (L - ċ_t) ∂_r|φ*_{n+1}(re^{iθ}; w_t)|²|_{r=1} w_t dθ/2π, as a moment pairing.

    With φ*_{n+1} = Σ_j a_j z^j, the coefficient of ∂_r|φ*_{n+1}|² at r = 1 and e^{idθ}
    is Σ_{j-k=d} (j+k) a_j conj(a_k) = x_d + conj(x_{-d}), where x_d = Σ_{j-k=d} j a_j conj(a_k).
    """
    m, _, dlog_w = family_moments(s, t, n + 1 + s.bandwidth)
    a = opuc.orthonormal_star(opuc.run_to(m, n + 1))
    x = np.convolve(np.arange(n + 2) * a, np.conj(a[::-1]))
    return _pair(np.convolve(x + np.conj(x[::-1]), dlog_w), m)


def integrated_identity_check(s: LaurentSymbol, n: int) -> IntegratedIdentityResult:
    """Integrated derivative identity for log D_n, plus its n → ∞ limit form.

    log D_n(w_1) must equal (n+1) log ‖Φ_{n+1}‖²_{t=1} minus the double
    integral over t and θ of (d/dt log w_t) ∂_r|φ*_{n+1}(re^{iθ}; w_t)|²|_{r=1} w_t;
    the t-integral uses 16-node Gauss–Legendre (the integrand is analytic in t),
    each θ-integral the moments of w_t (:func:`_radial_term`).  The limit form is
    the Parseval identity ∫ L · Re(Σ k l_k e^{ikθ}) dθ/2π = Σ k|l_k|².
    """
    m1, _, _ = family_moments(s, 1.0, n + 1)
    log_dn_direct = toeplitz.log_det_direct(toeplitz.assemble(m1, n))
    norm_term = (n + 1) * float(np.log(opuc.run_to(m1, n + 1).norm_sq))

    nodes, weights = quadrature.gauss_legendre(16, 0.0, 1.0)
    integral = sum(float(w) * _radial_term(s, float(t), n) for t, w in zip(nodes, weights))
    rhs = norm_term - integral

    _, target = target_sum(s)

    def limit_integrand(theta: np.ndarray) -> np.ndarray:
        z = quadrature.circle_points(theta)
        tail = np.asarray(s.coeffs, dtype=complex).copy()
        tail[0] = 0.0
        deriv_boundary = np.polynomial.polynomial.polyval(
            z, np.arange(len(tail)) * tail
        )
        return eval_log_weight_z(s, z) * np.real(deriv_boundary)

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
