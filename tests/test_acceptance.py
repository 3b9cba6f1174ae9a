"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with ``pytest -s`` to see
them on success) and enforces its runtime budget.  Expected constants come
from the independent oracles in conftest, never from the code under test.
"""

import math
import time

import numpy as np
import pytest

import szego_lab as sl
from szego_lab import opuc, toeplitz, verify

from conftest import bessel_i


def _report(number: int, label: str, failures, elapsed: float, budget: float):
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {number}: {label} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert not failures, f"criterion {number}: " + "; ".join(failures)
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"


@pytest.fixture(scope="module")
def suite_runs(suite):
    """Moments and recursion trajectories to degree 41 for every suite weight."""
    runs = {}
    for name, s in suite.items():
        m = sl.moments(s, 41)
        runs[name] = (s, m, opuc.trajectory(m, 41))
    return runs


def test_criterion_01_trivial_weight():
    start = time.monotonic()
    failures = []
    m = sl.moments(sl.make_symbol({}), 51)
    states = opuc.trajectory(m, 51)
    alphas = np.abs(np.asarray(states[-1].alphas))
    if not np.all(alphas < 1e-13):
        failures.append(f"max |alpha| = {alphas.max():.3g} >= 1e-13")
    for n in range(51):
        log_dn = toeplitz.log_det_product(states[n])
        if abs(log_dn) >= 1e-13:
            failures.append(f"|log D_{n}| = {abs(log_dn):.3g} >= 1e-13")
            break
    for n in (0, 25, 50):
        direct = toeplitz.log_det_direct(toeplitz.assemble(m, n))
        if abs(direct) >= 1e-13:
            failures.append(f"|direct log D_{n}| = {abs(direct):.3g} >= 1e-13")
    _report(1, "trivial weight has unit determinants and zero alphas",
            failures, time.monotonic() - start, 1.0)


def test_criterion_02_strong_szego_limit(cos_symbol):
    start = time.monotonic()
    failures = []
    target_value = math.exp(0.25)
    assert abs(target_value - 1.2840254167) < 1e-9
    report = sl.strong_szego_report(cos_symbol, 20)
    d1 = math.exp(report.rows[1].log_dn)
    d1_oracle = bessel_i(0) ** 2 - bessel_i(1) ** 2
    if abs(d1 - d1_oracle) > 1e-10:
        failures.append(f"D_1 = {d1!r} vs Bessel oracle {d1_oracle!r}")
    linear_err = abs(d1 - target_value)
    if not 5.0e-4 < linear_err < 5.2e-4:
        failures.append(f"|D_1 - e^0.25| = {linear_err:.4g} not ~5.1e-4")
    if report.rows[20].abs_err >= 1e-8:
        failures.append(f"log-scale error at n=20 is {report.rows[20].abs_err:.3g}")
    window = [r for r in report.rows if 2 <= r.n <= 15 and r.abs_err > 0.0]
    slope, _ = np.polyfit([r.n for r in window],
                          [math.log(r.abs_err) for r in window], 1)
    if slope >= 0.0:
        failures.append(f"log-error fit slope {slope:.3g} is not negative")
    _report(2, "determinant excess converges to exp(sum k|l_k|^2)",
            failures, time.monotonic() - start, 5.0)


def test_criterion_03_route_agreement(suite_runs):
    start = time.monotonic()
    failures = []
    for name, (s, m, states) in suite_runs.items():
        for n in range(41):
            direct = toeplitz.log_det_direct(toeplitz.assemble(m, n))
            product = toeplitz.log_det_product(states[n])
            if not verify.routes_agree(direct, product):
                failures.append(
                    f"{name} n={n}: direct {direct!r} vs product {product!r}"
                )
                break
    _report(3, "Cholesky and norm-product determinants agree to 1e-10",
            failures, time.monotonic() - start, 10.0)


def test_criterion_04_coulomb_gas(suite_runs, cos_symbol):
    start = time.monotonic()
    failures = []
    for name, (s, m, states) in suite_runs.items():
        for n in range(3):
            estimate = sl.exact_Dn(s, n)
            truth = math.exp(toeplitz.log_det_direct(toeplitz.assemble(m, n)))
            if abs(estimate.value - truth) > 1e-8 * truth:
                failures.append(f"{name} n={n}: gas {estimate.value!r} vs {truth!r}")
    mc = sl.mc_Dn(cos_symbol, 3, samples=100_000, seed=0)
    truth_3 = math.exp(toeplitz.log_det_product(suite_runs["cosine"][2][4]))
    if abs(mc.value - truth_3) > 3.0 * mc.std_err:
        failures.append(
            f"MC at n=3 missed: {mc.value} +/- {mc.std_err} vs {truth_3}"
        )
    _report(4, "gas integral reproduces the determinant (exact n<=2, MC n=3)",
            failures, time.monotonic() - start, 60.0)


def test_criterion_05_cd_identities(suite_runs):
    start = time.monotonic()
    failures = []
    n = 20
    rng = np.random.default_rng(100)
    for name, (s, m, states) in suite_runs.items():
        for _ in range(100):
            radius = 0.95 * np.sqrt(rng.uniform(size=2))
            phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
            z, zeta = radius * np.exp(1j * phase)
            reference = sl.kernel_sum(states, n, z, zeta)
            for variant in ("next", "current"):
                closed = sl.kernel_cd(states, n, z, zeta, variant)
                if abs(closed - reference) > 1e-11 * max(1.0, abs(reference)):
                    failures.append(f"{name} closed form {variant} deviates at ({z}, {zeta})")
        theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
        diag = sl.kernel_diag_boundary(states, n, theta)
        direct = np.array([
            np.real(sl.kernel_sum(states, n, np.exp(1j * t), np.exp(1j * t)))
            for t in theta
        ])
        worst = np.max(np.abs(diag - direct) / np.maximum(1.0, np.abs(direct)))
        if worst > 1e-10:
            failures.append(f"{name} diagonal identity deviates by {worst:.3g}")
        ratio = sl.normalization_check(states, s, n)
        if abs(ratio - 1.0) > 1e-9:
            failures.append(f"{name} normalization ratio {ratio!r}")
    _report(5, "kernel closed forms, boundary diagonal, and normalization",
            failures, time.monotonic() - start, 10.0)


def test_criterion_06_feynman_hellman(cos_symbol):
    start = time.monotonic()
    failures = []
    # n = 0: the mass-normalized family makes both sides identically zero,
    # so the gap sits at machine noise (well under any C h^2 envelope) and
    # carries no h^2 signal for the halving ratio
    r0 = sl.feynman_hellman_check(cos_symbol, 0, t=0.5, h=1e-3)
    if r0.gap > 1e-10:
        failures.append(f"n=0 gap {r0.gap:.3g} above the degenerate-noise bound")
    r3 = sl.feynman_hellman_check(cos_symbol, 3, t=0.5, h=1e-3)
    if r3.gap > 0.1 * (1e-3) ** 2:
        failures.append(f"n=3 gap {r3.gap:.3g} exceeds C h^2")
    if not 3.5 <= r3.ratio <= 4.5:
        failures.append(f"n=3 halving ratio {r3.ratio:.3g} outside [3.5, 4.5]")
    _report(6, "derivative identity matches central differences at O(h^2)",
            failures, time.monotonic() - start, 10.0)


def test_criterion_07_bs_approximation(cos_symbol):
    start = time.monotonic()
    failures = []
    m = sl.moments(cos_symbol, 20)
    bundle = sl.bs_approximation(m, 5)
    if bundle.moment_deviation > 1e-10:
        failures.append(f"moment deviation {bundle.moment_deviation:.3g}")
    if bundle.alpha_head_deviation > 1e-10:
        failures.append(f"alpha head deviation {bundle.alpha_head_deviation:.3g}")
    if bundle.alpha_tail_deviation > 1e-10:
        failures.append(f"alpha tail deviation {bundle.alpha_tail_deviation:.3g}")
    if abs(bundle.mass - 1.0) > 1e-10:
        failures.append(f"mass {bundle.mass!r}")
    _report(7, "level-5 approximant matches moments, alphas, and unit mass",
            failures, time.monotonic() - start, 5.0)


def test_criterion_08_alpha_decay_and_route(cos_symbol):
    start = time.monotonic()
    failures = []
    m = sl.moments(cos_symbol, 26)
    states = opuc.trajectory(m, 25)
    alphas = states[-1].alphas
    fit = sl.decay_fit(alphas)
    if fit.a_half <= 0.0:
        failures.append(f"fitted slope {-fit.a_half:.3g} is not negative")
    if fit.r2 <= 0.99:
        failures.append(f"fit quality r2 = {fit.r2:.5f} <= 0.99")
    for n, alpha in enumerate(alphas[:20]):
        if abs(alpha) > 1e-11:
            other = sl.alpha_from_D(states, cos_symbol, n)
            if abs(other - alpha) > 1e-8:
                failures.append(f"alpha routes differ at n={n}: {other!r} vs {alpha!r}")
    _report(8, "exponential alpha decay and agreement of both alpha routes",
            failures, time.monotonic() - start, 5.0)


def test_criterion_09_monotonicity_suite(suite_runs):
    start = time.monotonic()
    failures = []
    for name, (s, m, states) in suite_runs.items():
        norms = np.array([st.norm_sq for st in states])
        if not np.all(np.diff(norms) <= 0.0):
            failures.append(f"{name}: norms are not nonincreasing")
        alphas = np.abs(np.asarray(states[-1].alphas))
        if not np.all(alphas < 1.0):
            failures.append(f"{name}: some |alpha| >= 1")
        _, ratio, g_n = toeplitz.ledger(states[-1], 40)
        log_ratio = np.log(ratio)
        if not np.all(np.diff(log_ratio) <= 1e-12):
            failures.append(f"{name}: D_(n+1)/D_n is not nonincreasing")
        log_g = np.log(g_n)
        if not np.all(np.diff(log_g) >= -1e-12):
            failures.append(f"{name}: G_n is not nondecreasing")
        for st in states[1:]:
            _, inside = opuc.zeros_in_disk(st.phi)
            if not inside:
                failures.append(f"{name}: roots escape the disk at degree {st.n}")
                break
    _report(9, "norm/ratio/G monotonicity, |alpha|<1, zeros interior (n<=40)",
            failures, time.monotonic() - start, 10.0)


def test_criterion_10_disk_integral(two_band_symbol):
    start = time.monotonic()
    failures = []
    for r in (0.3, 0.6, 0.9):
        expected = 1 * 0.2**2 * r**2 + 2 * 0.1**2 * r**4
        got = sl.disk_integral_check(two_band_symbol, r)
        if abs(got - expected) > 1e-8 * expected:
            failures.append(f"r={r}: {got!r} vs {expected!r}")
    _report(10, "area integral of |d/dz log D|^2 equals the power sum",
            failures, time.monotonic() - start, 5.0)
