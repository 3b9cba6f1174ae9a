"""Property tests over random small symbols: the O(n) determinant sums, the recursion,
the log-weight's Horner loop, seeded gas-integral re-runs, the checks that
``verify`` prints and the bytes it prints them in."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from szego_lab import assemble, cli, log_dn_and_g, make_symbol, mc_Dn, moments, run_to
from szego_lab import strong_szego_report, trajectory, verify
from szego_lab.coulomb import MC_MIN_SAMPLES
from szego_lab.symbol import MomentSequence, eval_log_weight_z, hermitian_strip

from conftest import relative_gap_reference, same_bits, same_gaps

PROPERTY_SETTINGS = settings(
    max_examples=25, deadline=None, derandomize=True, database=None
)

coefficient = st.builds(
    complex,
    st.floats(-0.4, 0.4, allow_nan=False),
    st.floats(-0.4, 0.4, allow_nan=False),
)


@st.composite
def symbols(draw):
    """A log-weight with l_0 in [-1, 1] and one to three small coefficients."""
    tail = draw(st.lists(coefficient, min_size=1, max_size=3))
    coeffs = {0: draw(st.floats(-1.0, 1.0, allow_nan=False))}
    for k, value in enumerate(tail, start=1):
        coeffs[k] = value
        coeffs[-k] = value.conjugate()
    return make_symbol(coeffs)


#: any finite complex value, signed zeros included
any_complex = st.builds(
    complex,
    st.floats(-10.0, 10.0, allow_nan=False),
    st.floats(-10.0, 10.0, allow_nan=False),
)


@st.composite
def hermitian_data(draw):
    """c_0 > 0 with an imaginary residue inside the tolerance, then up to twelve
    arbitrary c_k: Hermitian Toeplitz data, not necessarily positive definite."""
    c0 = complex(draw(st.floats(1e-3, 10.0)), draw(st.floats(-1e-14, 1e-14)))
    return MomentSequence([c0, *draw(st.lists(any_complex, max_size=12))])


def per_degree_log_dn(alphas, n: int, log_c0: float) -> float:
    """(n+1) log c_0 + Σ_{j<n} (n-j) log(1-|α_j|²), one degree at a time."""
    total = (n + 1) * log_c0
    for j, alpha in enumerate(alphas[:n]):
        total += (n - j) * math.log1p(-abs(alpha) ** 2)
    return total


def per_degree_log_g(alphas, n: int) -> float:
    """-Σ_j (min(n, j)+1) log(1-|α_j|²), one degree at a time."""
    return -sum(
        (min(n, j) + 1) * math.log1p(-abs(alpha) ** 2) for j, alpha in enumerate(alphas)
    )


def close(a: float, b: float) -> bool:
    return abs(a - b) <= max(1e-12 * max(abs(a), abs(b)), 1e-13)


@PROPERTY_SETTINGS
@given(s=symbols(), n_max=st.integers(0, 30), level=st.integers(0, 40))
def test_prefix_sums_match_the_per_degree_formulas(s, n_max, level):
    m = moments(s, n_max + 1)
    alphas = run_to(m, n_max + 1).alphas
    log_c0 = math.log(m.c0)
    log_dn, log_g = log_dn_and_g(alphas, n_max, log_c0)
    # a cut list of α's is the Bernstein–Szegő measure: the rest are zero
    _, log_g_cut = log_dn_and_g(alphas[:level], n_max)
    for n in range(n_max + 1):
        assert close(log_dn[n], per_degree_log_dn(alphas, n, log_c0)), n
        assert close(log_g[n], per_degree_log_g(alphas, n)), n
        assert close(log_g_cut[n], per_degree_log_g(alphas[:level], n)), n


@PROPERTY_SETTINGS
@given(s=symbols(), n=st.integers(0, 30))
def test_run_to_is_the_last_state_of_the_trajectory(s, n):
    m = moments(s, n)
    last = trajectory(m, n)[-1]
    state = run_to(m, n)
    assert state.n == last.n == n
    assert state.alphas == last.alphas
    assert state.norm_sq == last.norm_sq
    assert np.array_equal(state.phi.coeffs, last.phi.coeffs)
    assert np.array_equal(state.phi_star, last.phi_star)


@PROPERTY_SETTINGS
@given(
    s=symbols(),
    theta=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=16),
)
def test_log_weight_is_the_direct_laurent_sum(s, theta):
    z = np.exp(1j * np.asarray(theta))
    direct = sum(s.coeff(k) * z**k for k in range(-s.bandwidth, s.bandwidth + 1))
    assert np.max(np.abs(eval_log_weight_z(s, z) - direct.real)) <= 1e-13


@settings(PROPERTY_SETTINGS, max_examples=8)
@given(s=symbols(), n=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
def test_seeded_gas_estimate_reruns_are_identical(s, n, seed):
    for workers in (1, 2):
        first = mc_Dn(s, n, MC_MIN_SAMPLES, seed, workers=workers)
        again = mc_Dn(s, n, MC_MIN_SAMPLES, seed, workers=workers)
        assert (first.value, first.std_err) == (again.value, again.std_err), workers


@PROPERTY_SETTINGS
@given(s=symbols(), n_max=st.integers(0, 30))
def test_every_moment_check_passes(s, n_max):
    checks = verify.moment_checks(moments(s, n_max + 1), n_max)
    assert [name for name, ok, _ in checks if not ok] == [], checks
    assert len(checks) == 8


@PROPERTY_SETTINGS
@given(s=symbols(), n_max=st.integers(0, 30))
def test_the_limit_report_holds_its_invariants(s, n_max):
    # raises unless the routes agree, |α| < 1, and G_n is nondecreasing and bounded
    report = strong_szego_report(s, n_max)
    assert [r.n for r in report.rows] == list(range(n_max + 1))


def coeff_flags(s) -> list[str]:
    """``--coeff`` flags that store the coefficients of ``s`` exactly."""
    flags = [f"--coeff=0={s.mean!r}"]
    for k in range(1, s.bandwidth + 1):
        value = complex(s.coeffs[k])
        flags.append(f"--coeff={k}={value.real!r},{value.imag!r}")
    return flags


def cli_stdout(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(s=symbols(), n_max=st.integers(0, 30))
def test_verify_reruns_print_the_same_bytes(s, n_max):
    flags = coeff_flags(s)
    assert cli._symbol_from_args(cli.build_parser().parse_args(["verify", *flags])) == s
    with tempfile.TemporaryDirectory() as tmp:
        csv = str(Path(tmp) / "moments.csv")
        assert cli.main(["moments", *flags, "--nmax", str(n_max + 1), "--out", csv]) == 0
        for argv in (
            ["verify", *flags, "--nmax", str(n_max)],
            ["verify", *flags, "--nmax", str(n_max), "--format", "json"],
            ["verify", "--moments", csv, "--nmax", str(n_max)],
        ):
            first = cli_stdout(argv)
            assert first[1] and first == cli_stdout(argv), argv


@PROPERTY_SETTINGS
@given(m=hermitian_data(), data=st.data())
def test_assemble_reads_every_entry_from_its_moment(m, data):
    n = data.draw(st.integers(0, m.order))
    t = assemble(m, n)
    expected = np.array([[m.moment(j - i) for j in range(n + 1)] for i in range(n + 1)])
    assert t.flags.c_contiguous
    assert same_bits(t.view(float), expected.view(float))


@PROPERTY_SETTINGS
@given(x=st.lists(any_complex, min_size=1, max_size=13))
def test_hermitian_strip_puts_x_k_at_n_plus_k_and_its_conjugate_at_n_minus_k(x):
    x = np.array(x)
    n = len(x) - 1
    strip = hermitian_strip(x)
    assert strip.shape == (2 * n + 1,)
    assert same_bits(strip[n:].view(float), x.view(float))
    assert same_bits(strip[:n][::-1].copy().view(float), np.conj(x[1:]).view(float))


any_float = st.floats(allow_nan=True, allow_infinity=True)
#: a value and a second one near it, where the agreement floor and tolerance bite
near_pair = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e-9, 1e-9)).map(
    lambda pair: (pair[0], pair[0] + pair[1])
)


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(pairs=st.lists(st.one_of(st.tuples(any_float, any_float), near_pair), min_size=1))
def test_route_gaps_are_the_scalar_rule_value_by_value(pairs):
    a, b = (np.array(col) for col in zip(*pairs))
    expected = [relative_gap_reference(x, y) for x, y in pairs]
    assert same_gaps(verify.route_gaps(a, b), expected)
    agree = [gap <= verify.ROUTE_AGREEMENT_TOL for gap in expected]
    assert [verify.routes_agree(x, y) for x, y in pairs] == agree
