"""End-to-end verification suites: limit report, approximants, derivative identities."""

import json
import math

import numpy as np
import pytest

from szego_lab import (
    InvariantViolation,
    PositivityError,
    bs_approximation,
    bs_log_weight,
    feynman_hellman_check,
    gi_bound_check,
    integrated_identity_check,
    make_symbol,
    moments,
    run_to,
    strong_szego_report,
)
from szego_lab import cdkernel, opuc, quadrature, toeplitz, verify
from szego_lab.symbol import LaurentSymbol, MomentSequence, eval_log_weight, eval_weight
from szego_lab.verify import default_suite, family_moments, scaled_symbol

from conftest import bessel_i, geometric_moments


class TestSuiteSymbols:
    def test_suite_has_the_five_standing_weights(self):
        names = [name for name, _ in default_suite()]
        assert names == ["lebesgue", "cosine", "two-band", "offset", "bernstein-szego"]

    def test_bs_log_weight_reproduces_geometric_moments(self, bs_symbol):
        m = moments(bs_symbol, 10)
        for n in range(11):
            assert abs(m.moment(n) - 0.5**n) < 1e-13

    def test_bs_log_weight_target_is_minus_log_rho_sq(self, bs_symbol):
        from szego_lab import target_sum

        mean, tail = target_sum(bs_symbol)
        assert mean == pytest.approx(math.log(0.75), abs=1e-15)
        assert tail == pytest.approx(-math.log(0.75), abs=1e-14)


class TestStrongSzegoReport:
    def test_zero_weight_rows_are_exact(self):
        rep = strong_szego_report(make_symbol({}), 10)
        assert rep.target == 0.0
        for row in rep.rows:
            assert abs(row.abs_err) < 1e-13
            assert row.g_n == pytest.approx(1.0, abs=1e-13)

    def test_cosine_low_order_determinant(self, cos_symbol):
        rep = strong_szego_report(cos_symbol, 5)
        d1 = math.exp(rep.rows[1].log_dn)
        assert d1 == pytest.approx(bessel_i(0) ** 2 - bessel_i(1) ** 2, rel=1e-12)
        linear_err = abs(d1 - math.exp(0.25))
        assert linear_err == pytest.approx(5.1e-4, abs=2e-5)

    def test_cosine_excess_converges(self, cos_symbol):
        rep = strong_szego_report(cos_symbol, 20)
        assert rep.rows[-1].abs_err < 1e-8
        assert rep.error_slope is not None and rep.error_slope < 0.0

    def test_error_decreases_while_above_noise(self, two_band_symbol):
        rep = strong_szego_report(two_band_symbol, 25)
        errs = [row.abs_err for row in rep.rows]
        for prev, nxt in zip(errs, errs[1:]):
            if prev > 1e-12 and nxt > 1e-12:
                assert nxt < prev

    def test_offset_symbol_mean_is_subtracted(self, suite):
        rep = strong_szego_report(suite["offset"], 30)
        assert rep.mean_coeff == pytest.approx(0.3)
        assert rep.rows[-1].abs_err < 1e-9

    def test_indefinite_moments_raise_positivity_error(self, cos_symbol, monkeypatch):
        # the 3×3 section of c = (1, 0.9, 0, ...) has determinant 1 - 2·0.81 < 0
        bad = MomentSequence((1.0, 0.9, 0.0, 0.0, 0.0))
        monkeypatch.setattr(verify, "moments", lambda s, n: bad)
        with pytest.raises(PositivityError):
            strong_szego_report(cos_symbol, 3)

    def test_route_disagreement_is_caught(self, cos_symbol, monkeypatch):
        minors = toeplitz.log_det_minors
        monkeypatch.setattr(
            toeplitz, "log_det_minors", lambda m, n: minors(m, n) * (1.0 + 1e-8)
        )
        with pytest.raises(InvariantViolation, match="routes disagree at n=0"):
            strong_szego_report(cos_symbol, 5)

    def test_route_gap_rejects_every_nonfinite_value(self):
        inf, nan = math.inf, math.nan
        for a, b in [(0.0, nan), (nan, 1.0), (inf, 1.0), (1.0, -inf), (inf, inf), (-inf, inf)]:
            assert math.isnan(verify._relative_gap(a, b)), (a, b)
            assert not verify.routes_agree(a, b), (a, b)
        assert verify.routes_agree(0.0, 1e-14) and verify.routes_agree(1.0, 1.0 + 1e-11)
        assert not verify.routes_agree(1.0, 1.0 + 1e-9)

    @pytest.mark.parametrize(
        "shift, match",
        [(-1e-9, "G_n is not nondecreasing"), (1e-6, "G_n exceeds the limit")],
    )
    def test_g_rule_failures_raise(self, cos_symbol, monkeypatch, shift, match):
        real = toeplitz.log_dn_and_g

        def broken(alphas, n_max, log_c0=0.0):
            log_dn, log_g = real(alphas, n_max, log_c0)
            return log_dn, log_g + shift * np.arange(n_max + 1)

        monkeypatch.setattr(toeplitz, "log_dn_and_g", broken)
        with pytest.raises(InvariantViolation, match=match):
            strong_szego_report(cos_symbol, 5)

    def test_g_problem_names_the_first_broken_rule(self):
        assert verify.g_problem(np.array([0.0, 0.1, 0.1]), 0.1) is None
        assert verify.g_problem(np.array([0.0, 0.1, 0.1 - 1e-11])) == "is not nondecreasing"
        assert verify.g_problem(np.array([0.0, 0.2]), 0.1).startswith("exceeds the limit")
        assert verify.g_problem(np.array([0.0, 0.2])) is None  # no bound given
        assert verify.g_problem(np.array([0.0, math.nan])) == "is not nondecreasing"
        assert verify.g_problem(np.array([math.nan]), 0.1).startswith("exceeds the limit")

    def test_symbol_checks_carry_the_report_or_one_failure(self, cos_symbol, monkeypatch):
        report, checks = verify.symbol_checks(cos_symbol, 20)
        assert report.rows[-1].n == 20
        assert [name for name, _, _ in checks] == [
            "positivity", "route-agreement", "g-monotone-bounded", "limit-convergence"
        ]
        assert all(ok for _, ok, _ in checks)
        _, checks = verify.symbol_checks(cos_symbol, 0)
        assert checks[-1][1] is False  # abs_err at n = 0 is above LIMIT_CONVERGENCE_TOL
        minors = toeplitz.log_det_minors
        monkeypatch.setattr(
            toeplitz, "log_det_minors", lambda m, n: minors(m, n) * (1.0 + 1e-8)
        )
        report, checks = verify.symbol_checks(cos_symbol, 5)
        assert report is None
        assert len(checks) == 1 and checks[0][:2] == ("route-agreement", False)

    def test_csv_and_json_forms(self, cos_symbol):
        rep = strong_szego_report(cos_symbol, 4)
        text = rep.to_csv()
        assert text.startswith("# schema=1")
        assert "n,log_dn,excess,target,abs_err,g_n" in text
        parsed = rep.to_json_dict()
        assert parsed["target"] == 0.25
        assert len(parsed["rows"]) == 5


class TestEquivalenceAtTruncation:
    def test_tail_sums_and_g_limit_agree(self, suite):
        # Σ n|α_n|² finite together with Σ k|l_k|², and the G-limit hits the target
        for name, s in suite.items():
            from szego_lab import target_sum
            from szego_lab.toeplitz import ledger

            m = moments(s, 41)
            state = run_to(m, 41)
            mags = np.abs(np.asarray(state.alphas))
            weighted_tail = float(np.sum(np.arange(len(mags)) * mags**2))
            assert np.isfinite(weighted_tail)
            _, target = target_sum(s)
            _, _, g_n = ledger(state, 40)
            assert abs(math.log(g_n[-1]) - target) < 1e-8, name

    def test_norm_excess_vanishes_quickly(self, suite):
        # (n+1)(log ||Phi_{n+1}||^2 - l_0) → 0 once the α's hit the floor
        for s in suite.values():
            m = moments(s, 46)
            state = run_to(m, 46)
            assert abs((state.n) * (math.log(state.norm_sq) - s.mean)) < 1e-8


class TestBSApproximation:
    def test_lebesgue_approximant_is_uniform(self):
        m = moments(make_symbol({}), 16)
        bundle = bs_approximation(m, 3)
        assert np.max(np.abs(bundle.weight_values - 1.0)) < 1e-12
        assert bundle.mass == pytest.approx(1.0, abs=1e-12)

    def test_geometric_level_one_weight_is_closed_form(self):
        m = geometric_moments(0.5, 15)
        bundle = bs_approximation(m, 1)
        theta = 2.0 * np.pi * np.arange(bundle.grid_m) / bundle.grid_m
        expected = 0.75 / np.abs(1.0 - 0.5 * np.exp(1j * theta)) ** 2
        assert np.max(np.abs(bundle.weight_values - expected)) < 1e-12
        for j in range(2):
            assert abs(bundle.moments.moment(j) - 0.5**j) < 1e-12

    def test_cosine_level_five(self, cos_symbol):
        m = moments(cos_symbol, 20)
        bundle = bs_approximation(m, 5)
        assert bundle.mass == pytest.approx(1.0, abs=1e-10)
        assert bundle.moment_deviation < 1e-10
        assert bundle.alpha_head_deviation < 1e-10
        assert bundle.alpha_tail_deviation < 1e-10

    def test_rejects_level_zero(self, cos_symbol):
        with pytest.raises(ValueError):
            bs_approximation(moments(cos_symbol, 5), 0)


class TestGIBounds:
    def test_zero_weight_everything_is_flat(self):
        rep = gi_bound_check(make_symbol({}), 1, 10)
        assert rep.target == 0.0
        for row in rep.rows:
            assert abs(row.log_g_full) < 1e-12
            assert abs(row.gap_full) < 1e-12

    def test_truncation_at_bandwidth_changes_nothing(self, cos_symbol):
        rep = gi_bound_check(cos_symbol, 1, 25)
        assert rep.gi_target == rep.target
        for row in rep.rows:
            assert row.log_g_gi == pytest.approx(row.log_g_full, abs=1e-12)

    def test_two_band_truncation_target_is_strictly_smaller(self, two_band_symbol):
        rep = gi_bound_check(two_band_symbol, 1, 25)
        assert rep.gi_target == pytest.approx(0.04, abs=1e-15)
        assert rep.gi_target < rep.target
        final = rep.rows[-1]
        assert final.log_g_gi < final.log_g_full
        assert final.gap_full < 1e-9

    def test_bs_column_is_dominated_by_full(self, two_band_symbol):
        rep = gi_bound_check(two_band_symbol, 2, 20)
        for row in rep.rows:
            assert row.log_g_bs <= row.log_g_full + 1e-12

    @staticmethod
    def moment_passes(monkeypatch) -> list:
        """The symbols that ``verify.moments`` is called with, in call order."""
        calls = []

        def counted(s, n):
            calls.append(s)
            return moments(s, n)

        monkeypatch.setattr(verify, "moments", counted)
        return calls

    @pytest.mark.parametrize("level", [1, 2, 8])
    def test_one_pass_at_or_above_the_bandwidth(self, cos_symbol, monkeypatch, level):
        calls = self.moment_passes(monkeypatch)
        rep = gi_bound_check(cos_symbol, level, 30)
        assert calls == [cos_symbol]
        assert [r.log_g_gi for r in rep.rows] == [r.log_g_full for r in rep.rows]

    @pytest.mark.parametrize("level", [0, 1])
    def test_two_passes_below_the_bandwidth(self, two_band_symbol, monkeypatch, level):
        calls = self.moment_passes(monkeypatch)
        gi_bound_check(two_band_symbol, level, 20)
        assert calls == [two_band_symbol, verify.gi_truncate(two_band_symbol, level)]

    def test_decreasing_g_of_the_truncated_weight_is_named(self, two_band_symbol, monkeypatch):
        truncated = verify.gi_truncate(two_band_symbol, 1)
        real = verify._g_pass

        def broken(s, n_max):
            m, alphas, log_dn, log_g = real(s, n_max)
            if s == truncated:
                log_g = log_g - 1e-9 * np.arange(n_max + 1)
            return m, alphas, log_dn, log_g

        monkeypatch.setattr(verify, "_g_pass", broken)
        with pytest.raises(
            InvariantViolation, match="fourier-truncated weight is not nondecreasing"
        ):
            gi_bound_check(two_band_symbol, 1, 20)


def pointwise_family(s, t):
    """(symbol of w_t, ċ_t), each normalization integral by its own circle quadrature."""
    st = scaled_symbol(s, t)
    mass, _ = quadrature.adaptive_circle_mean(
        lambda th: eval_weight(st, th), start=8 * (s.bandwidth + 1)
    )
    c_t = math.log(mass.real)
    numer, _ = quadrature.adaptive_circle_mean(
        lambda th: eval_log_weight(s, th) * eval_weight(st, th), start=8 * (s.bandwidth + 1)
    )
    shifted = LaurentSymbol((complex(st.coeffs[0].real - c_t),) + tuple(st.coeffs[1:]))
    return shifted, numer.real / math.exp(c_t)


def pointwise_mean(s, t, poly_term, start):
    """∫ P (L - ċ_t) w_t dθ/2π on the doubling grid, with P = poly_term(symbol of w_t, z)."""
    member, c_dot = pointwise_family(s, t)

    def integrand(theta):
        score = np.asarray(eval_log_weight(s, theta), dtype=float) - c_dot
        return poly_term(member, np.exp(1j * theta)) * score * eval_weight(member, theta)

    return quadrature.adaptive_circle_mean(integrand, start=start)[0].real


class TestFamily:
    def test_member_is_probability_normalized(self, cos_symbol):
        m, c_t, _ = family_moments(cos_symbol, 0.5, 4)
        assert m.c0 == 1.0
        assert c_t == pytest.approx(math.log(bessel_i(0, 0.5)), abs=1e-13)

    def test_score_is_the_log_weight_less_the_bessel_ratio(self, cos_symbol):
        # d/dt log w_t = L - ċ_t with ċ_t = ∫ cos θ e^{cos θ/2} / ∫ e^{cos θ/2} = I_1/I_0
        _, _, dlog_w = family_moments(cos_symbol, 0.5, 4)
        assert dlog_w[0] == dlog_w[2] == 0.5
        c_dot = -dlog_w[1].real
        assert c_dot == pytest.approx(bessel_i(1, 0.5) / bessel_i(0, 0.5), abs=1e-13)

    def test_scaling(self, cos_symbol):
        st = scaled_symbol(cos_symbol, 0.5)
        assert st.coeff(1) == 0.25


class TestFeynmanHellman:
    def test_zero_weight_both_sides_vanish(self):
        r = feynman_hellman_check(make_symbol({}), 2, t=0.5)
        assert abs(r.analytic) < 1e-12
        assert abs(r.finite_diff) < 1e-10

    def test_cosine_degree_three_has_h_squared_gap(self, cos_symbol):
        r = feynman_hellman_check(cos_symbol, 3, t=0.5, h=1e-3)
        assert r.gap <= 1e-4 * max(1.0, abs(r.analytic))
        assert 3.5 <= r.ratio <= 4.5

    def test_degree_zero_is_identically_zero(self, cos_symbol):
        # the family is mass-normalized, so ||Phi_0||^2 ≡ 1 and both sides
        # vanish; the gap sits at machine noise rather than scaling with h²
        r = feynman_hellman_check(cos_symbol, 0, t=0.5, h=1e-3)
        assert abs(r.analytic) < 1e-12
        assert r.gap < 1e-10

    def test_two_band_degree_three(self, two_band_symbol):
        r = feynman_hellman_check(two_band_symbol, 3, t=0.5, h=1e-3)
        assert r.gap <= 1e-4 * max(1.0, abs(r.analytic))
        assert 3.5 <= r.ratio <= 4.5

    @pytest.mark.parametrize("n", [3, 10])
    def test_analytic_side_matches_the_pointwise_quadrature(self, cos_symbol, two_band_symbol, n):
        def abs_sq(member, z):
            phi_n = opuc.orthonormal(run_to(moments(member, n), n))
            return np.abs(np.polynomial.polynomial.polyval(z, phi_n)) ** 2

        for s in (cos_symbol, two_band_symbol):
            reference = pointwise_mean(s, 0.5, abs_sq, start=8 * (n + s.bandwidth + 1))
            assert feynman_hellman_check(s, n).analytic == pytest.approx(reference, abs=1e-13)

    def test_t_range_is_enforced(self, cos_symbol):
        with pytest.raises(ValueError):
            feynman_hellman_check(cos_symbol, 1, t=1.5)


class TestIntegratedIdentity:
    def test_zero_weight_residuals_vanish(self):
        res = integrated_identity_check(make_symbol({}), 4)
        assert res.residual < 1e-12
        assert res.limit_residual < 1e-13

    def test_cosine_parseval_form(self, cos_symbol):
        res = integrated_identity_check(cos_symbol, 2)
        assert res.limit_target == 0.25
        assert res.limit_residual < 1e-12

    def test_cosine_degree_ten(self, cos_symbol):
        res = integrated_identity_check(cos_symbol, 10)
        assert res.residual < 1e-6

    def test_two_band_moderate_degree(self, two_band_symbol):
        res = integrated_identity_check(two_band_symbol, 8)
        assert res.residual < 1e-6
        assert res.limit_residual < 1e-12

    def test_degree_forty_residual(self, cos_symbol, two_band_symbol):
        # no degree cap: the identity holds to rounding past n = 30
        for s in (cos_symbol, two_band_symbol):
            res = integrated_identity_check(s, 40)
            assert res.residual <= 1e-14 * abs(res.log_dn_direct)

    def test_degree_three_hundred_residual(self, cos_symbol):
        for s in (cos_symbol, make_symbol({1: 2.0, -1: 2.0})):
            res = integrated_identity_check(s, 300)
            assert res.residual <= 1e-14 * abs(res.log_dn_direct)

    def test_node_matches_the_pointwise_quadrature(self, two_band_symbol):
        n, t = 1, 0.3

        def radial(member, z):
            star = opuc.orthonormal_star(run_to(moments(member, n + 1), n + 1))
            return cdkernel._radial_derivative_sq(star, z)

        reference = pointwise_mean(two_band_symbol, t, radial, start=8 * (n + 4))
        assert verify._radial_term(two_band_symbol, t, n) == pytest.approx(reference, abs=1e-13)


#: l_1 = 0.3 + 0.2i, l_2 = 0.1 - 0.05i, as `--coeff 1=0.3,0.2 --coeff 2=0.1,-0.05`
COMPLEX = LaurentSymbol((0j, 0.3 + 0.2j, 0.1 - 0.05j))


class TestCheckRows:
    """bs-check's and fh-check's (body, checks), called without the CLI."""

    def test_bs_checks_pass_on_the_suite_and_a_complex_symbol(self, suite):
        for name, s in [*suite.items(), ("complex", COMPLEX)]:
            body, checks = verify.bs_checks(s, 5)
            assert list(json.loads(body)) == [
                "level", "mass", "moment_deviation", "alpha_head_deviation",
                "alpha_tail_deviation", "grid_m",
            ], name
            assert checks == [("bs-approximation", True, "")], name

    def test_bs_checks_fail_row_carries_the_approximant_message(self):
        # at l_1 = 7 and N = 12 the approximant's α's below the level are off by ~1e-6
        body, checks = verify.bs_checks(make_symbol({1: 7.0, -1: 7.0}), 12)
        assert body == ""
        [(name, ok, detail)] = checks
        assert (name, ok) == ("bs-approximation", False)
        prefix = "approximant alphas below level deviate by "
        assert detail.startswith(prefix)
        assert float(detail[len(prefix):]) > verify.BS_APPROX_TOL

    def test_fh_checks_pass_on_the_suite_and_a_complex_symbol(self, suite):
        for name, s in [*suite.items(), ("complex", COMPLEX)]:
            body, checks = verify.fh_checks(s, 3, 0.5, 1e-3)
            payload = json.loads(body)
            assert list(payload) == ["n", "t", "h", "analytic", "finite_diff", "gap", "ratio"]
            assert (payload["n"], payload["t"], payload["h"]) == (3, 0.5, 1e-3)
            assert checks == [("feynman-hellman", True, "")], name
