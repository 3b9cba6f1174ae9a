"""End-to-end verification suites: limit report, approximants, derivative identities."""

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
from szego_lab import toeplitz, verify
from szego_lab.symbol import MomentSequence
from szego_lab.verify import default_suite, family_member, scaled_symbol

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

    def test_direct_route_report_matches_product(self, cos_symbol):
        a = strong_szego_report(cos_symbol, 10, route="direct")
        b = strong_szego_report(cos_symbol, 10, route="product")
        for ra, rb in zip(a.rows, b.rows):
            assert ra.log_dn == pytest.approx(rb.log_dn, abs=1e-12)

    def test_coulomb_route_low_orders(self, cos_symbol):
        a = strong_szego_report(cos_symbol, 2, route="coulomb")
        b = strong_szego_report(cos_symbol, 2, route="product")
        for ra, rb in zip(a.rows, b.rows):
            assert ra.log_dn == pytest.approx(rb.log_dn, rel=1e-8)
        with pytest.raises(ValueError):
            strong_szego_report(cos_symbol, 10, route="coulomb")

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
            led = ledger(state, 40)
            assert abs(math.log(led.rows[-1].g_n) - target) < 1e-8, name

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


class TestFamily:
    def test_member_is_probability_normalized(self, cos_symbol):
        member, c_t = family_member(cos_symbol, 0.5)
        m = moments(member, 0)
        assert m.c0 == pytest.approx(1.0, abs=1e-14)
        assert c_t == pytest.approx(math.log(bessel_i(0, 0.5)), abs=1e-13)

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

    def test_rejects_large_n(self, cos_symbol):
        with pytest.raises(ValueError):
            integrated_identity_check(cos_symbol, 31)
