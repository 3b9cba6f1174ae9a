"""Szegő function: boundary modulus, reciprocal series, α-extraction, decay."""

import math

import numpy as np
import pytest

from szego_lab import (
    InsufficientDataError,
    alpha_from_D,
    build_szego,
    decay_fit,
    disk_integral_check,
    eval_D,
    eval_weight,
    inverse_coeffs,
    make_symbol,
    moments,
    phi_star_convergence,
    trajectory,
)
from szego_lab.szego_fn import boundary_l2_error, series_coeffs
from szego_lab.toeplitz import ledger
from szego_lab.opuc import run_to

from conftest import convolve_series


class TestBuildAndEval:
    def test_zero_weight_gives_constant_one(self):
        d = build_szego(make_symbol({}))
        assert d.d0 == 1.0
        for z in (0.0, 0.5 + 0.2j, 1.0j):
            assert eval_D(d, z) == pytest.approx(1.0, abs=1e-15)

    def test_cosine_is_exp_half_z(self, cos_symbol):
        d = build_szego(cos_symbol)
        assert d.d0 == 1.0
        assert eval_D(d, 1.0) == pytest.approx(math.exp(0.5), rel=1e-15)

    def test_constant_coefficient_sets_d0(self):
        d = build_szego(make_symbol({0: 0.4}))
        assert d.d0 == pytest.approx(math.exp(0.2), rel=1e-15)

    def test_boundary_modulus_is_the_weight(self, suite):
        theta = 2.0 * np.pi * np.arange(512) / 512
        z = np.exp(1j * theta)
        for s in suite.values():
            d = build_szego(s)
            boundary = np.abs(eval_D(d, z)) ** 2
            w = eval_weight(s, theta)
            assert np.max(np.abs(boundary - w) / w) < 1e-10


class TestInverseSeries:
    def test_zero_weight(self):
        d = build_szego(make_symbol({}))
        assert np.allclose(inverse_coeffs(d, 4), [1, 0, 0, 0, 0], atol=0.0)

    def test_cosine_reciprocal_is_exp_minus_half_z(self, cos_symbol):
        d = build_szego(cos_symbol)
        got = inverse_coeffs(d, 3)
        assert np.allclose(got, [1.0, -0.5, 0.125, -1.0 / 48.0], atol=1e-15)

    def test_series_times_inverse_is_one(self, suite):
        for s in suite.values():
            d = build_szego(s)
            direct = series_coeffs(d, 12)
            inverse = inverse_coeffs(d, 12)
            product = convolve_series(direct, inverse, 13)
            assert abs(product[0] - 1.0) < 1e-13
            assert np.max(np.abs(product[1:])) < 1e-13


class TestAlphaFromD:
    def test_zero_weight_all_zero(self):
        s = make_symbol({})
        states = trajectory(moments(s, 6), 5)
        d = build_szego(s)
        for n in range(4):
            assert abs(alpha_from_D(states, d, n)) < 1e-13

    def test_cosine_matches_recursion_route(self, cos_symbol):
        m = moments(cos_symbol, 13)
        states = trajectory(m, 12)
        d = build_szego(cos_symbol)
        alphas = states[-1].alphas
        assert alpha_from_D(states, d, 0) == pytest.approx(alphas[0], abs=1e-8)
        assert alpha_from_D(states, d, 10) == pytest.approx(alphas[10], abs=1e-10)

    def test_route_agreement_across_usable_range(self, two_band_symbol):
        m = moments(two_band_symbol, 16)
        states = trajectory(m, 15)
        d = build_szego(two_band_symbol)
        for n, alpha in enumerate(states[-1].alphas[:14]):
            if abs(alpha) > 1e-11:
                assert alpha_from_D(states, d, n) == pytest.approx(alpha, abs=1e-8)


class TestSzegoTheorem:
    def test_f_running_converges_to_exp_mean(self, suite):
        # log c_0 + Σ log(1-|α_j|²) → l_0 once the α's hit the decay floor
        for s in suite.values():
            m = moments(s, 45)
            state = run_to(m, 45)
            led = ledger(state, 44)
            assert abs(math.log(led.rows[-1].ratio) - s.mean) < 1e-8

    def test_d0_squared_is_the_limit_product(self, cos_symbol):
        m = moments(cos_symbol, 40)
        state = run_to(m, 40)
        d = build_szego(cos_symbol)
        assert d.d0**2 == pytest.approx(state.norm_sq, rel=1e-10)


class TestDecayFit:
    def test_exact_geometric_sequence(self):
        alphas = 0.5 * 4.0 ** -np.arange(12)
        fit = decay_fit(alphas)
        assert fit.a_half == pytest.approx(math.log(4.0), rel=1e-12)
        assert fit.c == pytest.approx(0.5, rel=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_cosine_fit_quality(self, cos_symbol):
        m = moments(cos_symbol, 26)
        fit = decay_fit(run_to(m, 25).alphas)
        assert fit.a_half > 0.0
        assert fit.r2 > 0.99
        assert len(fit.window) >= 8

    def test_below_floor_is_insufficient(self):
        with pytest.raises(InsufficientDataError):
            decay_fit(np.full(20, 1e-15))


class TestDiskIntegral:
    def test_zero_weight(self):
        assert disk_integral_check(build_szego(make_symbol({})), 0.9) == 0.0

    def test_cosine_single_term(self, cos_symbol):
        d = build_szego(cos_symbol)
        assert disk_integral_check(d, 0.5) == pytest.approx(0.0625, rel=1e-12)

    def test_two_band_closed_form(self, two_band_symbol):
        d = build_szego(two_band_symbol)
        expected = 1 * 0.2**2 * 0.8**2 + 2 * 0.1**2 * 0.8**4
        assert expected == pytest.approx(0.033792, abs=1e-15)
        assert disk_integral_check(d, 0.8) == pytest.approx(expected, rel=1e-12)

    def test_matches_power_sum_at_three_radii(self, suite):
        for s in suite.values():
            d = build_szego(s)
            k = np.arange(1, s.bandwidth + 1)
            mags = np.abs(np.asarray(s.coeffs[1:], dtype=complex))
            for r in (0.3, 0.6, 0.9):
                expected = float(np.sum(k * mags**2 * r ** (2 * k)))
                got = disk_integral_check(d, r)
                assert abs(got - expected) <= 1e-8 * max(expected, 1e-12)

    def test_radius_must_be_interior(self, cos_symbol):
        d = build_szego(cos_symbol)
        with pytest.raises(ValueError):
            disk_integral_check(d, 1.0)


class TestPhiStarConvergence:
    def test_zero_weight_is_exact(self):
        s = make_symbol({})
        states = trajectory(moments(s, 6), 5)
        dev = phi_star_convergence(states, build_szego(s))
        assert np.all(dev < 1e-14)

    def test_cosine_deviation_decreases(self, cos_symbol):
        states = trajectory(moments(cos_symbol, 13), 12)
        dev = phi_star_convergence(states, build_szego(cos_symbol))
        assert np.all(np.diff(dev[:10]) < 0.0)
        assert dev[12] < 1e-9

    def test_center_point_recovers_kappa(self, cos_symbol):
        # at z = 0: |φ_n*(0) - D(0)^{-1}| = |κ_n - κ_∞|
        states = trajectory(moments(cos_symbol, 9), 8)
        d = build_szego(cos_symbol)
        for st in states:
            dev = abs(
                np.polynomial.polynomial.polyval(0.0, st.phi_star / math.sqrt(st.norm_sq))
                - 1.0 / eval_D(d, 0.0)
            )
            assert dev == pytest.approx(abs(st.kappa() - 1.0 / d.d0), abs=1e-14)


class TestBoundaryL2:
    def test_deviation_is_monotone_past_small_n(self, cos_symbol):
        states = trajectory(moments(cos_symbol, 15), 14)
        errs = boundary_l2_error(states, build_szego(cos_symbol))
        assert errs[-1] < 1e-18
        assert np.all(np.diff(errs[1:12]) < 0.0)
