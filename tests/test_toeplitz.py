"""Toeplitz assembly, the two log-determinant routes, and the F/G ledger."""

import math
import tracemalloc

import numpy as np
import pytest

from szego_lab import (
    PositivityError,
    assemble,
    ledger,
    log_det_direct,
    log_det_minors,
    log_det_product,
    make_symbol,
    moments,
    run_to,
    trajectory,
)
from szego_lab.symbol import MomentSequence
from szego_lab.toeplitz import _log_chol_diag
from szego_lab.verify import bs_log_weight, routes_agree

from conftest import bessel_i, geometric_moments, same_bits


class TestAssemble:
    def test_lebesgue_is_identity(self):
        m = moments(make_symbol({}), 2)
        t = assemble(m, 2)
        assert np.allclose(t, np.eye(3), atol=1e-14)

    def test_geometric_two_by_two(self):
        t = assemble(geometric_moments(0.5, 1), 1)
        assert np.allclose(t, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)

    def test_cosine_two_by_two_is_bessel(self, cos_symbol):
        t = assemble(moments(cos_symbol, 1), 1)
        expected = [[bessel_i(0), bessel_i(1)], [bessel_i(1), bessel_i(0)]]
        assert np.allclose(t, expected, atol=1e-13)

    def test_hermitian_and_constant_diagonals(self, suite):
        m = moments(suite["offset"], 6)
        t = assemble(m, 6)
        assert np.allclose(t, t.conj().T, atol=0.0)
        for k in range(-6, 7):
            assert np.allclose(np.diag(t, k), np.diag(t, k)[0])

    def test_allocates_only_the_matrix(self, cos_symbol):
        m = moments(cos_symbol, 800)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            t = assemble(m, 800)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.flags.c_contiguous
        assert peak - before <= 1.1 * t.nbytes


class TestLogDetDirect:
    def test_identity(self):
        assert log_det_direct(np.eye(5)) == 0.0

    def test_two_by_two(self):
        t = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert log_det_direct(t) == pytest.approx(math.log(0.75), abs=1e-15)

    def test_cosine_two_by_two(self, cos_symbol):
        t = assemble(moments(cos_symbol, 1), 1)
        expected = math.log(bessel_i(0) ** 2 - bessel_i(1) ** 2)
        assert log_det_direct(t) == pytest.approx(expected, abs=1e-13)

    def test_indefinite_matrix_is_rejected(self):
        with pytest.raises(PositivityError):
            log_det_direct(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestLogDetMinors:
    def test_every_minor_matches_its_own_factorization(self, suite):
        for name, s in suite.items():
            m = moments(s, 60)
            minors = log_det_minors(m, 60)
            assert minors.shape == (61,)
            for n in range(61):
                single = log_det_direct(assemble(m, n))
                assert abs(minors[n] - single) <= 1e-12 * abs(single), (name, n)

    def test_indefinite_moments_are_rejected(self):
        with pytest.raises(PositivityError):
            log_det_minors(MomentSequence((1.0, 0.5, 1.5)), 2)

    @pytest.fixture(scope="class")
    def minor_moments(self, suite):
        """Moments to order 400 of the suite, a complex symbol and bs-0.97."""
        symbols = dict(suite)
        symbols["complex"] = make_symbol({1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 2: 0.1j, -2: -0.1j})
        symbols["bs-0.97"] = bs_log_weight(0.97)
        return {name: moments(s, 400) for name, s in symbols.items()}

    @pytest.mark.parametrize("n", [0, 1, 2, 40, 400])
    def test_bits_are_those_of_the_assembled_copy(self, minor_moments, n):
        # the factor reads the strided view; the reference factors assemble's contiguous copy
        for name, m in minor_moments.items():
            want = 2.0 * np.cumsum(_log_chol_diag(assemble(m, n)))
            assert np.array_equal(log_det_minors(m, n), want), name

    def test_allocates_the_factor_and_no_copy(self, cos_symbol):
        m = moments(cos_symbol, 800)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            log_det_minors(m, 800)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.1 * 801**2 * 16  # the complex factor alone


class TestLogDetProduct:
    def test_lebesgue(self):
        m = moments(make_symbol({}), 11)
        assert abs(log_det_product(run_to(m, 10))) < 1e-13

    def test_single_alpha(self):
        m = geometric_moments(0.5, 2)
        state = run_to(m, 1)
        assert log_det_product(state) == pytest.approx(math.log(0.75), abs=1e-14)

    def test_agrees_with_direct_route_across_suite(self, suite):
        for name, s in suite.items():
            m = moments(s, 41)
            states = trajectory(m, 40)
            for n in range(41):
                direct = log_det_direct(assemble(m, n))
                product = log_det_product(states[n])
                assert routes_agree(direct, product), (name, n, direct, product)


class TestLedger:
    def test_lebesgue_rows_are_flat(self):
        m = moments(make_symbol({}), 11)
        for log_dn, ratio, g_n in zip(*ledger(run_to(m, 11), 10)):
            assert ratio == pytest.approx(1.0, abs=1e-13)
            assert g_n == pytest.approx(1.0, abs=1e-13)
            assert abs(log_dn) < 1e-13

    def test_single_alpha_g_constant(self):
        m = geometric_moments(0.5, 12)
        _, _, gs = ledger(run_to(m, 12), 10)
        for g_n in gs:
            assert g_n == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_cosine_g_increases_to_target(self, cos_symbol):
        m = moments(cos_symbol, 31)
        _, _, gs = ledger(run_to(m, 31), 30)
        assert np.all(np.diff(gs) >= -1e-12)
        assert np.all(gs <= math.exp(0.25) * (1 + 1e-8))
        assert gs[-1] == pytest.approx(math.exp(0.25), rel=1e-10)

    def test_ratio_nonincreasing_across_suite(self, suite):
        for s in suite.values():
            m = moments(s, 41)
            _, ratio, _ = ledger(run_to(m, 41), 40)
            ratios = np.log(ratio)
            assert np.all(np.diff(ratios) <= 1e-12)

    def test_f_running_converges_exactly_when_tail_sums_do(self, suite):
        # Beyond the decay floor the partial sums Σ|α|², Σ(j+1)|α|² and the
        # ledger columns F, G must all be Cauchy together.
        for s in suite.values():
            m = moments(s, 41)
            state = run_to(m, 41)
            mags = np.abs(np.asarray(state.alphas))
            _, ratio, g_n = ledger(state, 40)
            floor_idx = [j for j in range(len(mags)) if mags[j] < 1e-13]
            if not floor_idx:
                continue
            start = floor_idx[0]
            for n in range(max(start, 1), 40):
                inc_sq = mags[n] ** 2
                inc_weighted = (n + 1) * mags[n] ** 2
                f_inc = abs(math.log(ratio[n + 1]) - math.log(ratio[n]))
                g_inc = abs(math.log(g_n[n + 1]) - math.log(g_n[n]))
                if mags[n] < 1e-13:
                    assert inc_sq < 1e-12 and inc_weighted < 1e-12
                    assert f_inc < 1e-12 and g_inc < 1e-12

    def test_arrays_keep_the_bits_of_separate_sums(self, suite):
        # log D_n, the ratio and G_n as each was summed on its own before the
        # prefix sums over log(1-|α_j|²) had one home
        for name, s in suite.items():
            state = run_to(moments(s, 402), 401)
            alphas = np.asarray(state.alphas, dtype=complex)
            log_c0 = float(np.log(state.c0))
            for n_max in (0, 1, 40, 400):
                r = np.log1p(-np.abs(alphas) ** 2)
                degrees = np.arange(n_max + 1)
                excess = np.concatenate(([0.0], np.cumsum(r[:n_max])))
                head = np.cumsum((np.arange(r.size) + 1) * r)[: n_max + 1]
                tail = np.append(np.cumsum(r[::-1])[::-1], 0.0)[1 : n_max + 2]
                log_dn, ratio, g_n = ledger(state, n_max)
                assert same_bits(log_dn, (degrees + 1) * log_c0 + np.cumsum(excess)), name
                ratio_sums = np.cumsum(np.log1p(-np.abs(alphas[: n_max + 1]) ** 2))
                assert same_bits(ratio, np.exp(log_c0 + ratio_sums)), name
                assert same_bits(g_n, np.exp(-(head + (degrees + 1) * tail))), name

    def test_needs_enough_alphas(self, cos_symbol):
        m = moments(cos_symbol, 6)
        with pytest.raises(ValueError):
            ledger(run_to(m, 3), 10)
