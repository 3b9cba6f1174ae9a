"""Log-weight construction, evaluation, and spectral moment quadrature."""

import math

import numpy as np
import pytest

from szego_lab import (
    ConjugateSymmetryError,
    QuadratureError,
    SymbolParseError,
    eval_log_weight,
    eval_weight,
    gi_truncate,
    make_symbol,
    moments,
    target_sum,
)
from szego_lab.quadrature import adaptive_circle_mean
from szego_lab.symbol import (
    MomentSequence,
    format_symbol,
    load_symbol,
    moments_from_function,
    parse_symbol,
)

from conftest import bessel_i


class TestMakeSymbol:
    def test_empty_map_is_the_zero_weight(self):
        s = make_symbol({})
        assert s.bandwidth == 0
        assert eval_log_weight(s, 1.234) == 0.0

    def test_cosine(self):
        s = make_symbol({1: 0.5, -1: 0.5})
        assert s.bandwidth == 1
        assert s.coeff(1) == 0.5
        assert s.coeff(-1) == 0.5

    def test_symmetrization_averages_conjugate_pairs(self):
        s = make_symbol({1: 0.5 + 1e-13j, -1: 0.5 - 1e-13j})
        assert abs(s.coeff(1) - (0.5 + 1e-13j)) < 1e-15

    def test_rejects_conjugate_violation(self):
        with pytest.raises(ConjugateSymmetryError):
            make_symbol({1: 0.5j, -1: 0.3})

    def test_rejects_complex_constant(self):
        with pytest.raises(ConjugateSymmetryError):
            make_symbol({0: 0.1 + 0.2j})


class TestEvaluation:
    def test_zero_weight(self):
        s = make_symbol({})
        theta = np.linspace(0, 2 * np.pi, 7)
        assert np.all(eval_log_weight(s, theta) == 0.0)
        assert np.all(eval_weight(s, theta) == 1.0)

    def test_cosine_values(self, cos_symbol):
        assert eval_log_weight(cos_symbol, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert eval_log_weight(cos_symbol, np.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert eval_weight(cos_symbol, 0.0) == pytest.approx(math.e, rel=1e-15)
        assert eval_weight(cos_symbol, np.pi) == pytest.approx(1.0 / math.e, rel=1e-15)

    def test_weight_positive_at_random_angles(self, suite):
        rng = np.random.default_rng(42)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=10_000)
        for s in suite.values():
            assert np.all(eval_weight(s, theta) > 0.0)


class TestMoments:
    def test_zero_weight_moments_are_a_delta(self):
        m = moments(make_symbol({}), 3)
        assert m.c0 == 1.0
        for n in range(1, 4):
            assert abs(m.moment(n)) < 1e-14

    def test_cosine_moments_match_bessel_series(self, cos_symbol):
        m = moments(cos_symbol, 5)
        for n in range(6):
            assert m.moment(n) == pytest.approx(bessel_i(n), abs=1e-14)

    def test_half_cosine_c0_against_brute_riemann_sum(self):
        s = make_symbol({1: 0.25, -1: 0.25})
        theta = 2.0 * np.pi * np.arange(1_000_000) / 1_000_000
        brute = np.mean(np.exp(0.5 * np.cos(theta)))
        m = moments(s, 0)
        assert m.c0 == pytest.approx(brute, abs=1e-12)

    def test_hermitian_symmetry_exact(self, two_band_symbol):
        m = moments(two_band_symbol, 8)
        for n in range(1, 9):
            assert m.moment(-n) == np.conj(m.moment(n))

    def test_doubling_is_stagnant_at_convergence(self, cos_symbol):
        m = moments(cos_symbol, 6)
        refined = moments_from_function(
            lambda th: eval_weight(cos_symbol, th), 6, start=2 * m.quadrature_points
        )
        for n in range(7):
            assert abs(m.moment(n) - refined.moment(n)) < 1e-13

    def test_grid_cap_failure(self, monkeypatch, cos_symbol):
        monkeypatch.setenv("SZEGO_LAB_GRID_MAX", "64")
        with pytest.raises(QuadratureError):
            moments(cos_symbol, 4)

    def test_rejects_negative_order(self, cos_symbol):
        with pytest.raises(ValueError):
            moments(cos_symbol, -1)

    def test_both_doubling_quadratures_name_the_cap(self, monkeypatch, cos_symbol):
        monkeypatch.setenv("SZEGO_LAB_GRID_MAX", "64")
        with pytest.raises(QuadratureError, match="moment quadrature .* grid cap 64 "):
            moments(cos_symbol, 4)
        with pytest.raises(QuadratureError, match="circle quadrature .* grid cap 64 "):
            adaptive_circle_mean(lambda th: eval_weight(cos_symbol, th))


class TestMomentSequence:
    def test_rejects_nonpositive_c0(self):
        from szego_lab import PositivityError

        with pytest.raises(PositivityError):
            MomentSequence((0.0,))
        with pytest.raises(PositivityError):
            MomentSequence((-1.0, 0.5))

    def test_normalization(self):
        m = MomentSequence((2.0, 1.0))
        mn = m.normalized()
        assert mn.c0 == 1.0
        assert mn.moment(1) == 0.5


class TestTruncationAndTarget:
    def test_truncation_at_or_beyond_bandwidth_is_identity(self, two_band_symbol):
        t = gi_truncate(two_band_symbol, 5)
        assert t.coeffs == two_band_symbol.coeffs

    def test_truncation_drops_high_coefficients(self, two_band_symbol):
        t = gi_truncate(two_band_symbol, 1)
        assert t.bandwidth == 1
        assert t.coeff(2) == 0.0

    def test_truncation_to_constant(self, two_band_symbol):
        t = gi_truncate(two_band_symbol, 0)
        assert t.bandwidth == 0

    def test_truncated_moments_match_when_nothing_is_dropped(self, two_band_symbol):
        m_full = moments(two_band_symbol, 4)
        m_trunc = moments(gi_truncate(two_band_symbol, 4), 4)
        for n in range(5):
            assert abs(m_full.moment(n) - m_trunc.moment(n)) < 1e-14

    def test_target_sum_examples(self, cos_symbol):
        assert target_sum(make_symbol({})) == (0.0, 0.0)
        assert target_sum(cos_symbol) == (0.0, 0.25)
        s = make_symbol({0: 0.3, 1: 0.2, -1: 0.2, 2: 0.1, -2: 0.1})
        mean, tail = target_sum(s)
        assert mean == pytest.approx(0.3)
        assert tail == pytest.approx(0.06)


class TestSymbolFiles:
    def test_round_trip(self, tmp_path, two_band_symbol):
        path = tmp_path / "sym.txt"
        path.write_text(format_symbol(two_band_symbol))
        loaded = load_symbol(path)
        assert loaded.coeffs == two_band_symbol.coeffs

    def test_comments_and_blank_lines_ignored(self):
        s = parse_symbol("# header\n\n0 0.3 0\n1 0.2 0\n")
        assert s.mean == 0.3
        assert s.coeff(1) == 0.2

    def test_parse_error_carries_line_number(self):
        with pytest.raises(SymbolParseError) as err:
            parse_symbol("0 0.3 0\nnot a line\n")
        assert err.value.lineno == 2

    def test_rejects_negative_k(self):
        with pytest.raises(SymbolParseError):
            parse_symbol("-1 0.5 0\n")

    def test_rejects_complex_constant(self):
        with pytest.raises(SymbolParseError):
            parse_symbol("0 0.5 0.1\n")

    def test_rejects_duplicate_k_at_its_line(self):
        with pytest.raises(SymbolParseError) as err:
            parse_symbol("0 0.3 0\n1 0.2 0\n1 0.1 0\n")
        assert err.value.lineno == 3
