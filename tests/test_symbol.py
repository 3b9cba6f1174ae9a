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
from szego_lab.quadrature import adaptive_circle_mean, circle_points
from szego_lab.symbol import (
    LaurentSymbol,
    MomentSequence,
    eval_log_weight_z,
    format_symbol,
    load_symbol,
    moments_from_function,
    parse_symbol,
)
from szego_lab.verify import bs_log_weight, scaled_symbol

from conftest import bessel_i, polyval_log_weight_z, same_bits


def seven_smooth(k: int) -> bool:
    """True if k has no prime factor above 7."""
    for p in (2, 3, 5, 7):
        while k % p == 0:
            k //= p
    return k == 1


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

    def test_symmetrized_value_is_the_halved_sum_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for re, im, d_re, d_im in rng.normal(size=(200, 4)):
            plus = complex(re, im)
            minus = plus.conjugate() + complex(d_re, d_im) * 1e-13
            assert make_symbol({1: plus, -1: minus}).coeff(1) == 0.5 * (plus + minus.conjugate())

    def test_symmetric_pair_near_the_float_limit(self):
        # l_1 + conj(l_-1) overflows; the halves do not
        s = make_symbol({1: 1e308, -1: 1e308})
        assert (s.coeff(1), s.coeff(-1)) == (1e308, 1e308)

    @pytest.mark.parametrize("minus", [-1e308, 0.5e308, 1e308j])
    def test_rejects_an_asymmetric_pair_near_the_float_limit(self, minus):
        with pytest.raises(ConjugateSymmetryError, match="^coefficient 1 violates"):
            make_symbol({1: 1e308, -1: minus})

    def test_rejects_conjugate_violation(self):
        with pytest.raises(ConjugateSymmetryError):
            make_symbol({1: 0.5j, -1: 0.3})

    def test_rejects_complex_constant(self):
        with pytest.raises(ConjugateSymmetryError):
            make_symbol({0: 0.1 + 0.2j})

    @pytest.mark.parametrize(
        "build, k",
        [
            (lambda: make_symbol({1: math.nan, -1: math.nan}), 1),
            (lambda: make_symbol({1: math.inf}), 1),  # once stored as inf+nanj
            (lambda: make_symbol({2: complex(math.nan, 0.0)}), 2),
            (lambda: make_symbol({0: complex(math.nan, 0.0)}), 0),
            (lambda: LaurentSymbol((0.0, 0.5, complex(-math.inf, 0.0))), 2),
            (lambda: scaled_symbol(make_symbol({1: 0.5, -1: 0.5}), math.inf), 0),
        ],
        ids=["nan", "inf", "nan+0j", "nan+0j constant", "direct", "scaled"],
    )
    def test_rejects_a_non_finite_coefficient_naming_k(self, build, k):
        with pytest.raises(ValueError, match=f"^coefficient {k} is not finite"):
            build()


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


class TestCirclePoints:
    def test_cos_sin_are_the_complex_exponential_bitwise(self):
        # libm's cexp(0 + iθ) is (cos θ, sin θ); every seeded gas estimate rests on it
        rng = np.random.default_rng(7)
        wide = rng.uniform(-1e3, 1e3, 10_000)
        for theta in (rng.uniform(0.0, 2.0 * np.pi, size=(1000, 9)), wide):
            want = np.exp(1j * theta)
            z = circle_points(theta)
            assert same_bits(z.real, want.real) and same_bits(z.imag, want.imag)

    def test_scalar(self):
        z = circle_points(0.7)
        assert isinstance(z, np.complex128) and z == np.exp(0.7j)


class TestHornerBits:
    """The in-place Horner loop against the ``polyval`` form, bit for bit."""

    @staticmethod
    def symbols(suite):
        rng = np.random.default_rng(48)
        out = dict(suite)
        for name, s in suite.items():  # rotation makes every l_k with k ≥ 1 complex
            out[f"{name}, rotated"] = LaurentSymbol(
                tuple(complex(c) * np.exp(0.7j * k) for k, c in enumerate(s.coeffs))
            )
        out["complex K=48"] = LaurentSymbol(
            (0.3,) + tuple(complex(*rng.normal(size=2)) for _ in range(48))
        )
        out["l_1 = 50"] = make_symbol({1: 50.0, -1: 50.0})
        out["constant 0.3"] = make_symbol({0: 0.3})
        return out

    def test_arrays_of_two_or_more_points(self, suite):
        z = np.exp(1j * np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=(64, 9)))
        points = [z, z.T, z[:, ::2], z[:, 3], z.ravel()[:2], z.ravel()[:3], z.ravel()[:17]]
        for name, s in self.symbols(suite).items():
            for p in points:
                want = polyval_log_weight_z(s, p)
                assert same_bits(eval_log_weight_z(s, p), want), (name, p.shape)

    def test_scalar_point(self, suite):
        # a complex scalar, as np.exp(1j * θ) gives for a scalar θ
        for name, s in self.symbols(suite).items():
            for theta in (0.7, 2.0, 5.9):
                z = np.exp(1j * np.asarray(theta))
                want = polyval_log_weight_z(s, z)
                assert same_bits(eval_log_weight_z(s, z), want), (name, theta)
                assert same_bits(eval_log_weight(s, theta), want), (name, theta)

    def test_bandwidth_zero_is_the_constant(self):
        z = np.exp(1j * np.linspace(0.0, 6.0, 7))
        for s in (make_symbol({}), make_symbol({0: 0.3}), make_symbol({0: -2.5})):
            assert same_bits(eval_log_weight_z(s, z), polyval_log_weight_z(s, z))
            assert same_bits(eval_log_weight_z(s, z[0]), polyval_log_weight_z(s, z[0]))

    def test_one_point_array_within_rounding(self, suite):
        # numpy multiplies a one-element array in place without FMA, so only
        # the last place may differ from the polyval form here
        z = np.exp(1j * np.random.default_rng(6).uniform(0.0, 2.0 * np.pi, size=32))
        for name, s in self.symbols(suite).items():
            scale = sum(abs(complex(c)) for c in s.coeffs)
            for p in z:
                for one in (np.asarray(p), np.asarray([p])):
                    gap = np.abs(eval_log_weight_z(s, one) - polyval_log_weight_z(s, one))
                    assert np.all(gap <= 8 * np.finfo(float).eps * scale), name


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

    @pytest.mark.parametrize("n_max", [0, 8, 20, 22, 40, 200, 401, 1601])
    def test_first_grid_is_the_smallest_seven_smooth_size_from_the_old_start(self, n_max):
        # the old first grid max(64, start, 2(n_max+1)) is raised to the next size with
        # no prime factor above 7; each later grid doubles it
        bs = bs_log_weight(0.97)
        for s, start in ((make_symbol({1: 0.5, -1: 0.5}), 64), (bs, 8 * (n_max + bs.bandwidth))):
            grids = []

            def weight(theta):
                grids.append(theta.size)
                return eval_weight(s, theta)

            m = moments_from_function(weight, n_max, start=start)
            old = max(64, start, 2 * (n_max + 1))
            assert grids[0] == min(k for k in range(old, 2 * old + 1) if seven_smooth(k))
            assert grids == [grids[0] << j for j in range(len(grids))]
            assert m.quadrature_points == grids[-1]

    @pytest.mark.parametrize("n_max", [8, 20, 40, 200, 401, 1601])
    def test_every_symbol_grid_is_seven_smooth_and_at_least_the_old_start(self, suite, n_max):
        for name, s in suite.items():
            points = moments(s, n_max).quadrature_points
            assert points >= max(64, 8 * (n_max + s.bandwidth)), name
            assert seven_smooth(points), name

    @pytest.mark.parametrize("cap", [1000, 1009])
    def test_grid_cap_still_caps_a_smooth_start(self, monkeypatch, cap):
        # 2·131 = 262 rises to 270, then 540; 1080 is past either cap
        monkeypatch.setenv("SZEGO_LAB_GRID_MAX", str(cap))
        grids = []

        def weight(theta):
            grids.append(theta.size)
            return np.exp(np.cos(theta))

        assert moments_from_function(weight, 130).quadrature_points == 540
        assert grids == [270, 540]
        grids.clear()
        with pytest.raises(QuadratureError, match=f"grid cap {cap} "):
            moments_from_function(weight, 130, start=1500)
        assert grids == [cap]

    def test_rejects_negative_order(self, cos_symbol):
        with pytest.raises(ValueError):
            moments(cos_symbol, -1)

    def test_both_doubling_quadratures_name_the_cap(self, monkeypatch, cos_symbol):
        monkeypatch.setenv("SZEGO_LAB_GRID_MAX", "64")
        with pytest.raises(QuadratureError, match="moment quadrature .* grid cap 64 "):
            moments(cos_symbol, 4)
        with pytest.raises(QuadratureError, match="circle quadrature .* grid cap 64 "):
            adaptive_circle_mean(lambda th: eval_weight(cos_symbol, th))

    def test_both_doubling_quadratures_stop_at_a_non_finite_value(self):
        overflow = make_symbol({0: 800.0})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(QuadratureError, match="moment quadrature .* non-finite .*m=64$"):
                moments(overflow, 1)
            with pytest.raises(QuadratureError, match="circle quadrature .* non-finite .*m=64$"):
                adaptive_circle_mean(lambda th: eval_weight(overflow, th))


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

    def test_tuple_list_and_array_give_equal_read_only_values(self):
        data = [2.0, 0.5 - 0.25j, -0.0 - 0.125j, 1e-300]
        for source in (tuple(data), data, np.array(data)):
            m = MomentSequence(source)
            assert isinstance(m.values, np.ndarray) and m.values.dtype == complex
            assert same_bits(m.values.view(float), np.array(data, dtype=complex).view(float))
            assert not m.values.flags.writeable
            with pytest.raises(ValueError):
                m.values[1] = 0.0

    def test_values_are_a_copy_of_the_source(self):
        for source in (np.array([2.0, 1.0 + 0.5j]), np.array([2.0, 1.0])):
            m = MomentSequence(source)
            source[1] = 7.0
            assert m.values[1] != 7.0 and source[1] == 7.0

    def test_normalized_divides_as_python_complex_division(self, suite):
        from szego_lab.verify import scaled_symbol

        for s in suite.values():
            for t in (1.0, 0.5):
                raw = moments(scaled_symbol(s, t), 81)
                expected = np.array([v / raw.c0 for v in raw.values.tolist()])
                assert same_bits(raw.normalized().values.view(float), expected.view(float))


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
