"""Reproducing-kernel identities: sum vs closed forms, boundary diagonal, norm."""

import numpy as np
import pytest

from szego_lab import (
    InvariantViolation,
    cli,
    kernel_cd,
    kernel_diag_boundary,
    kernel_sum,
    make_symbol,
    moments,
    normalization_check,
    trajectory,
)
from szego_lab.cdkernel import identity_checks
from szego_lab.opuc import orthonormal, orthonormal_star
from szego_lab.symbol import LaurentSymbol

from conftest import geometric_moments


def _disk_pairs(rng, count, radius=0.95):
    r = radius * np.sqrt(rng.uniform(size=(count, 2)))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(count, 2))
    pts = r * np.exp(1j * phase)
    return [(pts[i, 0], pts[i, 1]) for i in range(count)]


@pytest.fixture(scope="module")
def cos_states(cos_symbol):
    return trajectory(moments(cos_symbol, 23), 22)


class TestKernelSum:
    def test_lebesgue_is_the_geometric_sum(self):
        s = make_symbol({})
        states = trajectory(moments(s, 8), 7)
        z, zeta = 0.4 + 0.1j, -0.3 + 0.5j
        expected = sum((np.conj(zeta) * z) ** j for j in range(7))
        assert kernel_sum(states, 6, z, zeta) == pytest.approx(expected, abs=1e-14)

    def test_diagonal_on_circle_counts_terms_for_lebesgue(self):
        s = make_symbol({})
        states = trajectory(moments(s, 8), 7)
        z = np.exp(0.3j)
        assert kernel_sum(states, 5, z, z) == pytest.approx(6.0, abs=1e-13)

    def test_center_value_is_the_kappa_sum(self, cos_states):
        n = 6
        expected = sum(abs(orthonormal(cos_states[j])[0]) ** 2 for j in range(n + 1))
        assert kernel_sum(cos_states, n, 0.0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_hermitian_symmetry_exact(self, cos_states):
        rng = np.random.default_rng(7)
        for z, zeta in _disk_pairs(rng, 10):
            forward = kernel_sum(cos_states, 9, z, zeta)
            backward = kernel_sum(cos_states, 9, zeta, z)
            assert forward == np.conj(backward)

    def test_array_points_match_the_scalar_calls(self, cos_states):
        # equal up to the order of floating-point sums: vector loops round differently
        rng = np.random.default_rng(23)
        pairs = _disk_pairs(rng, 25)
        z = np.array([p[0] for p in pairs])
        zeta = np.array([p[1] for p in pairs])
        for n in (0, 9, 21):
            values = kernel_sum(cos_states, n, z, zeta)
            assert values.shape == (25,)
            scalar = [kernel_sum(cos_states, n, a, b) for a, b in pairs]
            np.testing.assert_allclose(values, scalar, rtol=1e-14, atol=0.0)
            pv = np.polynomial.polynomial.polyval
            loop = sum(
                np.conj(pv(zeta, orthonormal(st))) * pv(z, orthonormal(st))
                for st in cos_states[: n + 1]
            )
            np.testing.assert_allclose(values, loop, rtol=1e-14, atol=0.0)
            # a scalar ζ against n+1 points z: the point axis is not the degree axis
            mixed = kernel_sum(cos_states, n, z[: n + 1], zeta[0])
            scalar = [kernel_sum(cos_states, n, a, zeta[0]) for a in z[: n + 1]]
            np.testing.assert_allclose(mixed, scalar, rtol=1e-14, atol=0.0)
            closed = kernel_cd(cos_states, n, z, zeta, "current")
            scalar = [kernel_cd(cos_states, n, a, b, "current") for a, b in pairs]
            np.testing.assert_allclose(closed, scalar, rtol=1e-14, atol=0.0)

    def test_diagonal_positivity(self, cos_states):
        rng = np.random.default_rng(17)
        for z, _ in _disk_pairs(rng, 20):
            assert np.real(kernel_sum(cos_states, 12, z, z)) >= 0.0


class TestClosedForms:
    def test_lebesgue_closed_form_is_geometric(self):
        s = make_symbol({})
        states = trajectory(moments(s, 8), 7)
        z, zeta = 0.5 - 0.2j, 0.1 + 0.6j
        q = np.conj(zeta) * z
        expected = (1.0 - q**7) / (1.0 - q)
        assert kernel_cd(states, 6, z, zeta, "current") == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("variant", ["next", "current"])
    def test_matches_sum_at_seeded_pairs(self, suite, variant):
        rng = np.random.default_rng(2024)
        for s in suite.values():
            states = trajectory(moments(s, 17), 16)
            for z, zeta in _disk_pairs(rng, 25):
                reference = kernel_sum(states, 15, z, zeta)
                closed = kernel_cd(states, 15, z, zeta, variant)
                assert abs(closed - reference) <= 1e-11 * max(1.0, abs(reference))

    def test_bilinear_identity_between_degrees(self, cos_states):
        # the two closed-form numerators agree identically in (z, ζ)
        rng = np.random.default_rng(5)
        n = 10
        up = orthonormal(cos_states[n + 1])
        up_star = orthonormal_star(cos_states[n + 1])
        lo = orthonormal(cos_states[n])
        lo_star = orthonormal_star(cos_states[n])
        pv = np.polynomial.polynomial.polyval
        for z, zeta in _disk_pairs(rng, 25):
            lhs = np.conj(pv(zeta, up_star)) * pv(z, up_star) - np.conj(
                pv(zeta, up)
            ) * pv(z, up)
            rhs = np.conj(pv(zeta, lo_star)) * pv(z, lo_star) - np.conj(zeta) * z * np.conj(
                pv(zeta, lo)
            ) * pv(z, lo)
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))

    def test_near_singular_pair_is_rejected(self, cos_states):
        z = np.exp(0.4j)
        with pytest.raises(InvariantViolation):
            kernel_cd(cos_states, 5, z, z, "next")


class TestDiagonalBoundary:
    def test_lebesgue_counts_terms(self):
        s = make_symbol({})
        states = trajectory(moments(s, 9), 8)
        theta = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        values = kernel_diag_boundary(states, 7, theta)
        assert np.allclose(values, 8.0, atol=1e-13)

    def test_matches_kernel_sum_on_boundary_grid(self, suite):
        theta = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        for s in suite.values():
            states = trajectory(moments(s, 12), 11)
            diag = kernel_diag_boundary(states, 10, theta)
            direct = np.array(
                [
                    np.real(kernel_sum(states, 10, np.exp(1j * t), np.exp(1j * t)))
                    for t in theta
                ]
            )
            assert np.max(np.abs(diag - direct) / np.maximum(1.0, direct)) < 1e-10

    def test_geometric_degree_zero(self):
        states = trajectory(geometric_moments(0.5, 2), 1)
        assert kernel_diag_boundary(states, 0, 0.0) == pytest.approx(
            np.real(kernel_sum(states, 0, 1.0 + 0j, 1.0 + 0j)), abs=1e-13
        )


class TestNormalization:
    def test_lebesgue_ratio_is_one(self):
        s = make_symbol({})
        states = trajectory(moments(s, 8), 7)
        assert normalization_check(states, s, 5) == pytest.approx(1.0, abs=1e-12)

    def test_cosine(self, cos_symbol):
        states = trajectory(moments(cos_symbol, 8), 7)
        assert normalization_check(states, cos_symbol, 5) == pytest.approx(1.0, abs=1e-9)

    def test_bernstein_szego(self, bs_symbol):
        states = trajectory(moments(bs_symbol, 6), 5)
        assert normalization_check(states, bs_symbol, 3) == pytest.approx(1.0, abs=1e-9)


class TestReproducingProperty:
    def test_kernel_reproduces_low_degree_polynomials(self, cos_symbol):
        from szego_lab import eval_weight

        n = 8
        states = trajectory(moments(cos_symbol, n + 2), n + 1)
        rng = np.random.default_rng(31)
        theta = 2.0 * np.pi * np.arange(1024) / 1024
        bdry = np.exp(1j * theta)
        w = eval_weight(cos_symbol, theta)
        for _ in range(5):
            coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            p_bdry = np.polynomial.polynomial.polyval(bdry, coeffs)
            for z in (0.2 + 0.3j, -0.6j, 0.8):
                kernel_vals = np.array(
                    [kernel_sum(states, n, z, zb) for zb in bdry]
                )
                integral = np.mean(kernel_vals * p_bdry * w)
                expected = np.polynomial.polynomial.polyval(z, coeffs)
                assert abs(integral - expected) <= 1e-9 * max(1.0, abs(expected))


#: l_1 = 0.3 + 0.2i, l_2 = 0.1 - 0.05i, as `--coeff 1=0.3,0.2 --coeff 2=0.1,-0.05`
COMPLEX = LaurentSymbol((0j, 0.3 + 0.2j, 0.1 - 0.05j))


class TestIdentityChecks:
    """cd-check's rows, called without the CLI."""

    def test_every_row_passes_on_the_suite_and_a_complex_symbol(self, suite):
        for name, s in [*suite.items(), ("complex", COMPLEX)]:
            body, checks = identity_checks(trajectory(moments(s, 10), 9), s, 8, seed=0)
            assert body == ""
            names = [row[0] for row in checks]
            assert names == ["closed-forms", "diagonal-boundary", "normalization"], name
            assert all(ok for _, ok, _ in checks), (name, checks)

    def test_cd_check_prints_exactly_these_rows(self, tmp_path):
        out = tmp_path / "cd.txt"
        argv = ["cd-check", "--coeff", "1=0.3,0.2", "--coeff", "2=0.1,-0.05", "--nmax", "8"]
        assert cli.main(argv + ["--seed", "3", "--out", str(out)]) == 0
        _, checks = identity_checks(trajectory(moments(COMPLEX, 10), 9), COMPLEX, 8, seed=3)
        expected = "".join(f"# check {name} PASS ({detail})\n" for name, _, detail in checks)
        assert out.read_text() == expected

    def test_the_seed_picks_the_sample_pairs(self, cos_states, cos_symbol):
        first = identity_checks(cos_states, cos_symbol, 8, seed=1)
        assert identity_checks(cos_states, cos_symbol, 8, seed=1) == first
        assert identity_checks(cos_states, cos_symbol, 8, seed=2)[1][0] != first[1][0]
