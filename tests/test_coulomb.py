"""Gas-integral determinant estimates: exact quadrature and seeded Monte Carlo."""

import math

import numpy as np
import pytest

from szego_lab import (
    exact_Dn,
    log_det_direct,
    log_det_product,
    make_symbol,
    mc_Dn,
    moments,
    run_to,
    vandermonde_sq,
)
from szego_lab import coulomb
from szego_lab.symbol import eval_log_weight, eval_log_weight_z
from szego_lab.toeplitz import assemble


def sin_log_pair_gaps(theta):
    """Reference Σ_{k<j} log|e^{iθ_k} - e^{iθ_j}|² along the last axis, by 4 sin²((θ_k-θ_j)/2)."""
    theta = np.asarray(theta, dtype=float)
    k, j = np.triu_indices(theta.shape[-1], k=1)
    gaps = 4.0 * np.sin(0.5 * (theta[..., k] - theta[..., j])) ** 2
    with np.errstate(divide="ignore"):
        return np.sum(np.log(gaps), axis=-1)


class TestVandermonde:
    def test_coincident_nodes_vanish(self):
        assert vandermonde_sq([1.3, 1.3]) == 0.0

    def test_antipodal_pair(self):
        assert vandermonde_sq([0.0, np.pi]) == pytest.approx(4.0, rel=1e-14)

    def test_cube_roots_of_unity(self):
        angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
        assert vandermonde_sq(angles) == pytest.approx(27.0, rel=1e-13)
        # cross-check against the direct complex product
        z = np.exp(1j * np.asarray(angles))
        direct = abs(np.prod([z[k] - z[j] for k in range(3) for j in range(k + 1, 3)])) ** 2
        assert vandermonde_sq(angles) == pytest.approx(direct, rel=1e-13)

    def test_permutation_and_rotation_invariance(self):
        rng = np.random.default_rng(3)
        angles = rng.uniform(0, 2 * np.pi, size=5)
        base = vandermonde_sq(angles)
        shuffled = vandermonde_sq(rng.permutation(angles))
        rotated = vandermonde_sq(angles + 0.7)
        assert shuffled == pytest.approx(base, rel=1e-12)
        assert rotated == pytest.approx(base, rel=1e-12)

    def test_single_node_is_empty_product(self):
        assert vandermonde_sq([0.4]) == 1.0


class TestPairGaps:
    @staticmethod
    def direct(z):
        """Π_{k<j} |z_k - z_j|² as a complex product over one set of points."""
        n = len(z)
        return abs(np.prod([z[k] - z[j] for k in range(n) for j in range(k + 1, n)])) ** 2

    @pytest.mark.parametrize("points", range(2, 10))
    def test_matches_the_direct_complex_product(self, points):
        rng = np.random.default_rng(points)
        z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=points))
        log_v = coulomb._log_vandermonde_sq(z)
        assert np.exp(log_v) == pytest.approx(self.direct(z), rel=1e-12)

    def test_batch_along_the_first_axis(self):
        rng = np.random.default_rng(21)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(50, 9))
        z = np.exp(1j * theta)
        log_v = coulomb._log_vandermonde_sq(z.T)
        assert log_v.shape == (50,)
        want = [self.direct(row) for row in z]
        assert np.exp(log_v) == pytest.approx(want, rel=1e-12)
        assert log_v == pytest.approx(sin_log_pair_gaps(theta), rel=1e-12, abs=1e-12)

    def test_coincident_points_give_minus_inf(self):
        z = np.exp(1j * np.array([[0.3, 1.1, 0.3, 2.0], [0.5, 1.5, 2.5, 3.5]]))
        log_v = coulomb._log_vandermonde_sq(z.T)
        assert log_v[0] == -np.inf
        assert np.isfinite(log_v[1])


class TestLogWeightCore:
    def test_theta_form_is_the_z_core_bitwise(self, suite):
        theta = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, size=(64, 9))
        for name, s in suite.items():
            want = eval_log_weight_z(s, np.exp(1j * theta))
            assert np.array_equal(eval_log_weight(s, theta), want), name
            assert eval_log_weight(s, 0.7) == float(eval_log_weight_z(s, np.exp(0.7j))), name


class TestExactQuadrature:
    def test_lebesgue_low_orders(self):
        s = make_symbol({})
        for n in range(3):
            assert exact_Dn(s, n).value == pytest.approx(1.0, rel=1e-12)

    def test_cosine_n1_is_the_bessel_determinant(self, cos_symbol):
        est = exact_Dn(cos_symbol, 1)
        truth = math.exp(log_det_direct(assemble(moments(cos_symbol, 1), 1)))
        assert est.value == pytest.approx(truth, rel=1e-10)
        assert est.std_err == 0.0
        assert est.method == "exact-quadrature"

    def test_bernstein_szego_n1(self, bs_symbol):
        # moments are (1/2)^{|n|}, so D_1 = 1 - 1/4
        est = exact_Dn(bs_symbol, 1)
        assert est.value == pytest.approx(0.75, rel=1e-10)

    def test_agrees_with_cholesky_across_suite(self, suite):
        for name, s in suite.items():
            m = moments(s, 2)
            for n in range(3):
                est = exact_Dn(s, n)
                truth = math.exp(log_det_direct(assemble(m, n)))
                assert est.value == pytest.approx(truth, rel=1e-8), (name, n)

    def test_rejects_large_n(self, cos_symbol):
        with pytest.raises(ValueError):
            exact_Dn(cos_symbol, 3)


class TestMonteCarlo:
    def test_lebesgue_n2_covers_unity(self):
        est = mc_Dn(make_symbol({}), 2, samples=1_000_000, seed=11)
        assert abs(est.value - 1.0) <= 3.0 * est.std_err
        assert est.std_err > 0.0

    def test_cosine_n2_covers_cholesky_value(self, cos_symbol):
        truth = math.exp(log_det_direct(assemble(moments(cos_symbol, 2), 2)))
        est = mc_Dn(cos_symbol, 2, samples=1_000_000, seed=5)
        assert abs(est.value - truth) <= 3.0 * est.std_err

    def test_same_seed_bit_identical(self, cos_symbol):
        a = mc_Dn(cos_symbol, 3, samples=20_000, seed=9)
        b = mc_Dn(cos_symbol, 3, samples=20_000, seed=9)
        assert a.value == b.value and a.std_err == b.std_err

    def test_worker_split_is_deterministic(self, cos_symbol):
        a = mc_Dn(cos_symbol, 3, samples=40_000, seed=2, workers=2)
        b = mc_Dn(cos_symbol, 3, samples=40_000, seed=2, workers=2)
        assert a.value == b.value and a.std_err == b.std_err

    def test_three_sigma_coverage_over_seeds(self, cos_symbol):
        # frozen regression: seeds 0..99 at n=3, 1e5 samples cover the
        # determinant within 3 standard errors 99 times out of 100
        truth = math.exp(log_det_product(run_to(moments(cos_symbol, 4), 4)))
        hits = sum(
            1
            for seed in range(100)
            if abs((est := mc_Dn(cos_symbol, 3, samples=100_000, seed=seed)).value - truth)
            <= 3.0 * est.std_err
        )
        assert hits >= 99

    @pytest.mark.parametrize("count", [20_001, 2 * coulomb._MC_BATCH + 1])
    def test_worker_batches_match_a_one_shot_reference(self, two_band_symbol, count):
        # the same (count, n+1) stream in one draw, through the sin formula and
        # the θ form of the log-weight: a dropped, repeated or reordered draw shows
        n, seed, index, workers = 4, 17, 1, 3
        task = (two_band_symbol.coeffs, n, count, seed, index, workers)
        total, total_sq, done = coulomb._mc_worker(task)
        child = np.random.SeedSequence(seed).spawn(workers)[index]
        theta = np.random.default_rng(child).uniform(0.0, 2.0 * np.pi, size=(count, n + 1))
        log_f = sin_log_pair_gaps(theta) + np.sum(eval_log_weight(two_band_symbol, theta), axis=-1)
        f = np.exp(log_f - math.lgamma(n + 2))
        assert done == count
        assert total == pytest.approx(float(np.sum(f)), rel=1e-13)
        assert total_sq == pytest.approx(float(np.sum(f * f)), rel=1e-13)

    def test_range_checks(self, cos_symbol):
        with pytest.raises(ValueError):
            mc_Dn(cos_symbol, 0, samples=20_000, seed=1)
        with pytest.raises(ValueError):
            mc_Dn(cos_symbol, 9, samples=20_000, seed=1)
        with pytest.raises(ValueError):
            mc_Dn(cos_symbol, 3, samples=100, seed=1)
