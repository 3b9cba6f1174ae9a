"""Gas-integral determinant estimates: exact quadrature and seeded Monte Carlo."""

import itertools
import math
import multiprocessing
import os
from types import SimpleNamespace

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
)
from szego_lab import coulomb
from szego_lab.errors import QuadratureError
from szego_lab.quadrature import circle_points
from szego_lab.symbol import LaurentSymbol, eval_log_weight, eval_log_weight_z
from szego_lab.toeplitz import assemble
from szego_lab.verify import scaled_symbol



def sin_log_pair_gaps(theta):
    """Reference Σ_{k<j} log|e^{iθ_k} - e^{iθ_j}|² along the last axis, by 4 sin²((θ_k-θ_j)/2)."""
    theta = np.asarray(theta, dtype=float)
    k, j = np.triu_indices(theta.shape[-1], k=1)
    gaps = 4.0 * np.sin(0.5 * (theta[..., k] - theta[..., j])) ** 2
    with np.errstate(divide="ignore"):
        return np.sum(np.log(gaps), axis=-1)


def pair_gaps(z):
    """|z_k - z_j|² for every pair of the first axis, as ``exact_Dn`` forms them (k, j, ...)."""
    x, y = z.real, z.imag
    return coulomb._sq_gaps(x[:, None], y[:, None], x[None, :], y[None, :])


def log_vandermonde_sq(z):
    """Σ_{k<j} log |z_k - z_j|² over the first axis, from ``pair_gaps``."""
    k, j = np.triu_indices(z.shape[0], k=1)
    with np.errstate(divide="ignore"):
        return np.sum(np.log(pair_gaps(z)[k, j]), axis=0)


def vandermonde_sq(theta):
    """|Π_{k<j}(e^{iθ_k} - e^{iθ_j})|² from the gaps that ``exact_Dn`` integrates."""
    return float(np.exp(log_vandermonde_sq(circle_points(np.asarray(theta, dtype=float)))))


def rotation_turns():
    """e^{2πid/R} for d < R = ``coulomb._MC_ROTATIONS``, the turns each draw is averaged over."""
    rotations = coulomb._MC_ROTATIONS
    return np.exp(2j * np.pi * np.arange(rotations) / rotations)


@np.errstate(over="ignore", invalid="ignore")
def reference_mc_worker(task, workers):
    """``coulomb._mc_worker`` with fresh arrays per batch and every coefficient of Φ_N.

    The reference for the bits of the Monte Carlo kernel, which draws into
    reused buffers, carries only the top and bottom min(K, N)+1 coefficients
    of Φ_k and keeps the power sums and their turned pairings in reused rows.
    Here a batch's uniforms are a new array, the recursion
    Φ_{k+1}[m] = Φ_k[m] - conj(Φ_k*)[m-1]·ᾱ_k builds each Φ_k as a new list
    of rows, highest degree first, Newton's identities take p_k from every
    coefficient of Φ_N, and a draw's value is the mean over d < R of
    exp(2 Re Σ_k l_k e^{2πidk/R} p_k); the substream is
    ``SeedSequence(seed).spawn(workers)[index]``.
    """
    coeffs, n, count, seed, index = task
    points = n + 1
    rotations = coulomb._MC_ROTATIONS
    steps = (np.arange(rotations)[:, None] * np.arange(1, len(coeffs) + 1)) % rotations
    turns = steps * (2.0 * np.pi / rotations)
    table = np.asarray(coeffs, dtype=complex) * (np.cos(turns) + 1j * np.sin(turns))
    child = np.random.SeedSequence(seed).spawn(workers)[index]
    rng = np.random.default_rng(child)
    total = 0.0
    total_sq = 0.0
    k = 0
    done = 0
    while done < count:
        batch = min(coulomb._MC_BATCH, count - done)
        u = rng.random((batch, 2 * points - 1))
        # e^{-iψ_k}, row k, as (t² - 1 + 2it)/(1 + t²) with t = tan(π(u - 1/2))
        t = np.tan(np.pi * (np.ascontiguousarray(u[:, points - 1 :].T) - 0.5))
        scale = 1.0 + t * t
        abar = np.empty(t.shape, dtype=complex)
        abar.real = (t * t - 1.0) / scale
        abar.imag = 2.0 * t / scale
        ratio = np.log(1.0 - np.ascontiguousarray(u[:, : points - 1].T))
        ratio /= np.arange(points - 1, 0, -1.0)[:, None]
        abar[:-1] *= np.sqrt(-np.expm1(ratio))
        phi = [np.ones(batch, dtype=complex)]
        for a in abar:
            star = [np.conj(c) for c in reversed(phi)]  # Φ_k* highest degree first
            phi = (
                [phi[0]]
                + [phi[m] - star[m - 1] * a for m in range(1, len(phi))]
                + [-(star[-1] * a)]
            )
        sums = []
        for j in range(1, len(coeffs) + 1):
            p_j = phi[j] * -j if j <= points else np.zeros(batch, dtype=complex)
            for m in range(1, min(j - 1, points) + 1):
                p_j = p_j - phi[m] * sums[j - 1 - m]
            sums.append(p_j)
        power_sums = np.array(sums).reshape(len(coeffs), batch)
        f = np.exp((table @ power_sums).real * 2.0).mean(axis=0)
        shift = max(0, int(np.frexp(np.max(f))[1]) - k)
        total, total_sq, k = math.ldexp(total, -shift), math.ldexp(total_sq, -2 * shift), k + shift
        f = np.ldexp(f, -k)
        total += float(np.sum(f))
        total_sq += float(np.sum(f * f))
        done += batch
    return total, total_sq, count, k


def reference_cue_zeros(n, count, seed, index, workers):
    """Zeros of the paraorthogonal Φ_{n+1} of each of ``count`` CUE(n+1) draws, in one shot.

    The worker's (count, 2N-1) uniforms, from ``SeedSequence(seed).spawn(workers)[index]``:
    α_k = sqrt(1 - (1-u)^{1/(N-k-1)}) e^{2πiu'} with |α_{N-1}| = 1, every
    coefficient of Φ_N by the textbook Szegő recursion, and the zeros as
    ``np.roots`` takes them, the eigenvalues of the companion matrix, for
    every draw in one batched call.
    """
    points = n + 1
    child = np.random.SeedSequence(seed).spawn(workers)[index]
    u = np.random.default_rng(child).random((count, 2 * points - 1))
    alpha = np.exp(2j * np.pi * u[:, points - 1 :])
    beta_exponents = 1.0 / np.arange(points - 1, 0, -1)
    alpha[:, :-1] *= np.sqrt(1.0 - (1.0 - u[:, : points - 1]) ** beta_exponents)
    phi = np.ones((count, 1), dtype=complex)  # Φ_k, highest degree first
    for k in range(points):
        star = np.conj(phi[:, ::-1])  # Φ_k*(z) = z^k conj(Φ_k(1/z̄))
        shifted = np.pad(phi, ((0, 0), (0, 1)))  # zΦ_k
        phi = shifted - np.conj(alpha[:, k : k + 1]) * np.pad(star, ((0, 0), (1, 0)))
    companion = np.zeros((count, points, points), dtype=complex)
    companion[:, 0, :] = -phi[:, 1:]
    companion[:, np.arange(1, points), np.arange(points - 1)] = 1.0
    return np.linalg.eigvals(companion)


def cue_power_sums(points, count, seed, top_k):
    """(top_k, count) power sums p_1..p_K of ``count`` CUE(points) draws, by the worker's helpers.

    Batch by batch as ``_mc_worker`` draws them: ``_conj_alphas`` on fresh
    uniforms, then ``_top_coefficients`` and ``_power_sums``; no determinant
    and no symbol is read.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for start in range(0, count, coulomb._MC_BATCH):
        batch = min(coulomb._MC_BATCH, count - start)
        u = rng.random((batch, 2 * points - 1))
        abar = coulomb._conj_alphas(
            u, np.empty((points, batch), dtype=complex), np.empty((points, batch))
        )
        ends = np.empty((4, min(top_k, points) + 1, batch), dtype=complex)
        top = coulomb._top_coefficients(abar, *ends)
        rows.append(coulomb._power_sums(top, np.empty((top_k + 1, batch), dtype=complex)))
    return np.concatenate(rows, axis=1)


def assert_mean_within(samples, want, sigmas, label):
    """The sample mean of ``samples`` is within ``sigmas`` standard errors of ``want``."""
    mean = np.mean(samples)
    std_err = np.std(samples, ddof=1) / math.sqrt(samples.size)
    assert abs(mean - want) <= sigmas * std_err, (label, mean, want, std_err)


def cholesky_Dn(s, n):
    return math.exp(log_det_direct(assemble(moments(s, n), n)))


def rotated_moment(s, n, j):
    """E[g^j] under CUE(n+1) for the worker's g = mean_d Π_i w(θ_i + 2πd/R), by Cholesky.

    g^j averages Π_i τ_{d_1}w ⋯ τ_{d_j}w(θ_i) over (d_1..d_j), where τ_d w(θ) =
    w(θ + 2πd/R) has log-coefficients l_k e^{2πidk/R}; Haar measure does not
    change under one turn, so d_1 = 0 and E[g^j] = R^{1-j} Σ D_n(w·τ_{d_2}w ⋯ τ_{d_j}w).
    """
    rotations = coulomb._MC_ROTATIONS
    turns = rotation_turns()
    total = 0.0
    for ds in itertools.product(range(rotations), repeat=j - 1):
        product = LaurentSymbol(
            (j * s.mean,)
            + tuple(
                complex(l_k) * (1.0 + sum(turns[(d * k) % rotations] for d in ds))
                for k, l_k in enumerate(s.coeffs[1:], start=1)
            )
        )
        total += cholesky_Dn(product, n)
    return total / rotations ** (j - 1)


class TestVandermonde:
    """The pair gaps that ``exact_Dn`` integrates, multiplied out over one set of points."""

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
        log_v = log_vandermonde_sq(z)
        assert np.exp(log_v) == pytest.approx(self.direct(z), rel=1e-12)

    def test_batch_along_the_first_axis(self):
        rng = np.random.default_rng(21)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(50, 9))
        z = np.exp(1j * theta)
        log_v = log_vandermonde_sq(z.T)
        assert log_v.shape == (50,)
        want = [self.direct(row) for row in z]
        assert np.exp(log_v) == pytest.approx(want, rel=1e-12)
        assert log_v == pytest.approx(sin_log_pair_gaps(theta), rel=1e-12, abs=1e-12)

    def test_coincident_points_give_minus_inf(self):
        z = np.exp(1j * np.array([[0.3, 1.1, 0.3, 2.0], [0.5, 1.5, 2.5, 3.5]]))
        log_v = log_vandermonde_sq(z.T)
        assert log_v[0] == -np.inf
        assert np.isfinite(log_v[1])


class TestBufferedPairGaps:
    """Reused buffers against fresh arrays, bit for bit: the gas worker."""

    @pytest.mark.parametrize("n", range(1, coulomb.MC_MAX_N + 1))
    @pytest.mark.parametrize("count", [20_001, 2 * coulomb._MC_BATCH + 1])
    def test_worker_is_the_reference_kernel_bit_for_bit(self, suite, n, count):
        # two-band keeps K < N at n ≥ 2; Bernstein–Szegő's K = 48 runs Newton past N
        for name in ("two-band", "bernstein-szego"):
            # complex l_k by rotation, and l_0 = 0 as mc_Dn passes it
            coeffs = [complex(c) * np.exp(0.7j * k) for k, c in enumerate(suite[name].coeffs)]
            task = (tuple(coeffs[1:]), n, count, 23, 1)
            assert coulomb._mc_worker(task) == reference_mc_worker(task, workers=2), name


class TestPhases:
    """The phases e^{-2πiu} of the draws, taken by a half-angle tangent with no cos or sin."""

    EDGES = [0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)]

    @staticmethod
    def phases(u):
        """e^{-2πiu} as ``_conj_alphas`` takes it: a CUE(1) draw is its phase alone."""
        u = np.asarray(u, dtype=float).reshape(-1, 1)
        out = np.empty((1, u.shape[0]), dtype=complex)
        return coulomb._conj_alphas(u, out, np.empty((1, u.shape[0])))[0]

    def test_the_map_is_the_complex_exponential(self):
        u = np.concatenate([np.random.default_rng(61).random(10**6), self.EDGES])
        z = self.phases(u)
        assert np.all(np.isfinite(z))
        assert np.max(np.abs(z - np.exp(-2j * np.pi * u))) <= 2e-15
        assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-15

    def test_the_map_against_extended_precision(self):
        mpmath = pytest.importorskip("mpmath")
        u = np.concatenate([np.random.default_rng(62).random(500), self.EDGES])
        z = self.phases(u)
        with mpmath.workdps(30):
            for u_j, z_j in zip(u, z):
                want = mpmath.expjpi(-2 * mpmath.mpf(float(u_j)))
                assert abs(mpmath.mpc(z_j.real, z_j.imag) - want) <= 1e-15, u_j

    def test_no_batch_goes_through_cos_or_sin(self, monkeypatch):
        # the worker's only trigonometry is its (R, K) table of turned coefficients
        sizes = []

        def recorded(fn):
            return lambda theta, *args, **kwargs: (
                sizes.append(np.size(theta)) or fn(theta, *args, **kwargs)
            )

        monkeypatch.setattr(coulomb, "circle_points", recorded(coulomb.circle_points))
        monkeypatch.setattr(np, "cos", recorded(np.cos))
        monkeypatch.setattr(np, "sin", recorded(np.sin))
        coeffs = (0.5, 0.25)
        coulomb._mc_worker((coeffs, coulomb.MC_MAX_N, 20_001, 3, 0))
        assert sizes and max(sizes) <= coulomb._MC_ROTATIONS * len(coeffs)


class TestCUEPowerSums:
    """The draws against exact moments of CUE(N) power sums p_k = tr U^k, with no determinant."""

    SAMPLES = 200_000
    TOP_K = 6  # past every N here, so Newton's identities run past the degree

    @pytest.mark.parametrize("points", [2, 3, 5])
    def test_diaconis_shahshahani(self, points):
        # E[p_j conj(p_k)] = δ_jk min(k, N) and E[p_k] = 0
        p = cue_power_sums(points, self.SAMPLES, 41 + points, self.TOP_K)
        for j in range(1, self.TOP_K + 1):
            p_j = p[j - 1]
            assert_mean_within(p_j.real, 0.0, 5.0, ("Re p", j))
            assert_mean_within(p_j.imag, 0.0, 5.0, ("Im p", j))
            for k in range(j, self.TOP_K + 1):
                pair = p_j * np.conj(p[k - 1])
                want = min(k, points) if j == k else 0.0
                assert_mean_within(pair.real, want, 5.0, ("Re p conj p", j, k))
                assert_mean_within(pair.imag, 0.0, 5.0, ("Im p conj p", j, k))

    @pytest.mark.parametrize(
        "points, counts", [(2, (1, 2, 5, 14)), (3, (1, 2, 6, 23)), (5, (1, 2, 6, 24))]
    )
    def test_rains_moments_of_the_trace(self, points, counts):
        # E|p_1|^{2a} is the number of permutations of a letters whose longest
        # increasing subsequence is at most N
        p_1 = cue_power_sums(points, self.SAMPLES, 53 + points, 1)[0]
        size_sq = np.abs(p_1) ** 2
        for a, want in enumerate(counts, start=1):
            assert_mean_within(size_sq**a, want, 5.0, ("E|p_1|^2a", a))


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
        weights = {**suite, "l_1 = 5": make_symbol({1: 5.0, -1: 5.0})}
        for name, s in weights.items():
            m = moments(s, 2)
            for n in range(3):
                est = exact_Dn(s, n)
                truth = math.exp(log_det_direct(assemble(m, n)))
                assert est.value == pytest.approx(truth, rel=1e-8), (name, n)

    def test_samples_are_the_last_grid_and_the_suite_stops_early(self, suite):
        # the grid doubles from max(64, 2(n+K)+1) by the one stop rule; the suite
        # converges one doubling later, far below the 1024-point cap
        for name, s in suite.items():
            start = max(64, 2 * (2 + s.bandwidth) + 1)
            est = exact_Dn(s, 2)
            grid = round(est.samples ** (1 / 3))
            assert est.samples == grid**3, name
            assert grid == 2 * start and grid <= 256, name

    def test_grid_doubles_up_to_1024_points(self, cos_symbol, monkeypatch):
        # l_2 = 30 needs 512 points per axis, past every suite weight
        assert math.isqrt(exact_Dn(make_symbol({2: 30.0, -2: 30.0}), 1).samples) == 512
        # an integrand that never settles stops at the cap, 1024 points per axis,
        # which SZEGO_LAB_GRID_MAX may lower but not raise
        grids = []
        monkeypatch.setattr(coulomb, "_exact_on_grid", lambda s, n, m: grids.append(m) or 1 + 1 / m)
        monkeypatch.setenv("SZEGO_LAB_GRID_MAX", str(2**30))
        with pytest.raises(QuadratureError, match="grid cap 1024"):
            exact_Dn(cos_symbol, 2)
        assert grids == [64, 128, 256, 512, 1024]
        grids.clear()
        monkeypatch.setenv("SZEGO_LAB_GRID_MAX", "128")
        with pytest.raises(QuadratureError, match="grid cap 128"):
            exact_Dn(cos_symbol, 2)
        assert grids == [64, 128]

    def test_rejects_large_n(self, cos_symbol):
        with pytest.raises(ValueError):
            exact_Dn(cos_symbol, 3)


class TestMonteCarlo:
    def test_lebesgue_n2_covers_unity(self):
        # every CUE sample of Π_j w(θ_j) is exactly 1
        est = mc_Dn(make_symbol({}), 2, samples=1_000_000, seed=11)
        assert est.value == 1.0 and est.std_err == 0.0

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

    def test_pool_never_outnumbers_the_cores(self, cos_symbol, monkeypatch):
        # the substreams follow `workers`, not the pool, so the cap changes no result
        sizes = []

        class InlinePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(task) for task in tasks]

        # mc_Dn imports multiprocessing in its pool branch: the same module object
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=InlinePool)
        )
        # the pool follows the CPUs this process may run on (as under `taskset -c 0`),
        # not the machine's count
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pooled = mc_Dn(cos_symbol, 3, samples=64_000, seed=4, workers=64)
        assert sizes == [2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        inline = mc_Dn(cos_symbol, 3, samples=64_000, seed=4, workers=64)
        assert sizes == [2]
        assert (pooled.value, pooled.std_err) == (inline.value, inline.std_err)
        # with no affinity call, os.cpu_count() sizes the pool
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        unpinned = mc_Dn(cos_symbol, 3, samples=64_000, seed=4, workers=64)
        assert sizes == [2, 2]
        assert (unpinned.value, unpinned.std_err) == (inline.value, inline.std_err)

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
    def test_worker_batches_match_a_one_shot_reference(self, suite, count):
        # the same (count, 2N-1) stream in one draw, through every coefficient of
        # Φ_N and its zeros: a dropped, repeated or reordered draw shows, and the
        # K = 48 Bernstein–Szegő symbol runs Newton's identities past N; L on the
        # turned zeros checks the rule p_k → e^{2πidk/R} p_k
        seed, index, workers = 17, 1, 3
        for n in range(1, coulomb.MC_MAX_N + 1):
            zeros = reference_cue_zeros(n, count, seed, index, workers)
            assert np.max(np.abs(np.abs(zeros) - 1.0)) <= 1e-12, n
            for name in ("cosine", "two-band", "bernstein-szego"):
                # complex l_k by rotation, and l_0 = 0 as the samples see it
                coeffs = [complex(c) * np.exp(0.7j * k) for k, c in enumerate(suite[name].coeffs)]
                total, total_sq, done, k = coulomb._mc_worker((coeffs[1:], n, count, seed, index))
                s = LaurentSymbol((0.0, *coeffs[1:]))
                # each draw's zeros turned by every e^{2πid/R}, not its power sums
                turned = rotation_turns()[:, None, None] * zeros
                f = np.mean(np.exp(np.sum(eval_log_weight_z(s, turned), axis=-1)), axis=0)
                assert done == count
                assert math.ldexp(total, k) == pytest.approx(float(np.sum(f)), rel=1e-12), (name, n)
                assert math.ldexp(total_sq, 2 * k) == pytest.approx(
                    float(np.sum(f * f)), rel=1e-12
                ), (name, n)

    @pytest.mark.parametrize(
        "seed, workers, index", [(7, 4, 3), (0, 1, 0), (123456789, 64, 63), (2**40, 3, 1)]
    )
    def test_substream_is_the_spawned_child(self, seed, workers, index):
        child = np.random.SeedSequence(seed).spawn(workers)[index]
        direct = coulomb._substream(seed, index)
        assert np.array_equal(direct.generate_state(8), child.generate_state(8))
        assert np.random.default_rng(direct).random() == np.random.default_rng(child).random()

    def test_suite_weights_within_four_sigma_of_cholesky(self, suite):
        for name, s in suite.items():
            for n in range(1, coulomb.MC_MAX_N + 1):
                truth = cholesky_Dn(s, n)
                est = mc_Dn(s, n, samples=50_000, seed=100 + n)
                # Lebesgue: std_err is 0, and the truth 1 up to the Cholesky rounding
                assert abs(est.value - truth) <= 4.0 * est.std_err + 1e-12 * truth, (name, n)

    @pytest.mark.parametrize("name", ["cosine", "two-band"])
    def test_relative_variance_is_the_determinant_ratio(self, suite, name):
        # g = mean_d f_d with f_d = Π_j w(θ_j + 2πd/R), and under CUE
        # E[g^j] = R^{1-j} Σ D_n(w·τ_{d_2}w ⋯ τ_{d_j}w), so
        # Var g / (E g)² = (1/R) Σ_d D_n(w·τ_d w)/D_n(w)² - 1;
        # the tolerance is 5 delta-method standard errors of the observed ratio
        s, n, samples = suite[name], 8, 200_000
        d1, d2, d3, d4 = (rotated_moment(s, n, j) for j in (1, 2, 3, 4))
        predicted = d2 / d1**2 - 1.0
        est = mc_Dn(s, n, samples=samples, seed=29)
        observed = samples * (est.std_err / est.value) ** 2
        g1, g2 = -2.0 * d2 / d1**3, 1.0 / d1**2
        var_f, var_f2, cov = d2 - d1 * d1, d4 - d2 * d2, d3 - d1 * d2
        spread = g1 * g1 * var_f + 2.0 * g1 * g2 * cov + g2 * g2 * var_f2
        assert abs(observed - predicted) <= 5.0 * math.sqrt(spread / samples)

    def test_range_checks(self, cos_symbol):
        with pytest.raises(ValueError):
            mc_Dn(cos_symbol, 0, samples=20_000, seed=1)
        with pytest.raises(ValueError):
            mc_Dn(cos_symbol, 9, samples=20_000, seed=1)
        with pytest.raises(ValueError):
            mc_Dn(cos_symbol, 3, samples=100, seed=1)
