"""Szegő recursion: Verblunsky extraction, norms, inversion, and zero location."""

import tracemalloc

import numpy as np
import pytest

from szego_lab import (
    MonicPoly,
    PositivityError,
    RecursionConsistencyError,
    assemble,
    init_state,
    inverse_step,
    make_symbol,
    moments,
    orthonormal,
    run_to,
    step,
    trajectory,
    zeros_in_disk,
)
from szego_lab.opuc import reversed_conj
from szego_lab.symbol import MomentSequence
from szego_lab.verify import bs_log_weight

from conftest import bessel_i, geometric_moments, gram_schmidt_monic


def inner(p, q, gram):
    """⟨p, q⟩ = Σ conj(p_a) q_b c_{a-b}, with gram[a, b] = c_{a-b}."""
    return complex(np.conj(p) @ gram[: len(p), : len(q)] @ q)


class TestInitState:
    def test_unit_mass(self):
        state = init_state(MomentSequence((1.0,)))
        assert state.norm_sq == 1.0
        assert state.phi.degree == 0

    def test_cosine_mass(self, cos_symbol):
        m = moments(cos_symbol, 0)
        state = init_state(m)
        assert state.norm_sq == pytest.approx(bessel_i(0), abs=1e-14)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(PositivityError):
            MomentSequence((-0.5,))


class TestStep:
    def test_lebesgue_alphas_vanish(self):
        m = moments(make_symbol({}), 6)
        state = run_to(m, 5)
        assert np.all(np.abs(np.asarray(state.alphas)) < 1e-14)
        assert np.allclose(state.phi.coeffs[:-1], 0.0, atol=1e-14)

    def test_geometric_first_step(self):
        m = geometric_moments(0.5, 2)
        state = step(init_state(m), m)
        assert state.alphas[0] == pytest.approx(0.5, abs=1e-15)
        assert state.norm_sq == pytest.approx(0.75, abs=1e-15)
        assert np.allclose(state.phi.coeffs, [-0.5, 1.0], atol=1e-15)

    def test_cosine_first_step(self, cos_symbol):
        # one-step Gram-Schmidt gives Phi_1 = z - c_1/c_0, so
        # alpha_0 = -conj(Phi_1(0)) = +c_1/c_0
        m = moments(cos_symbol, 1)
        state = step(init_state(m), m)
        expected = bessel_i(1) / bessel_i(0)
        assert state.alphas[0] == pytest.approx(expected, abs=1e-13)
        assert abs(expected - 0.446390) < 1e-6

    def test_requires_enough_moments(self):
        m = geometric_moments(0.5, 1)
        state = step(init_state(m), m)
        with pytest.raises(ValueError):
            step(state, m)

    def test_linear_alpha_matches_the_gram_quadratic_form(self, suite):
        # ᾱ_n = ⟨Φ_n*, zΦ_n⟩/‖Φ_n‖² evaluated densely, against the O(n) sum
        for name, s in suite.items():
            m = moments(s, 26)
            gram = assemble(m, 26).T
            states = trajectory(m, 26)
            for prev, nxt in zip(states, states[1:]):
                z_phi = np.concatenate([[0.0], prev.phi.coeffs])
                reference = inner(prev.phi_star, z_phi, gram) / prev.norm_sq
                assert abs(np.conj(nxt.alphas[-1]) - reference) <= 1e-13, (name, prev.n)

    def test_indefinite_moments_surface_as_positivity_error(self):
        bad = MomentSequence((1.0, 1.5))
        with pytest.raises(PositivityError):
            step(init_state(bad), bad)

    def test_nan_alpha_surfaces_as_positivity_error(self):
        bad = MomentSequence((1.0, np.nan, 0.1))
        with pytest.raises(PositivityError):
            step(init_state(bad), bad)


class TestRunTo:
    def test_geometric_is_a_single_coefficient_measure(self):
        m = geometric_moments(0.5, 4)
        state = run_to(m, 3)
        alphas = np.asarray(state.alphas)
        assert alphas[0] == pytest.approx(0.5, abs=1e-14)
        assert np.all(np.abs(alphas[1:]) < 1e-14)

    def test_matches_dense_gram_schmidt(self, two_band_symbol):
        m = moments(two_band_symbol, 12)
        gram = assemble(m, 12).T
        polys, norms = gram_schmidt_monic(gram, 10)
        states = trajectory(m, 10)
        for d in range(11):
            assert np.allclose(states[d].phi.coeffs, polys[d], atol=1e-11)
            assert states[d].norm_sq == pytest.approx(norms[d], rel=1e-11)

    def test_keeps_only_the_current_state(self):
        m = moments(bs_log_weight(0.97), 1600)
        tracemalloc.start()
        try:
            run_to(m, 1600)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_cosine_alphas_decay(self, cos_symbol):
        m = moments(cos_symbol, 21)
        mags = np.abs(np.asarray(run_to(m, 20).alphas))
        usable = mags[mags > 1e-13]
        assert np.all(np.diff(np.log(usable)) < 0.0)

    @pytest.mark.parametrize(
        "name", ["lebesgue", "cosine", "two-band", "offset", "bernstein-szego"]
    )
    def test_is_the_last_state_of_the_trajectory_bitwise(self, suite, name):
        m = moments(suite[name], 200)
        state = run_to(m, 200)
        last = trajectory(m, 200)[-1]
        assert state.n == last.n == 200
        assert state.alphas == last.alphas
        assert np.array_equal(state.phi.coeffs, last.phi.coeffs)
        assert state.norm_sq == last.norm_sq

    def test_raises_at_the_degree_where_stepping_raises(self):
        # c_0..c_3 of the geometric measure a = 0.5, then a c_4 that no
        # positive measure has: α_3 is the first coefficient to leave the disk
        m = MomentSequence((1.0, 0.5, 0.25, 0.125, 5.0))
        state = init_state(m)
        for _ in range(3):
            state = step(state, m)
        with pytest.raises(PositivityError) as stepped:
            step(state, m)
        with pytest.raises(PositivityError) as ran:
            run_to(m, 4)
        assert str(ran.value) == str(stepped.value)
        assert "alpha_3" in str(ran.value)


@pytest.fixture(scope="module")
def offset_run(suite):
    m = moments(suite["offset"], 26)
    return m, trajectory(m, 25)


class TestRecursionInvariants:
    def test_norms_decrease(self, offset_run):
        _, states = offset_run
        norms = [st.norm_sq for st in states]
        assert np.all(np.diff(norms) <= 0.0)

    def test_norm_update_matches_moment_recomputation(self, offset_run):
        m, states = offset_run
        gram = assemble(m, 26).T
        for st in states[1:]:
            recomputed = np.real(inner(st.phi.coeffs, st.phi.coeffs, gram))
            assert st.norm_sq == pytest.approx(recomputed, rel=1e-12)

    def test_orthogonality_against_lower_monomials(self, offset_run):
        m, states = offset_run
        gram = assemble(m, 26).T
        for st in (states[5], states[15], states[25]):
            for j in range(st.n):
                e_j = np.zeros(j + 1, dtype=complex)
                e_j[j] = 1.0
                assert abs(inner(e_j, st.phi.coeffs, gram)) < 1e-10 * m.c0

    def test_reversal_is_an_involution(self, offset_run):
        _, states = offset_run
        for st in states:
            twice = reversed_conj(reversed_conj(st.phi.coeffs))
            assert np.array_equal(twice, st.phi.coeffs)

    def test_phi_star_is_exactly_the_reversal(self, offset_run):
        _, states = offset_run
        for st in states:
            assert np.array_equal(st.phi_star, reversed_conj(st.phi.coeffs))

    def test_star_recursion_identity(self, offset_run):
        # Phi_{n+1}* = Phi_n* - alpha_n z Phi_n holds to rounding
        _, states = offset_run
        for prev, nxt in zip(states, states[1:]):
            alpha = nxt.alphas[-1]
            expected = np.concatenate([prev.phi_star, [0.0]]).astype(complex)
            expected[1:] -= alpha * prev.phi.coeffs
            assert np.allclose(nxt.phi_star, expected, atol=1e-13)


class TestInverseStep:
    def test_round_trip_recovers_previous_state(self, suite):
        m = moments(suite["two-band"], 13)
        states = trajectory(m, 12)
        for prev, nxt in zip(states, states[1:]):
            phi, star = inverse_step(nxt.phi, nxt.phi_star, nxt.alphas[-1])
            assert np.allclose(phi.coeffs, prev.phi.coeffs, atol=1e-12)
            assert np.allclose(star, prev.phi_star, atol=1e-12)

    def test_explicit_degree_one_inverse(self):
        phi_1 = MonicPoly(np.array([-0.5, 1.0], dtype=complex))
        phi, star = inverse_step(phi_1, reversed_conj(phi_1.coeffs), 0.5)
        assert np.allclose(phi.coeffs, [1.0])
        assert np.allclose(star, [1.0])

    def test_mismatched_alpha_is_rejected(self):
        phi_1 = MonicPoly(np.array([-0.5, 1.0], dtype=complex))
        with pytest.raises(RecursionConsistencyError):
            inverse_step(phi_1, reversed_conj(phi_1.coeffs), 0.3)

    def test_alpha_outside_disk_is_rejected(self):
        phi_1 = MonicPoly(np.array([-0.5, 1.0], dtype=complex))
        with pytest.raises(PositivityError):
            inverse_step(phi_1, reversed_conj(phi_1.coeffs), 1.2)

    def test_nan_alpha_is_rejected(self):
        phi_1 = MonicPoly(np.array([-0.5, 1.0], dtype=complex))
        with pytest.raises(PositivityError):
            inverse_step(phi_1, reversed_conj(phi_1.coeffs), np.nan)


class TestZeros:
    def test_pure_power(self):
        p = MonicPoly(np.array([0, 0, 0, 1.0], dtype=complex))
        max_mod, ok = zeros_in_disk(p)
        assert max_mod == 0.0 and ok

    def test_degree_one(self):
        p = MonicPoly(np.array([-0.5, 1.0], dtype=complex))
        max_mod, ok = zeros_in_disk(p)
        assert max_mod == pytest.approx(0.5, abs=1e-15) and ok

    def test_all_generated_polynomials_have_interior_zeros(self, suite):
        for s in suite.values():
            m = moments(s, 16)
            for st in trajectory(m, 15)[1:]:
                _, ok = zeros_in_disk(st.phi)
                assert ok


class TestOrthonormal:
    def test_lebesgue(self):
        m = moments(make_symbol({}), 4)
        state = run_to(m, 3)
        assert np.allclose(orthonormal(state), [0, 0, 0, 1.0], atol=1e-14)

    def test_geometric_degree_one(self):
        m = geometric_moments(0.5, 2)
        state = run_to(m, 1)
        expected = np.array([-0.5, 1.0]) / np.sqrt(0.75)
        assert np.allclose(orthonormal(state), expected, atol=1e-14)

    def test_kappa_is_reciprocal_norm(self, cos_symbol):
        m = moments(cos_symbol, 6)
        for st in trajectory(m, 5):
            assert st.kappa() * np.sqrt(st.norm_sq) == pytest.approx(1.0, rel=1e-15)
