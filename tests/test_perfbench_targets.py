"""The benchmark's layer spans against today's src.

``perfbench/workloads.py:layer_targets`` wraps functions by module and name, and
its counters read fields of their results (``_states`` iterates a ``Trajectory``
and reads ``.phi.coeffs`` and ``.phi_star``; ``_grid_points`` reads
``.quadrature_points``).  A rename in src breaks them only when a traced
benchmark runs; these tests catch it in the tier-1 suite.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

from szego_lab import make_symbol, moments, toeplitz, trajectory  # noqa: E402

COSINE = make_symbol({1: 0.5, -1: 0.5})


def real_arguments(attr: str) -> tuple:
    """Small real arguments for each target that carries a counter."""
    traj = trajectory(moments(COSINE, 6), 6)
    z = np.array([0.3 + 0.1j, -0.2j])
    return {
        "moments": (COSINE, 6),
        "moments_from_function": (lambda theta: np.exp(np.cos(theta)), 6),
        "trajectory": (moments(COSINE, 6), 6),
        "log_det_direct": (toeplitz.assemble(moments(COSINE, 6), 6),),
        "adaptive_circle_mean": (lambda theta: np.exp(np.cos(theta)),),
        "mc_Dn": (COSINE, 2, 10_000, 1),
        "kernel_sum": (traj, 5, z, z),
    }[attr]


def test_every_target_resolves():
    targets = workloads.layer_targets()
    assert targets
    for module, attr, span, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} for {span}"


def test_every_counter_reads_a_real_result():
    counted = 0
    for module, attr, span, counter in workloads.layer_targets():
        if counter is None:
            continue
        args = real_arguments(attr)
        counts = counter(getattr(module, attr)(*args), *args)
        assert counts, span
        for key, amount in counts.items():
            assert isinstance(key, str) and math.isfinite(amount) and amount > 0, (span, key)
        counted += 1
    assert counted >= 7


def test_state_counter_sees_every_degree():
    traj = trajectory(moments(COSINE, 6), 6)
    counts = workloads._states(traj)
    assert counts["opuc.states_held"] == 7
    # Φ_k and Φ_k* hold k + 1 complex128 coefficients each
    assert counts["opuc.coeff_bytes_computed"] == 16 * 2 * sum(k + 1 for k in range(7))

