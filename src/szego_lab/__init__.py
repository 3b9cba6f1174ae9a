"""Numerical laboratory for Toeplitz determinants of analytic weights on the circle.

The pipeline: a log-weight L (module :mod:`symbol`) produces moments, the
Szegő recursion (:mod:`opuc`) produces Verblunsky coefficients, and three
mutually independent determinant routes (:mod:`toeplitz`, :mod:`coulomb`)
feed the verification suites (:mod:`verify`, :mod:`cdkernel`,
:mod:`szego_fn`) that test the limit
D_n(e^L) e^{-(n+1) l_0} → exp(Σ_{k≥1} k |l_k|²) and every identity around it.
"""

from .symbol import (
    LaurentSymbol,
    MomentSequence,
    eval_log_weight,
    eval_weight,
    gi_truncate,
    load_symbol,
    make_symbol,
    moments,
    target_sum,
)
from .opuc import (
    MonicPoly,
    RecursionState,
    init_state,
    inverse_step,
    orthonormal,
    orthonormal_star,
    run_to,
    step,
    trajectory,
    zeros_in_disk,
)
from .toeplitz import (
    assemble,
    ledger,
    log_det_direct,
    log_det_minors,
    log_det_product,
    log_dn_and_g,
)
from .szego_fn import (
    SzegoSeries,
    alpha_from_D,
    build_szego,
    decay_fit,
    disk_integral_check,
    eval_D,
    inverse_coeffs,
    phi_star_convergence,
)
from .coulomb import CoulombEstimate, exact_Dn, mc_Dn, vandermonde_sq
from .cdkernel import (
    kernel_cd,
    kernel_diag_boundary,
    kernel_sum,
    normalization_check,
)
from .verify import (
    BSApproxBundle,
    ConvergenceReport,
    bs_approximation,
    bs_log_weight,
    default_suite,
    feynman_hellman_check,
    gi_bound_check,
    integrated_identity_check,
    strong_szego_report,
)
from .errors import (
    ConjugateSymmetryError,
    InsufficientDataError,
    InvariantViolation,
    PositivityError,
    QuadratureError,
    RecursionConsistencyError,
    SymbolParseError,
    SzegoLabError,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
