"""Numerical laboratory for Toeplitz determinants of analytic weights on the circle.

The pipeline: a log-weight L (module :mod:`symbol`) produces moments, the
Szegő recursion (:mod:`opuc`) produces Verblunsky coefficients, and three
mutually independent determinant routes (:mod:`toeplitz`, :mod:`coulomb`)
feed the verification suites (:mod:`verify`, :mod:`cdkernel`,
:mod:`szego_fn`) that test the limit
D_n(e^L) e^{-(n+1) l_0} → exp(Σ_{k≥1} k |l_k|²) and every identity around it.

Every public name is loaded on first use (PEP 562): ``import szego_lab``
imports no submodule, and ``szego_lab.NAME`` imports NAME's home module and
what that module imports, so a command-line run loads only what it uses.
"""

from importlib import import_module as _import_module

_HOMES = {
    "symbol": (
        "LaurentSymbol",
        "MomentSequence",
        "eval_log_weight",
        "eval_weight",
        "gi_truncate",
        "load_symbol",
        "make_symbol",
        "moments",
        "target_sum",
    ),
    "opuc": (
        "MonicPoly",
        "RecursionState",
        "Trajectory",
        "inverse_step",
        "orthonormal",
        "orthonormal_star",
        "run_to",
        "trajectory",
        "winding_check",
        "zeros_in_disk",
    ),
    "toeplitz": (
        "assemble",
        "ledger",
        "log_det_direct",
        "log_det_minors",
        "log_det_product",
        "log_dn_and_g",
    ),
    "szego_fn": (
        "alpha_from_D",
        "decay_fit",
        "disk_integral_check",
        "eval_D",
        "inverse_coeffs",
        "phi_star_convergence",
    ),
    "coulomb": ("CoulombEstimate", "exact_Dn", "mc_Dn"),
    "cdkernel": (
        "kernel_cd",
        "kernel_diag_boundary",
        "kernel_sum",
        "normalization_check",
    ),
    "verify": (
        "BSApproxBundle",
        "ConvergenceReport",
        "bs_approximation",
        "bs_log_weight",
        "default_suite",
        "feynman_hellman_check",
        "gi_bound_check",
        "integrated_identity_check",
        "strong_szego_report",
    ),
    "errors": (
        "ConjugateSymmetryError",
        "InsufficientDataError",
        "InvariantViolation",
        "PositivityError",
        "QuadratureError",
        "RecursionConsistencyError",
        "SymbolParseError",
        "SzegoLabError",
    ),
    "quadrature": (),
    "textio": (),
}

#: public name -> home submodule; a submodule is its own home
_HOME_OF = {module: module for module in _HOMES}
_HOME_OF.update((name, module) for module, names in _HOMES.items() for name in names)

__all__ = sorted(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _import_module(f".{module}", __name__)
    value = home if name == module else getattr(home, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
