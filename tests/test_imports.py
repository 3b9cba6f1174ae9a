"""Import budget: each command loads only the modules it runs, and the package is lazy.

Most checks run in a fresh interpreter, since this test session has long
since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import szego_lab

SRC = str(Path(szego_lab.__file__).resolve().parents[1])

#: the modules that only some commands need
HEAVY = {"verify", "opuc", "toeplitz", "coulomb", "cdkernel", "szego_fn"}

#: the public surface: 55 functions and classes and the 10 submodules
PUBLIC = sorted([
    "BSApproxBundle", "ConjugateSymmetryError", "ConvergenceReport", "CoulombEstimate",
    "InsufficientDataError", "InvariantViolation", "LaurentSymbol", "MomentSequence",
    "MonicPoly", "PositivityError", "QuadratureError", "RecursionConsistencyError",
    "RecursionState", "SymbolParseError", "SzegoLabError", "Trajectory",
    "alpha_from_D", "assemble", "bs_approximation", "bs_log_weight",
    "decay_fit", "default_suite", "disk_integral_check", "eval_D", "eval_log_weight",
    "eval_weight", "exact_Dn", "feynman_hellman_check", "gi_bound_check", "gi_truncate",
    "integrated_identity_check", "inverse_coeffs", "inverse_step", "kernel_cd",
    "kernel_diag_boundary", "kernel_sum", "ledger", "load_symbol", "log_det_direct",
    "log_det_minors", "log_det_product", "log_dn_and_g", "make_symbol", "mc_Dn", "moments",
    "normalization_check", "orthonormal", "orthonormal_star", "phi_star_convergence",
    "run_to", "strong_szego_report", "target_sum", "trajectory", "winding_check",
    "zeros_in_disk",
    "cdkernel", "coulomb", "errors", "opuc", "quadrature", "symbol", "szego_fn", "textio",
    "toeplitz", "verify",
])

#: prints the loaded szego_lab submodules and whether multiprocessing is loaded
REPORT = (
    "import json, sys\n"
    "print(json.dumps({'modules': sorted(m.split('.', 1)[1] for m in sys.modules"
    " if m.startswith('szego_lab.')), 'multiprocessing': 'multiprocessing' in sys.modules}))\n"
)


def loaded_after(code: str) -> dict:
    """The REPORT of a fresh interpreter after running ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code + "\n" + REPORT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def after_command(*argv: str) -> dict:
    return loaded_after(
        "import contextlib, io\n"
        "from szego_lab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
    )


def test_the_package_alone_loads_no_submodule():
    assert loaded_after("import szego_lab") == {"modules": [], "multiprocessing": False}


def test_the_cli_module_loads_only_what_moments_needs():
    loaded = loaded_after("import szego_lab.cli")
    assert not HEAVY & set(loaded["modules"])
    assert not loaded["multiprocessing"]


def test_moments_loads_no_heavy_module():
    loaded = after_command("moments", "--coeff", "1=0.5", "--nmax", "8")
    assert not HEAVY & set(loaded["modules"])
    assert not loaded["multiprocessing"]


def test_verify_loads_the_recursion_and_the_determinant_but_not_the_other_suites():
    loaded = set(after_command("verify", "--coeff", "1=0.5", "--nmax", "8")["modules"])
    assert {"verify", "opuc", "toeplitz"} <= loaded
    assert not {"coulomb", "cdkernel", "szego_fn"} & loaded


def test_exact_gas_route_loads_no_process_pool():
    loaded = after_command("coulomb", "--coeff", "1=0.5", "--n", "2", "--exact")
    assert "coulomb" in loaded["modules"]
    assert not loaded["multiprocessing"]


def test_a_public_name_loads_its_home_module():
    loaded = set(loaded_after("import szego_lab\nszego_lab.exact_Dn")["modules"])
    assert "coulomb" in loaded
    assert not {"verify", "opuc", "toeplitz", "cdkernel", "szego_fn"} & loaded


def test_public_surface_is_unchanged():
    assert len(PUBLIC) == 65
    assert sorted(szego_lab.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(szego_lab, name) is not None, name
    with pytest.raises(AttributeError):
        szego_lab.no_such_name  # noqa: B018


def test_dir_and_star_import_give_every_public_name():
    # in a fresh interpreter, where no submodule such as cli has been imported yet
    code = (
        "import szego_lab\n"
        "assert not [m for m in __import__('sys').modules if m.startswith('szego_lab.')]\n"
        "public = [name for name in dir(szego_lab) if not name.startswith('_')]\n"
        "assert public == sorted(szego_lab.__all__), public\n"
        "from szego_lab import *\n"
        "missing = [name for name in szego_lab.__all__ if name not in globals()]\n"
        "assert len(szego_lab.__all__) == 65 and not missing, missing\n"
    )
    assert len(loaded_after(code)["modules"]) == 10
