"""Contracts that were CI workflow steps, run in tier-1 as well.

Each test drives ``cli.main`` with the step's argv, runs the README's Python
example as the step did, or runs ``python -m szego_lab.cli`` in a subprocess
under the step's resource limit, and applies the step's gate unchanged, so a
break shows up in tier-1 and not only in a CI log.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import szego_lab
from szego_lab import cli

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(szego_lab.__file__).resolve().parents[1])


def run_json(argv, tmp_path, name):
    """Exit code and parsed JSON output of one command."""
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_exact_gas_route_matches_the_product_route_at_n_2(tmp_path):
    # step "Exact gas route against the product route": row n = 2 comes from a
    # --nmax 8 report, because at --nmax 2 limit-convergence fails and verify exits 1
    code, gas = run_json(
        ["coulomb", "--coeff", "1=0.5", "--n", "2", "--exact"], tmp_path, "gas.json"
    )
    assert code == 0
    code, verify = run_json(
        ["verify", "--coeff", "1=0.5", "--nmax", "8", "--format", "json"], tmp_path, "v.json"
    )
    assert code == 0
    row = next(r for r in verify["report"]["rows"] if r["n"] == 2)
    truth = math.exp(row["log_dn"])
    assert abs(gas["value"] - truth) / truth <= 1e-8


def test_gas_route_matches_the_product_route_at_n_8(tmp_path):
    # step "Gas route against the product route": within 5 std_err, and the
    # eight-turn average keeps the relative variance per draw below 0.2
    code, gas = run_json(
        ["coulomb", "--coeff", "1=0.5", "--n", "8", "--samples", "400000", "--seed", "1",
         "--workers", "2"],
        tmp_path,
        "gas.json",
    )
    assert code == 0
    code, verify = run_json(
        ["verify", "--coeff", "1=0.5", "--nmax", "8", "--format", "json"], tmp_path, "v.json"
    )
    assert code == 0
    row = next(r for r in verify["report"]["rows"] if r["n"] == 8)
    z = abs(gas["value"] - math.exp(row["log_dn"])) / gas["std_err"]
    rel_var = gas["samples"] * (gas["std_err"] / gas["value"]) ** 2
    assert z <= 5.0 and rel_var < 0.2, (z, rel_var)


def test_readme_python_example_runs():
    # step "README Python example against the library API": every ```python block runs
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_seeded_monte_carlo_is_byte_identical_from_run_to_run():
    # step "Seeded Monte Carlo is byte-identical from run to run": the README's
    # command twice in fresh processes, through the fork pool
    pythonpath = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    argv = ["coulomb", "--coeff", "1=0.5", "--n", "3", "--samples", "100000", "--seed", "7",
            "--workers", "4"]
    runs = [
        subprocess.run(
            [sys.executable, "-m", "szego_lab.cli", *argv],
            env=dict(os.environ, PYTHONPATH=pythonpath),
            capture_output=True,
            timeout=120,
        )
        for _ in range(2)
    ]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout and json.loads(runs[0].stdout)["seed"] == 7


def test_dense_matrix_that_does_not_fit_exits_4_in_one_line():
    # step "A dense matrix that does not fit ends in one line": `ulimit -v 1500000`
    # (KiB) is too small for the (10001, 10001) factor, which the limit report
    # allocates on its helper thread; the CI step runs the installed script
    resource = pytest.importorskip("resource")
    limit = 1_500_000 * 1024

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    pythonpath = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "szego_lab.cli", "verify", "--coeff", "1=0.5", "--nmax", "10000"],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=pythonpath),
        preexec_fn=cap_address_space,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 4, done.stderr
    assert done.stderr.count(b"\n") == 1, done.stderr
