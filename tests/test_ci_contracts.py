"""Contracts that were CI workflow steps, run in-process in tier-1 instead.

Each test drives ``cli.main`` with the step's argv, or runs the README's Python
example as the step did, and applies the step's gate unchanged, so the contract
has one copy and a break shows up in tier-1 and not only in a CI log.
"""

import json
import math
import re
from pathlib import Path

from szego_lab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


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
