"""Contracts that the CI workflow checks with shell steps, run in-process here too.

Each test drives ``cli.main`` with the workflow's argv and applies the step's
gate unchanged, so a contract that breaks shows up in tier-1 and not only in a
CI log.
"""

import json
import math

from szego_lab import cli


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
