"""Re-measure the indicative single-layer timings that ROADMAP.md quotes.

    python3 perfbench/roadmap_table.py

Run from the root of a checkout, with the settings run.py gives the
benchmark (one OpenBLAS thread, default grid cap).  Each row is the median of
five runs, set beside the two earlier single-run readings (the ROADMAP
table and a later re-reading); a row more than 2x away from either is flagged.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import BLAS_THREADS

REPEATS = 5
SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))
os.environ.pop("SZEGO_LAB_GRID_MAX", None)
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # read when numpy loads

from szego_lab import coulomb, make_symbol, moments, opuc, toeplitz, verify  # noqa: E402

COSINE = make_symbol({1: 0.5, -1: 0.5})


def _cholesky_per_degree():
    m = moments(COSINE, 400)
    for n in range(401):
        toeplitz.log_det_direct(toeplitz.assemble(m, n))


def _trajectory_bs():
    opuc.trajectory(moments(verify.bs_log_weight(0.97), 1600), 1600)


def _cli_verify():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-m", "szego_lab.cli", "verify", "--coeff", "1=0.5", "--nmax", "40"],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=60,
    )


#: (row, call, ROADMAP reading s, later reading s)
ROWS = [
    ("strong_szego_report cosine N=200",
     lambda: verify.strong_szego_report(COSINE, n_max=200), 0.037, 0.033),
    ("per-degree Cholesky to N=400", _cholesky_per_degree, 0.278, 0.24),
    ("trajectory BS a=0.97 N=1600", _trajectory_bs, 0.40, 0.29),
    ("uniform MC n=8, 10^6 samples, 1 worker",
     lambda: coulomb.mc_Dn(COSINE, 8, samples=1_000_000, seed=1, workers=1), 0.83, 0.80),
    ("CLI verify --nmax 40, end to end", _cli_verify, 0.15, 0.11),
]


def main() -> int:
    print("| layer | median now (s) | ROADMAP (s) | later reading (s) | flag |")
    print("| --- | --- | --- | --- | --- |")
    for name, call, roadmap, later in ROWS:
        call()  # warm
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        now = statistics.median(times)
        off = any(not 0.5 <= now / ref <= 2.0 for ref in (roadmap, later))
        print(f"| {name} | {now:.3f} | {roadmap} | {later} | {'>2x' if off else ''} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
