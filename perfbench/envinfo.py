"""The environment a benchmark run is recorded with.

Commit (when the checkout is a git repository) and a digest of the sources,
Python, numpy, the BLAS library with its thread count, the CPU model, its L3
size, the cores available and whether the caller had set SZEGO_LAB_GRID_MAX.
The numpy and BLAS facts come from a child process with the run's environment.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

PROBE_TIMEOUT_S = 30

# Prints numpy's version, its BLAS build record and the BLAS thread count the
# loaded OpenBLAS reports; run in a child so this process never loads numpy.
_NUMPY_PROBE = r"""
import ctypes, json, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
with open("/proc/self/maps") as maps:
    libs = sorted({l.split()[-1] for l in maps if "openblas" in l.lower() and ".so" in l})
for path in libs:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None and threads is None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            threads = fn()
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _l3_size() -> str | None:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def collect(root: Path, env: dict, grid_cap_was_set: bool) -> dict:
    done = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], env=env, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S, check=True)
    info = {
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        **json.loads(done.stdout),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "cores_available": len(os.sched_getaffinity(0)),
        "szego_lab_grid_max_was_set": grid_cap_was_set,
    }
    return info
