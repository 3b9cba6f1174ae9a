"""szego-lab benchmark: one seeded workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload limit-suite --seed 1 --seconds 25 --trace 0

    for w in limit-suite deep-recursion gas-mc cli-mix; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done

Run from the root of a checkout.  The program is used from source
(``PYTHONPATH=src``).  Every process gets the same settings on every commit:
``SZEGO_LAB_GRID_MAX`` is removed, so the default grid cap applies, and
OpenBLAS runs one thread.

With ``--trace 0`` the workload runs untraced and the last line of output
holds the end-to-end metrics; set-up time is the median of several fresh
processes.  With ``--trace 1`` a separate run alternates untraced and traced
cycles of ops and reports the per-layer metrics.  Every op is checked and a
failure is counted, never retried.  The run record, with the environment it
ran in, is written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_stats  # noqa: E402
import envinfo  # noqa: E402

WORKLOADS = ("limit-suite", "deep-recursion", "gas-mc", "cli-mix")
#: fresh processes whose set-up is timed, the measuring process included
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
#: beyond --seconds, for set-up, references and the traced extras
RUN_SLACK_S = 100
OUT_DIR = Path(".perfbench")
#: one BLAS thread: on two cores the threaded small factorizations of
#: limit-suite run slower, and the spread between runs triples
BLAS_THREADS = "1"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker(args: list[str], env: dict, timeout: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(run: dict, setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metric values of an untraced run, and the tail's percentile and count."""
    ops = run["ops"]
    by_label = defaultdict(list)
    cost_by_label = defaultdict(list)
    for label, seconds, _, _, value, std_err in ops:
        by_label[label].append(seconds)
        cost_by_label[label].append(bench_stats.time_to_rel_err(seconds, value, std_err))
    tail_s, tail_pct, tail_n = bench_stats.tail([op[1] for op in ops])
    passed = sum(1 for op in ops if op[3])
    metrics = {
        "setup_s": statistics.median([run["setup_s"]] + [s["setup_s"] for s in setups]),
        "op_p50_s": bench_stats.stratified_median(by_label.values()),
        "op_tail_s": tail_s,
        "ops_per_s": passed / run["wall_s"],
        "peak_rss_mib": run["peak_rss_mib"],
        "time_to_1pct_s": bench_stats.stratified_median(cost_by_label.values()),
    }
    beyond = sum(1 for op in ops if op[1] > tail_s)
    return metrics, {"percentile": tail_pct, "samples": tail_n, "beyond": beyond}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    root = Path.cwd()
    src = root / "src"
    if not (src / "szego_lab" / "__init__.py").is_file():
        return fail(f"no szego_lab sources under {src}; run from the root of a checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = dict(os.environ)
    grid_cap_was_set = env.pop("SZEGO_LAB_GRID_MAX", None) is not None
    env["PYTHONPATH"] = str(src)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            setups = [
                worker(["setup", *common], env, SETUP_TIMEOUT_S)
                for _ in range(SETUP_REPEATS - 1)
            ]
        run = worker(
            ["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env,
            args.seconds + RUN_SLACK_S,
        )
        environment = envinfo.collect(root, env, grid_cap_was_set)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(str(exc))

    failures = list(run["failures"])
    for k, s in enumerate(setups):
        if s["failure"] or s["digest"] != run["first_digest"]:
            failures.append(f"set-up process {k}: {s['failure'] or 'first op output differs'}")
    attempted = run["attempted"] + len(setups)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "ops_attempted": attempted,
        "ops_failed": len(failures),
        "failures": failures,
        "ops": [[op[0], op[1], op[2], op[3]] for op in run["ops"]],  # label, s, traced, ok
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"ops_attempted {attempted}, ops_failed {len(failures)}")
    for line in failures[:10]:
        print(f"  FAIL {line}")
    if args.trace:
        values = run["layers"]
        record["layer_shares"] = run["layer_shares"]
        shares = ", ".join(f"{k} {v:.1%}" for k, v in run["layer_shares"].items())
        print(f"self time share of traced op wall time: {shares}")
    else:
        values, record["op_tail"] = end_to_end(run, setups)
        tail = record["op_tail"]
        print(f"op_tail_s is p{tail['percentile']:.1f} of {tail['samples']} ops "
              f"({tail['beyond']} beyond it)")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        return fail("the metrics measured disagree with those BENCHMARK.json declares")
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
