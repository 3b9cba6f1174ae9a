"""One workload process: set-up, the closed-loop measured phase and, when traced, spans.

Run by run.py from the root of a checkout with ``PYTHONPATH=src``:

    python3 perfbench/worker.py run   --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py setup --workload NAME --seed N

``setup`` times only the import of szego_lab, the inputs and the first (cold)
op, and reports a digest of that op's output so the caller can compare it with
the checked first op of the ``run`` process.  ``run`` prints one JSON object
on its last line of output; spans of a traced run are written to
``.perfbench/`` when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import bench_stats
import spans
import workloads

OUT_DIR = Path(".perfbench")
STARTUP_REPEATS = 5
STARTUP_TIMEOUT_S = 30


@dataclass
class OpRecord:
    index: int
    label: str
    seconds: float
    traced: bool
    failure: str | None  # None when the op returned and passed its check
    value: float = 1.0
    std_err: float = 0.0


def run_op(workload, i: int, traced: bool = False, call=None) -> OpRecord:
    """Run and check op ``i`` once.  An exception or a failed check is counted, not raised."""
    call = call or workload.op
    label = workload.label(i)
    start = time.perf_counter()
    try:
        out = call(i)
    except Exception as exc:  # an op that raises is a failed op; the loop goes on
        return OpRecord(i, label, time.perf_counter() - start, traced, f"{type(exc).__name__}: {exc}")
    return checked(workload, OpRecord(i, label, time.perf_counter() - start, traced, None), out)


def checked(workload, record: OpRecord, out) -> OpRecord:
    """``record`` with the verdict of the workload's check on ``out``."""
    try:
        record.failure = workload.check(record.index, out)
        record.value, record.std_err = workload.sampling(record.index, out)
    except Exception as exc:  # a check that cannot read the output fails the op
        record.failure = f"check raised {type(exc).__name__}: {exc}"
    return record


def closed_loop(seconds: float, first_index: int, run_one) -> tuple[list[OpRecord], float]:
    """Ops first_index, first_index+1, ... back to back until ``seconds`` have passed."""
    records = []
    i = first_index
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        records.append(run_one(i))
        i += 1
    return records, time.perf_counter() - start


def _median_wall(argv, env) -> float:
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=STARTUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cli_startup() -> tuple[float, float]:
    """(interpreter start, import of szego_lab beyond it), medians of fresh processes."""
    env = os.environ.copy()
    interp = _median_wall([sys.executable, "-c", "pass"], env)
    imported = _median_wall([sys.executable, "-c", "import szego_lab"], env)
    return interp, imported - interp


def layer_metrics(workload, recorder: spans.Recorder, records, extra_mc) -> dict:
    """Per-layer metrics of a traced run: self seconds and counts per traced op."""
    traced_ops = {r.index for r in records if r.traced}
    w1_ops = {r.index for r in extra_mc}
    self_by = spans.totals_by_op(recorder.spans)
    wall_by = spans.totals_by_op(recorder.spans, [s[2] - s[1] for s in recorder.spans])
    counts = recorder.counts

    def total(name, table=self_by, ops=traced_ops):
        return sum(v for (key, op), v in table.items() if key == name and op in ops)

    def per_op(name, table=self_by, ops=traced_ops):
        return total(name, table, ops) / max(len(ops), 1)

    out = {
        "toeplitz.log_det_direct.s_per_op": per_op("toeplitz.log_det_direct"),
        "toeplitz.log_det_direct.calls_per_op": per_op("toeplitz.log_det_direct.calls", counts),
        "toeplitz.assemble.s_per_op": per_op("toeplitz.assemble"),
        "toeplitz.cholesky_flops_per_op": per_op("toeplitz.cholesky_flops", counts),
        "toeplitz.log_det_product.s_per_op": per_op("toeplitz.log_det_product"),
        "toeplitz.ledger.s_per_op": per_op("toeplitz.ledger"),
        "opuc.trajectory.s_per_op": per_op("opuc.trajectory"),
        "opuc.states_held_per_op": per_op("opuc.states_held", counts),
        "opuc.coeff_bytes_computed": per_op("opuc.coeff_bytes_computed", counts),
        "symbol.moments.s_per_op": per_op("symbol.moments"),
        "symbol.grid_points_per_op": per_op("symbol.grid_points", counts),
        "quadrature.adaptive_circle_mean.s_per_op": per_op("quadrature.adaptive_circle_mean"),
        "quadrature.grid_points_per_op": per_op("quadrature.grid_points", counts),
        "verify.strong_szego_report.self_s_per_op": per_op("verify.strong_szego_report"),
        "verify.gi_bound_check.self_s_per_op": per_op("verify.gi_bound_check"),
        "coulomb.exact_Dn.s_per_op": per_op("coulomb.exact_Dn"),
        "cdkernel.kernel_sum.s_per_op": per_op("cdkernel.kernel_sum"),
        "cdkernel.kernel_sum.calls_per_op": per_op("cdkernel.kernel_sum.calls", counts),
        "cli.main.s_per_op": per_op("cli.main"),
        "textio.json_text.s_per_op": per_op("textio.json_text"),
    }

    # spans inside mc_Dn's worker processes are only seen in the workers=1 ops
    out["coulomb.eval_log_weight.s_per_op"] = per_op("coulomb.eval_log_weight", ops=w1_ops)
    mc_seconds = total("coulomb.mc_Dn", wall_by)
    out["coulomb.mc.samples_per_s"] = (
        total("coulomb.mc.samples", counts) / mc_seconds if mc_seconds else 0.0
    )
    rel_var = defaultdict(list)
    if isinstance(workload, workloads.GasMC):
        for r in records:
            if r.failure is None:
                rel_var[r.label].append(workload.SAMPLES * (r.std_err / r.value) ** 2)
    out["coulomb.mc.rel_var"] = bench_stats.stratified_median(rel_var.values()) if rel_var else 0.0
    effs = []
    for r in extra_mc:
        w2 = [wall_by[("coulomb.mc_Dn", x.index)] for x in records if x.traced and x.label == r.label]
        w1 = wall_by.get(("coulomb.mc_Dn", r.index), 0.0)
        if w2 and w1:
            effs.append(w1 / (2.0 * statistics.median(w2)))
    out["coulomb.mc.scaling_eff"] = statistics.fmean(effs) if effs else 0.0

    out["cli.interp_start_s"], out["cli.import_s"] = cli_startup()

    def stratified(traced: bool) -> float:
        groups = defaultdict(list)
        for r in records:
            if r.traced == traced:
                groups[r.label].append(r.seconds)
        return bench_stats.stratified_median(groups.values())

    out["trace.overhead_frac"] = stratified(True) / stratified(False) - 1.0
    return out


def layer_shares(recorder: spans.Recorder) -> dict:
    """Share of traced op wall time spent in each layer's own code."""
    self_t = spans.self_times(recorder.spans)
    op_wall = sum(s[2] - s[1] for s in recorder.spans if s[0] == "op")
    shares = defaultdict(float)
    for s, t in zip(recorder.spans, self_t):
        layer = "bench" if s[0] == "op" else s[0].split(".")[0]
        shares[layer] += t / op_wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "setup"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    start = time.perf_counter()
    workload.build()  # imports szego_lab
    first_out = None
    first_failure = None
    try:
        first_out = workload.op(0)
    except Exception as exc:  # counted below as a failed op
        first_failure = f"{type(exc).__name__}: {exc}"
    setup_s = time.perf_counter() - start
    first_digest = None if first_out is None else workload.digest(first_out)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "digest": first_digest, "failure": first_failure}))
        return 0

    workload.references()
    first = OpRecord(0, workload.label(0), setup_s, False, first_failure)
    if first_failure is None:
        first = checked(workload, first, first_out)
    del first_out

    recorder = None
    extra: list[OpRecord] = []  # checked ops outside the measured phase
    extra_mc: list[OpRecord] = []
    if args.trace:
        recorder = spans.Recorder()
        targets = workloads.layer_targets()
        if isinstance(workload, workloads.CliMix):
            # the references are the subprocess outputs; the traced ops run in-process
            extra = [run_op(workload, i) for i in range(workload.cycle)]
            workload.in_process = True
        traced_op = recorder.span("op", workload.op)

        def run_one(i: int) -> OpRecord:
            # whole cycles alternate, so every input is seen traced and untraced
            if (i // workload.cycle) % 2 == 0:
                return run_op(workload, i)
            recorder.op = i
            with recorder.installed(targets):
                return run_op(workload, i, traced=True, call=traced_op)

        records, wall = closed_loop(args.seconds, 1, run_one)
        if isinstance(workload, workloads.GasMC):
            nxt = records[-1].index + 1 if records else 1
            nxt += -nxt % workload.cycle  # a fresh cycle, both symbols
            for i in range(nxt, nxt + workload.cycle):
                recorder.op = i
                one = recorder.span("op", lambda j: workload.op(j, workers=1))
                with recorder.installed(targets):
                    extra_mc.append(run_op(workload, i, traced=True, call=one))
    else:
        records, wall = closed_loop(args.seconds, 1, lambda i: run_op(workload, i))

    who = resource.RUSAGE_CHILDREN if isinstance(workload, workloads.CliMix) else resource.RUSAGE_SELF
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux

    all_ops = [first] + extra + records + extra_mc
    result = {
        "setup_s": setup_s,
        "first_digest": first_digest,
        "wall_s": wall,
        "peak_rss_mib": peak_rss_mib,
        "ops": [[r.label, r.seconds, r.traced, r.failure is None, r.value, r.std_err] for r in records],
        "attempted": len(all_ops),
        "failures": [f"op {r.index} ({r.label}): {r.failure}" for r in all_ops if r.failure],
    }
    if recorder is not None:
        result["layers"] = layer_metrics(workload, recorder, records, extra_mc)
        result["layer_shares"] = layer_shares(recorder)
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
