"""Tests of the benchmark's own arithmetic: tail rule, self time, failure counting, time to 1%."""

from __future__ import annotations

import math
import time
import types

import pytest

import bench_stats
import run
import spans
import worker


# --------------------------------------------------------------------------
# the tail percentile
# --------------------------------------------------------------------------


def test_tail_is_the_eleventh_largest_sample():
    value, percentile, n = bench_stats.tail(range(1, 21))
    assert (value, percentile, n) == (10, 50.0, 20)
    value, percentile, n = bench_stats.tail([0.5 * k for k in range(100, 0, -1)])
    assert (value, percentile, n) == (45.0, 90.0, 100)


def test_tail_keeps_ten_samples_strictly_beyond_it_under_ties():
    samples = [1.0] * 5 + [2.0] * 15
    value, percentile, _ = bench_stats.tail(samples)
    assert value == 1.0 and percentile == 25.0
    assert sum(1 for x in samples if x > value) >= bench_stats.TAIL_BEYOND


def test_tail_with_ten_samples_or_fewer_is_the_largest():
    assert bench_stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        bench_stats.tail([])


# --------------------------------------------------------------------------
# spans and self time
# --------------------------------------------------------------------------


def test_self_time_subtracts_the_children_of_nested_spans():
    recorded = [
        ["op", 0.0, 10.0, -1, 1],
        ["a", 1.0, 6.0, 0, 1],
        ["b", 2.0, 3.0, 1, 1],
        ["c", 7.0, 9.0, 0, 1],
    ]
    assert spans.self_times(recorded) == [3.0, 4.0, 1.0, 2.0]
    totals = spans.totals_by_op(recorded)
    assert totals[("op", 1)] + totals[("a", 1)] + totals[("b", 1)] + totals[("c", 1)] == 10.0


def test_recorder_links_parents_and_restores_the_module():
    module = types.SimpleNamespace()
    module.inner = lambda x: time.sleep(0.002) or x
    module.outer = lambda x: module.inner(x) + module.inner(x)
    original = (module.inner, module.outer)
    rec = spans.Recorder()
    rec.op = 7
    targets = [
        (module, "outer", "m.outer", None),
        (module, "inner", "m.inner", lambda result, x: {"m.items": x}),
    ]
    with rec.installed(targets):
        assert module.outer(3) == 6
    assert (module.inner, module.outer) == original
    assert [(s[0], s[3], s[4]) for s in rec.spans] == [
        ("m.outer", -1, 7), ("m.inner", 0, 7), ("m.inner", 0, 7)
    ]
    own = spans.self_times(rec.spans)
    outer_wall = rec.spans[0][2] - rec.spans[0][1]
    inner_wall = sum(s[2] - s[1] for s in rec.spans[1:])
    assert math.isclose(own[0], outer_wall - inner_wall, rel_tol=1e-9, abs_tol=1e-12)
    assert rec.counts[("m.items", 7)] == 6


def test_recorder_restores_the_module_when_a_call_raises():
    module = types.SimpleNamespace(f=lambda: 1 / 0)
    original = module.f
    rec = spans.Recorder()
    with pytest.raises(ZeroDivisionError):
        with rec.installed([(module, "f", "m.f", None)]):
            module.f()
    assert module.f is original
    assert rec.spans[0][2] is not None


# --------------------------------------------------------------------------
# failure counting
# --------------------------------------------------------------------------


class _FlakyWorkload:
    """Op i raises when i % 3 == 0 and fails its check when i % 3 == 1."""

    labels = ["x"]

    def __init__(self):
        self.calls = []

    def label(self, i):
        return "x"

    def op(self, i):
        self.calls.append(i)
        time.sleep(0.001)
        if i % 3 == 0:
            raise RuntimeError("boom")
        return i

    def check(self, i, out):
        return "wrong" if i % 3 == 1 else None

    def sampling(self, i, out):
        return 1.0, 0.0


def test_failing_ops_are_counted_once_and_never_retried():
    workload = _FlakyWorkload()
    records, wall = worker.closed_loop(0.05, 1, lambda i: worker.run_op(workload, i))
    indices = [r.index for r in records]
    assert indices == list(range(1, len(records) + 1))
    assert workload.calls == indices
    assert wall >= 0.05
    for r in records:
        assert (r.failure is None) == (r.index % 3 == 2)
    raised = [r for r in records if r.index % 3 == 0]
    assert all(r.failure.startswith("RuntimeError") for r in raised)


def test_ops_per_s_counts_only_ops_that_passed():
    ops = [["x", 0.1, False, k >= 2, 1.0, 0.0] for k in range(12)]
    metrics, tail = run.end_to_end(
        {"ops": ops, "setup_s": 0.5, "wall_s": 2.0, "peak_rss_mib": 40.0},
        [{"setup_s": 0.3}, {"setup_s": 0.7}],
    )
    assert metrics["ops_per_s"] == 10 / 2.0
    assert metrics["setup_s"] == 0.5
    assert tail["samples"] == 12


# --------------------------------------------------------------------------
# time to a 1% relative standard error
# --------------------------------------------------------------------------


def test_time_to_one_percent_scales_with_the_squared_relative_error():
    assert math.isclose(bench_stats.time_to_rel_err(0.2, 2.0, 0.04), 0.8)
    assert math.isclose(bench_stats.time_to_rel_err(0.2, -2.0, 0.01), 0.05)
    assert bench_stats.time_to_rel_err(0.2, 2.0, 0.0) == 0.2


def test_stratified_median_averages_the_per_input_medians():
    assert bench_stats.stratified_median([[1.0, 2.0, 3.0], [10.0, 20.0]]) == 8.5
    assert bench_stats.stratified_median([[4.0, 1.0, 9.0]]) == 4.0
