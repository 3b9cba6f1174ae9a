"""The benchmark's own arithmetic: medians, the tail rule and time to 1% error.

Kept free of numpy and of szego_lab so that the tests of this file run without
either and the setup timer of a workload process starts before numpy loads.
"""

from __future__ import annotations

import statistics

#: op_tail_s is the highest percentile that still has this many samples beyond it
TAIL_BEYOND = 10

#: the relative standard error that time_to_1pct_s extrapolates to
TARGET_REL_ERR = 0.01


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with ten samples beyond it.

    For N distinct samples that is the eleventh largest one, at percentile
    100(N-10)/N.  A sample tied with the tenth largest is not beyond it, so
    ties move the answer down to the next smaller value.  With ten samples or fewer no percentile qualifies and the largest sample is
    returned, at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    index = n - TAIL_BEYOND - 1
    if index >= 0:
        tenth_largest = ordered[n - TAIL_BEYOND]
        while index >= 0 and ordered[index] == tenth_largest:
            index -= 1
    if index < 0:
        index = n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def stratified_median(samples_by_input) -> float:
    """Mean over the inputs of a workload's cycle of each input's median.

    Ops cycle over a few inputs whose costs differ; a median pooled over all ops
    jumps between inputs as their op counts shift by one, this one does not.
    For a single input it is the plain median.
    """
    groups = [g for g in samples_by_input if g]
    if not groups:
        raise ValueError("no samples")
    return statistics.fmean(statistics.median(g) for g in groups)


def time_to_rel_err(op_s: float, value: float, std_err: float) -> float:
    """Wall time an estimator needs for a 1% relative standard error.

    The standard error of a Monte Carlo mean falls as 1/sqrt(samples), so an op
    that took op_s for a relative error r needs op_s (r/0.01)^2 for 1%.  An op
    whose output carries no sampling error (std_err 0) delivers it in op_s.
    """
    if std_err == 0.0:
        return op_s
    rel = std_err / abs(value)
    return op_s * (rel / TARGET_REL_ERR) ** 2
