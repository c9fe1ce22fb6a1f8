"""Statistics helpers of the benchmark: percentiles, span self time, ratios.

Kept free of I/O so the unit tests in test_perfbench.py cover them
directly.
"""

import statistics

# The tail is the highest percentile that still has this many samples
# strictly beyond it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples_beyond, sample_count). With
    `beyond` or fewer samples no percentile qualifies; the maximum is
    returned as percentile 100 with 0 samples beyond, and callers print
    that so the reader sees the tail is thin.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= beyond:
        return ordered[-1], 100.0, 0, n
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, beyond, n


def union_length(intervals):
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span.

    `spans` is a list of dicts with id, parent, start_us and end_us.
    Children that overlap each other (parallel workers) are subtracted
    once, not once per child. Returns {id: self_us}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        covered = union_length(
            (max(lo, c["start_us"]), min(hi, c["end_us"]))
            for c in children.get(s["id"], [])
            if c["end_us"] > lo and c["start_us"] < hi)
        out[s["id"]] = (hi - lo) - covered
    return out


def conservation(spans, op_wall_us, tolerance):
    """Checks that each operation's self times sum to its wall time.

    `op_wall_us` maps op id to the wall time measured around the whole
    operation. Returns (worst relative error, list of failing op ids)."""
    selfs = self_times(spans)
    per_op = {}
    for s in spans:
        per_op[s["op"]] = per_op.get(s["op"], 0.0) + selfs[s["id"]]
    worst, failing = 0.0, []
    for op, wall in op_wall_us.items():
        err = abs(per_op.get(op, 0.0) - wall) / wall if wall else 0.0
        worst = max(worst, err)
        if err > tolerance:
            failing.append(op)
    return worst, failing


def ratio(numerator, denominator):
    """numerator / denominator, 0 when the base is 0."""
    return numerator / denominator if denominator else 0.0


def ratio_text(numerator, denominator, num_label, den_label):
    """A ratio printed with its base, e.g. '0.84 = 120.0 ms / 143.0 ms'."""
    return "%.4g = %s %.6g / %s %.6g" % (ratio(numerator, denominator),
                                        num_label, numerator, den_label,
                                        denominator)
