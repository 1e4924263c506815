"""Pure arithmetic behind the benchmark's metrics: span self times, the
percentile rule, and quartile spreads. No I/O, so the tests can drive it."""

import statistics

# Candidate percentiles, in tenths of a percent, highest last.
PERCENTILES_X10 = (500, 900, 990, 999)
MIN_BEYOND = 10


def highest_percentile(n):
    """The highest candidate percentile with at least MIN_BEYOND of `n`
    samples beyond it, or None when even the median has fewer."""
    best = None
    for p10 in PERCENTILES_X10:
        if n * (1000 - p10) >= MIN_BEYOND * 1000:
            best = p10 / 10
    return best


def percentile(values, p):
    """Linearly interpolated percentile (the 'inclusive' method of
    statistics.quantiles) of a non-empty sequence."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def fastest_pass(op_times, passes):
    """Time of one pass over a fixed op list, taking each op's fastest time
    over `passes` repeats (`op_times` is pass-major). Host interference only
    ever slows an op down, so the per-op minimum is its steadiest estimate."""
    n = len(op_times) // passes if passes > 0 else 0
    if n == 0 or n * passes != len(op_times):
        raise ValueError(f"{len(op_times)} op times do not split into {passes} passes")
    return sum(min(op_times[j * n + i] for j in range(passes)) for i in range(n))


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives
    them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover. `spans` holds (parent, op, name, start, end)
    rows; parent is an index into `spans`, or -1 for a root."""
    children = [[] for _ in spans]
    for parent, _, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (_, _, _, start, end) in enumerate(spans)
    ]


def layer_of(name):
    return name.split(".", 1)[0]


def op_breakdown(spans):
    """Per op id: (root duration, {layer: self time}). The self times of an
    op's spans add up to its root span's duration."""
    selfs = self_times(spans)
    ops = {}
    for (parent, op, name, start, end), own in zip(spans, selfs):
        root, layers = ops.setdefault(op, [0.0, {}])
        if parent < 0:
            ops[op][0] = root + (end - start)
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + own
    return {op: (root, layers) for op, (root, layers) in ops.items()}


def durations(spans, name):
    return [end - start for _, _, n, start, end in spans if n == name]
