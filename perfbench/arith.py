"""The benchmark's arithmetic, kept apart from I/O so test_arith.py can pin it.

Everything here is a pure function of its arguments.
"""

import math
import statistics

# Percentiles a latency may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def nearest_rank(n, p):
    """1-based rank of the p-th percentile of n samples (nearest-rank rule)."""
    # The epsilon keeps float noise (99.9 * 10000 / 100) from adding a rank.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_SAMPLES_BEYOND of n
    samples above it, or None when even the median lacks them (n < 20)."""
    best = None
    for p in PERCENTILE_LADDER:
        if n - nearest_rank(n, p) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), p) - 1]


def summarize(values):
    """(median, q1, q3) of the values, with quartiles as
    statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def self_times(spans):
    """Self time (ns) of each span: its duration minus the part of its own
    interval that the union of its children's intervals covers.

    `spans` is a list of dicts with id, parent, start_ns and end_ns; the
    result maps span id to self time.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = start
        # Children may overlap (fleet workers run in parallel): walk their
        # clipped intervals in start order and count each instant once.
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], cursor)
            hi = min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start) - covered
    return out


def self_time_by_layer(spans):
    """Self time (ns) summed by layer, the span-name prefix before the
    first dot ("sim.dispatch.batch" -> "sim")."""
    by_id = self_times(spans)
    out = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0) + by_id[s["id"]]
    return out


def wait_frac(cpu_s, wall_s, threads):
    """Share of the workers' wall time spent off-CPU: 1 - cpu / (threads *
    wall). Zero or negative means the threads never waited."""
    return 1.0 - cpu_s / (threads * wall_s)


FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fold_digests(digests):
    """Order-sensitive fold of per-cell digests (16-hex strings, grid
    order) into one: FNV-1a 64 over the concatenated hex text, each digest
    followed by a newline. Returns 16 hex digits."""
    h = FNV_OFFSET
    for d in digests:
        for byte in (d + "\n").encode("ascii"):
            h ^= byte
            h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h
