"""Summary statistics the benchmark reports, kept apart so the self-test can check them."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest listed percentile with MIN_TAIL samples beyond it.

    The value is the nearest-rank percentile of the sorted samples. None
    when there are too few samples for any of them.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(round(p * n / 100, 9))  # 1-based nearest rank
        if n - rank >= MIN_TAIL:
            return p, ordered[rank - 1]
    return None


def tally(reps) -> tuple[int, int]:
    """(attempted, failed) over repetitions of one workload and seed.

    A repetition fails when it exited non-zero, failed an output check, or
    wrote outputs whose digest differs from the first repetition's.
    """
    reference = reps[0]["digest"] if reps else None
    failed = sum(
        1 for r in reps if r["exit_code"] != 0 or r["problems"] or r["digest"] != reference
    )
    return len(reps), failed
