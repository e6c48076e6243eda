"""Summary statistics with the sample-size rule the benchmark reports under."""

from __future__ import annotations

import math

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``values``.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    beyond it, i.e. ``len(values) * (100 - q) / 100 >= MIN_BEYOND``; a tail
    estimate resting on fewer samples would not repeat run to run.  The
    median (``q=50``) is exempt only in needing one sample.
    """
    data = sorted(values)
    n = len(data)
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if q > 50 and n * (100 - q) < MIN_BEYOND * 100 - 1e-9:
        raise ValueError(
            f"p{q:g} needs at least {MIN_BEYOND} samples beyond it "
            f"(n >= {math.ceil(MIN_BEYOND * 100 / (100 - q))}), got n={n}"
        )
    pos = (n - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest of p99 / p90 / p80 that ``n`` samples support."""
    for q in (99.0, 90.0, 80.0):
        if n * (100 - q) >= MIN_BEYOND * 100 - 1e-9:
            return q
    raise ValueError(f"{n} samples support no tail percentile (p80 needs 50)")
