"""Host speed, measured by a fixed reference workload, for scaling timings.

The benchmark runs on a few vCPUs of a shared host, and that host's speed
moves from minute to minute (SMT siblings, caches, memory bandwidth and clock
shared with other guests): the same cold compiles took 413-894 ms at the
median across ten consecutive runs, with almost no CPU steal to show for it.
A fixed reference workload, timed before every request, slows down with the
host.  ``compile-cold`` scales each time it reports by
``REFERENCE_SECONDS / (reference time just before it)``, so its figures
read as on a host that runs the reference in ``REFERENCE_SECONDS``.  A change
to the program moves the compile times and not the reference, so it shows in
full; a slower host moves both, and cancels.

The reference mixes the two kinds of work the compile path does: Python
object handling (tuples, sorting, dicts of sets) and NumPy passes over a
couple of megabytes.  Over 709 interleaved cold compiles on a 2-vCPU VM, the
program's speed per 24-request window followed the reference with a slope of
0.95 in log space (correlation 0.93).  Cut into 60-request runs, that
sequence spread 0.27 (p50) and 0.13 (p80) of the median unscaled, and 0.07
and 0.05 with each request scaled by the reference timed just before it; one
scale per run (from the median reference time) left the p80 at 0.19.  A
pure-Python dict loop alone over-corrected (slope 0.79).
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: The reference's nominal time, about its median on the 2-vCPU VM the
#: baseline was measured on.
REFERENCE_SECONDS = 0.020
_ROWS = 2_500
_ROUNDS = 6
_WORDS = 1 << 18


class HostSpeed:
    """The reference workload, timed on demand.

    The reference's arrays are allocated once, here, and worked on in place,
    and its Python objects come in small batches, so it adds a fixed 8-9 MB
    to the process's peak memory (compile-cold's peak_rss_mb read 84.8 MB
    without it, 93.3 MB with it) rather than a share that grows with it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._words = rng.integers(0, 2**63, size=_WORDS, dtype=np.uint64)
        self._order = rng.permutation(_WORDS).astype(np.int32)
        self._buffer = np.empty_like(self._words)

    def _reference(self) -> None:
        for _ in range(_ROUNDS):
            rows = [(i * 7919 % 10007, str(i), (i, i + 1)) for i in range(_ROWS)]
            rows.sort()
            groups: dict[int, set] = {}
            for key, _, pair in rows:
                groups.setdefault(key % 613, set()).add(pair)
        np.take(self._words, self._order, out=self._buffer)
        np.bitwise_xor(self._buffer, self._words, out=self._buffer)
        self._buffer.sort()

    def sample(self) -> float:
        """Time the reference once, with the collector off so that the
        program's heap never makes it slower; returns the scale,
        ``REFERENCE_SECONDS / time``, for a time measured right after."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._reference()
            return REFERENCE_SECONDS / (time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()
