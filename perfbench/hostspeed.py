"""Host-speed probes: time a fixed computation to scale job times to a reference host.

The benchmark runs on a shared host whose speed drifts by a fifth and more
within a minute.  A probe times ``reference_unit``, a fixed exact
computation that uses the standard library only (no qlidstone code), so it
measures the host and not the program.  A time measured between two probes
is multiplied by ``scale(before, after)``, which gives the time it would
take on a host that runs one reference unit in ``REFERENCE_UNIT_S``.
"""

import statistics
import time
from fractions import Fraction

REFERENCE_UNIT_S = 1e-3   # seconds one reference unit takes on the reference host
PROBE_CHUNKS = 5          # timed chunks per probe; the probe reports their median
PROBE_UNITS = 10          # reference units per chunk


def reference_unit() -> Fraction:
    """A fixed exact sum whose terms grow to ~1500-bit integers, like the program's own."""
    x = Fraction(0)
    for k in range(1, 200):
        x += Fraction(k, k * k + 1)
    return x


def probe() -> float:
    """Seconds per reference unit on the host now: the median over PROBE_CHUNKS timed chunks."""
    chunks = []
    for _ in range(PROBE_CHUNKS):
        t0 = time.perf_counter()
        for _ in range(PROBE_UNITS):
            reference_unit()
        chunks.append((time.perf_counter() - t0) / PROBE_UNITS)
    return statistics.median(chunks)


def scale(before: float, after: float) -> float:
    """Factor from host seconds to reference seconds for a time measured between two probes."""
    return 2 * REFERENCE_UNIT_S / (before + after)
