"""Host-speed probe, so that timings from a shared host can be compared.

The benchmark runs on hosts whose other tenants change this process's speed
by up to 2x, for a second at a time and for minutes at a time.  The probe
times a fixed pure-Python loop (float math, calls, dict and generator
traffic, like the decoder's per-bit loop) between operations.  A rate
multiplied by `host_factor`, or a time divided by it, reads as if measured on
a host where the probe takes NOMINAL_S.  The probe is the benchmark's own
code, so a change to srcpolar moves the timings and never the probe.
"""

import math
import time

# About the probe's time on the host the bounds were tuned on (2 vCPUs, Intel Xeon).
NOMINAL_S = 0.020


def _chain():
    x = 0.0
    while True:
        bit = yield x
        x = -x if bit else x + 1e-3


def probe() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    gen = _chain()
    gen.send(None)
    table, acc = {}, 0.0
    for i in range(60000):
        v = gen.send(i & 1) - acc * 1e-9
        acc += math.log1p(math.exp(-abs(v))) if v < 0.5 else -v
        table[i & 255] = acc
    return time.perf_counter() - t0


def host_factor(before: float, after: float) -> float:
    """How much slower than nominal the host ran, from probes on both sides of a timing."""
    return (before + after) / (2 * NOMINAL_S)
