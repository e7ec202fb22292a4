"""Host speed samples, by which every timing of the benchmark is scaled.

The speed of a shared host drifts by up to half within seconds and between
minutes, and gencov's code slows with it.  Every timing is therefore taken
beside samples of reference(), a fixed loop that calls no gencov code and
allocates no object the garbage collector tracks, and is scaled to a host on
which that loop takes REF_S seconds.

    python3 perfbench/speed.py SRC

imports gencov from SRC in this fresh interpreter and prints the seconds the
import took and reference() samples from before and after it.
"""

import sys
import time

REF_ITERS = 150_000
REF_S = 0.010


def reference() -> float:
    """Seconds this host takes for a fixed pure-Python loop right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERS):
        s += i * i % 7
    return time.perf_counter() - t0


def scaled(seconds: float, ref_s: float) -> float:
    """seconds as they would read on a host where reference() takes REF_S."""
    return seconds * REF_S / ref_s


if __name__ == "__main__":
    before = reference()
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    import gencov  # noqa: F401
    import gencov.cli  # noqa: F401
    took = time.perf_counter() - t0
    print(took, before, reference())
