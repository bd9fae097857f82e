"""Summary statistics and host context for benchmark results."""

from __future__ import annotations

import gc
import math
import os
import platform
import re
import statistics
import time
from fractions import Fraction

import numpy as np

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_TAIL_SAMPLES = 10


def nearest_rank(sorted_values, q: float):
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th
    percentile."""
    return n - max(1, math.ceil(q / 100 * n))


def tail_percentile(values, q: float = 99.0):
    """The ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    if samples_beyond(len(values), q) < MIN_TAIL_SAMPLES:
        return None
    return nearest_rank(sorted(values), q)


def median(values) -> float:
    return statistics.median(values)


#: Seconds one calibration chunk takes on the reference host (the 2-core
#: shared x86-64 VM, Python 3.11, where the benchmark was written, at its
#: median speed).  Host times are reported as if the host ran at that
#: speed; any fixed value would do, as long as it never changes.
REFERENCE_CHUNK_S = 0.030
CHUNK_ITERS = 6_000
#: Calibration chunks take this share of the time the units take.
CALIBRATION_SHARE = 0.35
#: Larger than a core's private caches, like the PE heaps the simulator
#: copies between.
_CHUNK_HEAP_BYTES = 4 << 20
_chunk_heap = None


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _chunk(iters: int = CHUNK_ITERS) -> int:
    """A fixed piece of work in the simulator's own mix: small objects,
    dict updates, 64-byte NumPy copies and scalar reads scattered over a
    heap that does not fit in cache, and a large body of pure-Python
    library code (``fractions``, the regex compiler, whose cache is
    purged so it compiles every time; the simulator does not use
    ``re``).  A loop with a small code footprint slowed down more than
    the simulator when its core was shared.  It uses nothing from ``src/``,
    so no change to the program moves it."""
    global _chunk_heap
    if _chunk_heap is None:
        _chunk_heap = np.ones(_CHUNK_HEAP_BYTES, dtype=np.uint8)
    heap, mask = _chunk_heap, _CHUNK_HEAP_BYTES - 64
    table: dict = {}
    acc = 0
    frac = Fraction(0)
    for i in range(iters):
        p = _Probe(i, acc)
        table[i & 1023] = p
        src = (i * 40503) & mask
        dst = (i * 91813 + 4096) & mask
        heap[dst:dst + 64] = heap[src:src + 64]
        acc = (acc + int(heap[src + 8]) + p.a) & 0xFFFFF
        if i % 16 == 0:
            frac = (frac + Fraction(acc, i + 1)).limit_denominator(1 << 20)
        if i % 64 == 0:
            flags = re.I if i % 128 == 0 else 0
            acc ^= re.compile(f"(a|b{i % 97})+c[0-9]{{2,{i % 5 + 2}}}", flags).groups
            re.purge()
    return acc


class HostSpeed:
    """How slow the host ran during a phase, from calibration chunks
    interleaved with the phase's work.

    A shared host's speed drifts by tens of percent over seconds to
    minutes, and per-thread CPU time drifts with it.  The phase runs a
    fixed chunk of work after each unit, until chunks have taken
    :data:`CALIBRATION_SHARE` of the time the units took.  A host time
    divided by
    :attr:`slowness` reads as on a host where one chunk takes
    :data:`REFERENCE_CHUNK_S`.
    """

    def __init__(self) -> None:
        self.chunks = 0
        self.chunk_s = 0.0

    def sample(self) -> None:
        """Run one chunk, with the cyclic collector off so the program's
        live objects cannot slow it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _chunk()
            self.chunk_s += time.perf_counter() - t0
            self.chunks += 1
        finally:
            if enabled:
                gc.enable()

    def keep_up(self, busy_s: float) -> None:
        """One chunk, then more until chunks took
        :data:`CALIBRATION_SHARE` of ``busy_s``, the host seconds the
        phase's units took so far."""
        self.sample()
        while self.chunk_s < CALIBRATION_SHARE * busy_s:
            self.sample()

    @property
    def slowness(self) -> float:
        """Mean chunk time over the reference: 1.25 is 25% slow.  The
        mean, like the run's summed unit times, weights each moment of
        the run equally."""
        return self.chunk_s / self.chunks / REFERENCE_CHUNK_S


def host_context(engine: str) -> dict:
    """What a result must carry to be compared with another."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engine": engine,
    }
