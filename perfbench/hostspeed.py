"""The host's current speed, from fixed reference kernels timed between ops.

The benchmark runs on shared virtual machines whose speed drifts: a fixed
pure-Python loop ran 50% slower in some minutes than in others, and CPU
time moved with wall time, so the drift is a slower CPU, not time stolen
from the process.  A run that happens to fall in a slow minute then reads
as a slower program.  ``measure`` times small kernels that stand for the
kinds of work engelbook does (interpreted Python, many small numpy calls,
batched LAPACK, vector transcendentals) and returns their geometric mean
speed relative to their nominal times.  Kinds of work slow down by
different amounts in a slow spell, so each workload names the kernels
that do its kind of work.  Multiplying an op's wall time by the
speed measured around it gives the time the op would take on the host at
its nominal speed.  The kernels are fixed code outside the program, so a
change to engelbook moves the op times and not the reference.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time

import numpy as np

_rng = np.random.default_rng(20260101)
_STACK = _rng.standard_normal((3000, 4, 5))
_VECTOR = _rng.standard_normal(200_000)
_SMALL = np.arange(6.0)


def _interpreted() -> float:
    table: dict[int, float] = {}
    total = 0.0
    for i in range(20_000):
        table[i & 255] = table.get(i & 255, 0.0) + i * 0.5
        total += table[i & 255]
    return total


def _small_calls() -> float:
    total = 0.0
    for i in range(1500):
        total += float(np.dot(_SMALL, _SMALL + i))
    return total


def _batched_svd() -> float:
    return float(np.linalg.svd(_STACK, compute_uv=False).sum())


def _vector_math() -> float:
    return float((np.sin(_VECTOR) * np.cos(_VECTOR) + _VECTOR * _VECTOR).sum())


# each kernel's time on the 2-core x86-64 host the benchmark was defined on,
# in one of its faster minutes
KERNELS = {
    "interpreted": (_interpreted, 3.6e-3),
    "small_calls": (_small_calls, 2.7e-3),
    "batched_svd": (_batched_svd, 9.8e-3),
    "vector_math": (_vector_math, 6.6e-3),
}


def measure() -> dict[str, float]:
    """Speed of the host now for each kernel: 1.0 at nominal, below 1 when slower.

    The garbage collector is off while the kernels run, so that the number
    of objects the program keeps alive does not change their times.
    """
    speeds = {}
    gc.disable()
    try:
        for name, (kernel, nominal) in KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            speeds[name] = nominal / (time.perf_counter() - t0)
    finally:
        gc.enable()
    return speeds


def combined(speeds: dict[str, float], reference: tuple[str, ...]) -> float:
    """Geometric mean of the named kernels' speeds."""
    return math.exp(sum(math.log(speeds[name]) for name in reference) / len(reference))


class SpeedLog:
    """Speed measurements taken between ops, and the speed during each op.

    The host's speed for the workload is the geometric mean over its
    ``reference`` kernels.  ``due`` says when the last measurement is
    ``every_s`` seconds old.  An op's speed is the mean of the
    measurements taken within its own duration before its start or after
    its end, and always of the last one before it and the first one after
    it.  The host's speed changes within seconds, so a short op is judged
    by the measurements next to it, and a long op by as many as fit in its
    span.
    """

    def __init__(self, reference: tuple[str, ...], every_s: float) -> None:
        self.reference = reference
        self.every_s = every_s
        self.times: list[float] = []
        self.kernel_speeds: list[dict[str, float]] = []
        self.speeds: list[float] = []
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel_speeds = measure()
        self.times.append((t0 + time.perf_counter()) / 2.0)
        self.kernel_speeds.append(kernel_speeds)
        self.speeds.append(combined(kernel_speeds, self.reference))

    def due(self) -> bool:
        return time.perf_counter() - self.times[-1] >= self.every_s

    def median(self) -> float:
        return statistics.median(self.speeds)

    def during(self, start: float, end: float) -> float:
        """Speed of the host while an op ran from ``start`` to ``end``."""
        span = end - start
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        lo = bisect.bisect_left(self.times, start - span)
        hi = bisect.bisect_right(self.times, end + span)
        return statistics.mean(self.speeds[min(lo, before):max(hi, after + 1)])
