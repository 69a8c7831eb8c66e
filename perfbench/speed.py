"""The machine's speed, sampled while a pass runs.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, the same for wall and CPU time, so
a pass's raw wall time says as much about the host as about the program.
``SpeedSampler`` measures the host alongside the pass: an interval timer
interrupts the pass every ``PERIOD_S`` seconds, and the signal handler, in
the same thread and on the same core, times a fixed reference kernel.
``scaled_wall`` turns a pass's wall time into the time it would have taken
at the reference speed: the time spent in the handler is taken out, and the
rest is multiplied by the kernel's nominal time over its median time during
the pass.  The kernel never calls the program, so a change to the program
moves the scaled time as it moves the raw one on a host of steady speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# kernel calls timed right after set-up, to scale the set-up time
SETUP_SAMPLES = 10
# nominal time of one ``reference_kernel`` call, a round figure near its
# median of 0.8-1.0 ms on 2 vCPUs of a shared x86-64 host under CPython 3.11.7
# and numpy 2.4.6: scaled times are in seconds at that speed
REFERENCE_S = 0.001

# 5^6 entries: 125 KB, well inside the core's own cache
_VECTOR = np.linspace(-1.0, 1.0, 5**6)
_FACTOR = np.eye(25)


def reference_kernel() -> float:
    """Fixed work of both kinds the workloads do, in about equal time:
    pure-Python integer arithmetic and dict stores, then small dense
    contractions like those of ``TensorOperator.apply``.  Either half alone
    tracked the host's speed worse on one workload or another: the first on
    the dense ``fock3-verify``, the second on the symbolic ``fock4-relations``."""
    total = 0
    table = {}
    for i in range(5000):
        total += i * i % 7
        table[i & 255] = total
    v = _VECTOR
    for _ in range(6):
        v = np.tensordot(v.reshape(25, -1), _FACTOR, axes=([0], [0])).reshape(-1)
        v = v * 0.5 + _VECTOR
    return total + float(v.sum())


def kernel_samples(count: int) -> list[float]:
    """Times ``count`` calls of ``reference_kernel``, after one warm-up call."""
    reference_kernel()
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - start)
    return samples


class SpeedSampler:
    """Samples ``reference_kernel`` from an interval timer while the ``with``
    block runs, and once on entry and once on exit, so a block shorter than
    one period still gets a sample.  Only the main thread may use it."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: list[float] = []
        # time spent inside the timer's handler, to be taken out of the block
        self.handler_s = 0.0
        self._previous = None

    def _sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        reference_kernel()  # warm-up
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, wall_s: float) -> float:
        return scaled_wall(wall_s, self.handler_s, self.samples)


def scaled_wall(wall_s: float, handler_s: float, samples: list[float]) -> float:
    """Wall time of a block at the reference speed: the block's wall time less
    the time spent in the sampler's handler, times ``REFERENCE_S`` over the
    median kernel time sampled during the block."""
    return (wall_s - handler_s) * REFERENCE_S / statistics.median(samples)
