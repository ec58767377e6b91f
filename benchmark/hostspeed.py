"""Host-speed reference for the end-to-end timings.

The shared 2-core host these workloads were defined on changes speed by up to
1.8x within minutes as other tenants load it, and every CPU-bound timing
moves with it: plain wall-clock medians of identical 20 s runs differed by
25% and more. So each run also times a fixed reference kernel between
requests, about every 0.1 s. The kernel does what a dual evaluation does on a
constant array of the workload's size (NumPy arithmetic, a stable argsort, a
gather, a tie scan, building a tuple and a frozen dataclass) and runs no
divrank code, so no change to the solver moves it. A request's latency is
divided by the local reference time, the median of the five samples nearest
to it, and multiplied by the kernel's nominal time. Reported times then read
as wall-clock times at nominal host speed.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

INTERVAL_NS = 100_000_000
WINDOW = 5
# Median kernel time (ms) by array size, measured on the 2-core Xeon sandbox
# (2.1 GHz nominal) where the workloads were defined. Only the scale of the
# reported times depends on these; their run-to-run ratios do not.
NOMINAL_MS = {1000: 1.8, 10_000: 4.2, 100_000: 14.5}
KERNEL_ELEMS = 40_000  # array elements sorted per kernel call, at least m


@dataclass(frozen=True)
class _Probe:
    top: float
    slots: tuple


class HostSpeed:
    def __init__(self, m: int, n: int):
        self._x = np.random.default_rng(20221122).standard_normal(m)
        self._n = n
        self._reps = max(1, KERNEL_ELEMS // m)
        self.nominal_ms = NOMINAL_MS[m]
        self._at: list[int] = []
        self._ns: list[int] = []
        self._last = 0

    def _kernel(self) -> None:
        x = self._x
        for _ in range(self._reps):
            z = x - 0.5 * x[::-1]
            order = np.argsort(-z, kind="stable")
            values = z[order]
            np.flatnonzero((values[:-1] - values[1:]) > 0.0)
            _Probe(float(values[0]), tuple(int(i) for i in order[:self._n]))

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        self._kernel()
        t1 = time.perf_counter_ns()
        self._at.append((t0 + t1) // 2)
        self._ns.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter_ns() - self._last >= INTERVAL_NS:
            self.sample()

    @property
    def samples(self) -> int:
        return len(self._ns)

    def median_ms(self) -> float:
        return float(np.median(self._ns)) / 1e6

    def scale(self, at_ns) -> np.ndarray:
        """Nominal over local reference time at each instant of ``at_ns``."""
        at = np.asarray(self._at, dtype=np.float64)
        ns = np.asarray(self._ns, dtype=np.float64)
        half = WINDOW // 2
        local = np.array([np.median(ns[max(0, j - half):j + half + 1])
                          for j in range(ns.shape[0])])
        when = np.asarray(at_ns, dtype=np.float64)
        right = np.clip(np.searchsorted(at, when), 0, at.shape[0] - 1)
        left = np.maximum(right - 1, 0)
        nearest = np.where(np.abs(when - at[left]) <= np.abs(at[right] - when),
                           left, right)
        return self.nominal_ms * 1e6 / local[nearest]
