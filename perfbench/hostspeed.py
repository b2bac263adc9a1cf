"""How fast the host runs right now, measured with two fixed kernels.

The benchmark's host is a share of a machine whose speed drifts by a
quarter or more over tens of seconds (other tenants, frequency
changes), far more than the changes the benchmark has to resolve.  The
runner therefore times two fixed kernels, which share no code with
:mod:`repro`, between the points of every pass:

* :func:`cpu_kernel` -- interpreter-bound work of the kind the
  simulator's event loop does (a heap of timed events, object attribute
  and dict traffic, float arithmetic, small numpy reductions);
* :func:`memory_kernel` -- memory-bound work of the kind the byte-level
  data path does (filling fresh buffers slice by slice, table lookups
  and XOR over a quarter-MiB array).

The host's *slowdown* is the geometric mean of the two kernels' times
over their nominal times (:data:`NOMINAL_CPU_S`, :data:`NOMINAL_MEMORY_S`),
and the runner reports a pass's wall time divided by it.  A slow spell
of the host stretches interpreter-bound code more than memory-bound
code; the program mixes both, and so does the slowdown.  A change to the
program moves the scaled time as it moves the raw time.
"""

from __future__ import annotations

import gc
import heapq
import math
import statistics
import time
from typing import Callable, Dict, List

import numpy as np

__all__ = ["Gauge", "NOMINAL_CPU_S", "NOMINAL_MEMORY_S", "cpu_kernel", "memory_kernel"]

#: each kernel's wall time on an unloaded core of the reference host
#: (x86-64 server core, CPython 3.11); constants, so that every run
#: scales to the same reference speed
NOMINAL_CPU_S = 0.0025
NOMINAL_MEMORY_S = 0.0025

_ROUNDS = 1000
_RNG = np.random.default_rng(20231130)
_WEIGHTS = _RNG.random(96)
_GROUPS = _RNG.integers(0, 12, 96)
_STARTS = np.array([0, 16, 40, 64, 80])

_BUFFER = 1 << 18
_SLICE = 1 << 14
_PASSES = 3
_SOURCE = _RNG.integers(0, 256, _BUFFER, dtype=np.uint8).tobytes()
_TABLE = _RNG.integers(0, 256, 256, dtype=np.uint8)


class _Flow:
    __slots__ = ("fid", "remaining", "rate", "links")

    def __init__(self, fid: int, size: float, links: List[int]) -> None:
        self.fid = fid
        self.remaining = size
        self.rate = 0.0
        self.links = links


def _timed(body: Callable[[], None]) -> float:
    """Wall time of ``body`` with the cyclic garbage collector off: a
    collection the kernel's allocations set off would scan the
    program's objects and charge them to the host's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        body()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _cpu_body() -> None:
    heap: List[tuple] = []
    flows: Dict[int, _Flow] = {}
    load = [0.0] * 12
    now = 0.0
    seq = 0
    for i in range(_ROUNDS):
        links = [(i * 7) % 12, (i * 5 + 3) % 12]
        flow = _Flow(i, 1.0 + (i * 7919) % 97, links)
        flows[i] = flow
        for link in flow.links:
            load[link] += 1.0
        flow.rate = min(10.0 / load[link] for link in flow.links)
        seq += 1
        heapq.heappush(heap, (now + flow.remaining / flow.rate, seq, i))
        if len(heap) > 24:
            now, _, fid = heapq.heappop(heap)
            done = flows.pop(fid)
            for link in done.links:
                load[link] -= 1.0
        if i % 12 == 0:
            sums = np.bincount(_GROUPS, weights=_WEIGHTS, minlength=12)
            now += float(np.minimum.reduceat(_WEIGHTS, _STARTS).sum() + sums.max()) * 1e-9


def _memory_body() -> None:
    for _ in range(_PASSES):
        buf = bytearray(_BUFFER)
        for start in range(0, _BUFFER, _SLICE):
            buf[start:start + _SLICE] = _SOURCE[start:start + _SLICE]
        cells = np.frombuffer(bytes(buf), dtype=np.uint8)
        mixed = _TABLE[cells] ^ cells
        mixed[::4096].sum()


def cpu_kernel() -> float:
    """Run the interpreter-bound kernel once; return its wall time."""
    return _timed(_cpu_body)


def memory_kernel() -> float:
    """Run the memory-bound kernel once; return its wall time."""
    return _timed(_memory_body)


class Gauge:
    """Kernel samples taken between the points of one pass.

    :meth:`sample` runs both kernels for about ``share`` of the time
    since the previous call (at least once each), so the slowdown is
    weighted by time.  Each batch starts with one unrecorded run of each
    kernel: that run finds the caches as the program left them, which
    depends on the program.  ``spent`` is the wall time of all runs, for
    the caller to subtract.
    """

    def __init__(self, share: float = 0.03) -> None:
        self.share = share
        self.cpu: List[float] = []
        self.memory: List[float] = []
        self.spent = 0.0
        self._mark = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        rounds = 1 + int(self.share * (t0 - self._mark) / (NOMINAL_CPU_S + NOMINAL_MEMORY_S))
        cpu_kernel()
        memory_kernel()
        for _ in range(rounds):
            self.cpu.append(cpu_kernel())
            self.memory.append(memory_kernel())
        self._mark = time.perf_counter()
        self.spent += self._mark - t0

    @property
    def slowdown(self) -> float:
        """Geometric mean of the kernels' mean times over their nominal
        times (1.0 if nothing was sampled)."""
        if not self.cpu:
            return 1.0
        return math.sqrt(statistics.fmean(self.cpu) / NOMINAL_CPU_S
                         * statistics.fmean(self.memory) / NOMINAL_MEMORY_S)
