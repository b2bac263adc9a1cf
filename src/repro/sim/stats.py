"""Measurement accounting using the paper's bandwidth definition.

Section II of the paper: *"the amount of data transferred (written or
read) divided by the wall-clock time elapsed between the start of the
first I/O operation and the end of the last I/O operation"*, aggregated
over all parallel processes.  :class:`PhaseRecorder` implements exactly
that, per named phase ("write", "read"), and additionally tracks
operation counts so IOPS figures (paper Fig. 2) use the same window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.units import Bytes, BytesPerSec, EventsPerSec, Seconds, left_sum

__all__ = ["PhaseRecorder", "PhaseStats", "mean_std"]


@dataclass
class PhaseStats:
    """Aggregate of one benchmark phase across all processes."""

    name: str
    bytes: Bytes = 0
    ops: int = 0
    #: operations that ended in unrecoverable data loss (fault runs)
    lost_ops: int = 0
    first_start: Seconds = math.inf
    last_end: Seconds = -math.inf

    @property
    def elapsed(self) -> Seconds:
        """First-op-start to last-op-end window (the paper's denominator)."""
        if self.last_end < self.first_start:
            return 0.0
        return self.last_end - self.first_start

    @property
    def bandwidth(self) -> BytesPerSec:
        """Bytes per second over the phase window; 0 if the phase is empty."""
        dt = self.elapsed
        return self.bytes / dt if dt > 0 else 0.0

    @property
    def iops(self) -> EventsPerSec:
        """Operations per second over the phase window."""
        dt = self.elapsed
        return self.ops / dt if dt > 0 else 0.0


class PhaseRecorder:
    """Collects per-phase I/O records from every simulated process.

    With ``keep_records=True`` every record's ``(start, end, nbytes)``
    is retained, enabling :meth:`bandwidth_profile` — the time-resolved
    view degraded-mode figures plot.  Off by default: fault-free runs
    keep the flat counters only.
    """

    def __init__(self, keep_records: bool = False) -> None:
        self._phases: Dict[str, PhaseStats] = {}
        self.keep_records = keep_records
        self._records: Dict[str, List[Tuple[float, float, int]]] = {}

    def phase(self, name: str) -> PhaseStats:
        stats = self._phases.get(name)
        if stats is None:
            stats = PhaseStats(name=name)
            self._phases[name] = stats
        return stats

    def record(self, phase: str, start: Seconds, end: Seconds, nbytes: Bytes, ops: int = 1) -> None:
        """Record one I/O (or one batch of ``ops`` I/Os) in ``phase``."""
        if end < start:
            raise SimulationError(f"I/O record ends before it starts ({start} > {end})")
        stats = self.phase(phase)
        stats.bytes += int(nbytes)
        stats.ops += int(ops)
        if start < stats.first_start:
            stats.first_start = start
        if end > stats.last_end:
            stats.last_end = end
        if self.keep_records:
            self._records.setdefault(phase, []).append((start, end, int(nbytes)))

    def record_lost(self, phase: str, start: Seconds, end: Seconds, ops: int = 1) -> None:
        """Record operations that failed with unrecoverable data loss.

        The elapsed time still extends the phase window (the process
        *spent* that time) but moves no bytes and completes no ops.
        """
        if end < start:
            raise SimulationError(f"I/O record ends before it starts ({start} > {end})")
        stats = self.phase(phase)
        stats.lost_ops += int(ops)
        if start < stats.first_start:
            stats.first_start = start
        if end > stats.last_end:
            stats.last_end = end
        if self.keep_records:
            self._records.setdefault(phase, []).append((start, end, 0))

    def lost_ops(self, phase: str) -> int:
        stats = self._phases.get(phase)
        return stats.lost_ops if stats else 0

    def bandwidth_profile(
        self, phase: str, windows: int
    ) -> List[Tuple[float, float]]:
        """Time-resolved bandwidth: ``windows`` equal slices of the phase
        window, each ``(window_mid_time, bytes_per_second)``.

        Every record's bytes are spread uniformly over its ``[start,
        end]`` interval, so an op spanning a window boundary contributes
        to both sides proportionally.  Requires ``keep_records=True``;
        returns ``[]`` when the phase is empty or was not retained.
        """
        if windows < 1:
            raise SimulationError(f"windows must be >= 1, got {windows}")
        records = self._records.get(phase)
        stats = self._phases.get(phase)
        if not records or stats is None or stats.elapsed <= 0:
            return []
        t0, t1 = stats.first_start, stats.last_end
        width = (t1 - t0) / windows
        totals = [0.0] * windows
        for start, end, nbytes in records:
            if nbytes <= 0:
                continue
            if end <= start:
                # instantaneous record: bin it whole
                w = min(int((start - t0) / width), windows - 1)
                totals[w] += nbytes
                continue
            rate = nbytes / (end - start)
            first_w = max(0, min(int((start - t0) / width), windows - 1))
            last_w = max(0, min(int((end - t0) / width), windows - 1))
            for w in range(first_w, last_w + 1):
                lo = t0 + w * width
                overlap = min(end, lo + width) - max(start, lo)
                if overlap > 0:
                    totals[w] += rate * overlap
        return [
            (t0 + (w + 0.5) * width, totals[w] / width)
            for w in range(windows)
        ]

    def get(self, phase: str) -> Optional[PhaseStats]:
        return self._phases.get(phase)

    def bandwidth(self, phase: str) -> BytesPerSec:
        stats = self._phases.get(phase)
        return stats.bandwidth if stats else 0.0

    def iops(self, phase: str) -> EventsPerSec:
        stats = self._phases.get(phase)
        return stats.iops if stats else 0.0

    @property
    def phases(self) -> Dict[str, PhaseStats]:
        return dict(self._phases)


def mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and population standard deviation, as the paper reports
    (average and std over the three repetitions of each test)."""
    if not values:
        return 0.0, 0.0
    n = len(values)
    mean = left_sum(values) / n
    var = left_sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)
