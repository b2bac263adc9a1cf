"""The one synchronisation primitive the model needs, built on
:class:`~repro.sim.core.Signal`: a cyclic :class:`Barrier`, the phase
boundary every benchmark in the paper inserts between its write and
read phases (the simulated MPI runtime's ``MPI_Barrier``).
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.core import Simulator, Waitable

__all__ = ["Barrier"]


class Barrier:
    """Cyclic barrier for ``parties`` processes.

    ``yield barrier.wait()`` blocks until all parties have arrived, then
    releases everyone simultaneously and resets for the next cycle.  The
    value delivered to each waiter is the cycle index (0, 1, 2, ...),
    matching how the benchmarks separate write and read phases.
    """

    def __init__(self, sim: Simulator, parties: int, name: str = "barrier"):
        if parties < 1:
            raise SimulationError(f"barrier parties must be >= 1, got {parties}")
        self.sim = sim
        self.name = name
        self.parties = parties
        self.cycle = 0
        self._arrived = 0
        self._release = sim.signal(name=f"{name}.cycle0")

    @property
    def waiting(self) -> int:
        return self._arrived

    def wait(self) -> Waitable:
        self._arrived += 1
        if self._arrived > self.parties:
            raise SimulationError(
                f"barrier {self.name!r}: more arrivals than parties ({self.parties})"
            )
        sig = self._release
        if self._arrived == self.parties:
            self._arrived = 0
            self.cycle += 1
            self._release = self.sim.signal(name=f"{self.name}.cycle{self.cycle}")
            sig.succeed(self.cycle - 1)
        return sig
