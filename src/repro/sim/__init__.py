"""Discrete-event simulation substrate.

This package is the foundation every simulated storage system is built
on.  It provides:

- :mod:`repro.sim.core` — the event loop (:class:`~repro.sim.core.Simulator`),
  generator-based :class:`~repro.sim.core.Process` coroutines,
  :class:`~repro.sim.core.Timeout` and one-shot :class:`~repro.sim.core.Signal`
  waitables;
- :mod:`repro.sim.primitives` — the cyclic :class:`~repro.sim.primitives.Barrier`
  (MPI phase boundaries) layered on signals;
- :mod:`repro.sim.flownet` — the weighted max-min fair flow network that
  models bandwidth sharing over NICs, SSDs, and metadata services;
- :mod:`repro.sim.randomness` — deterministic, named RNG streams;
- :mod:`repro.sim.stats` — first-start/last-end bandwidth accounting as
  defined in the paper's methodology section.
"""

from repro.sim.core import Process, Signal, Simulator, Timeout
from repro.sim.flownet import FlowNetwork, Link
from repro.sim.primitives import Barrier
from repro.sim.randomness import RngStreams
from repro.sim.stats import PhaseRecorder

__all__ = [
    "Simulator",
    "Process",
    "Signal",
    "Timeout",
    "FlowNetwork",
    "Link",
    "Barrier",
    "RngStreams",
    "PhaseRecorder",
]
