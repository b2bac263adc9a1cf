"""The cyclic barrier."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.sim.primitives import Barrier


# -- Barrier -------------------------------------------------------------------


def test_barrier_releases_all_at_once():
    sim = Simulator()
    barrier = Barrier(sim, 3)
    release_times = []

    def worker(delay):
        yield sim.timeout(delay)
        yield barrier.wait()
        release_times.append(sim.now)

    for d in (1.0, 2.0, 3.0):
        sim.process(worker(d))
    sim.run()
    assert release_times == [3.0, 3.0, 3.0]


def test_barrier_is_cyclic_and_reports_cycle():
    sim = Simulator()
    barrier = Barrier(sim, 2)
    cycles = []

    def worker(delays):
        for d in delays:
            yield sim.timeout(d)
            cycle = yield barrier.wait()
            cycles.append(cycle)

    sim.process(worker([1.0, 1.0]))
    sim.process(worker([2.0, 2.0]))
    sim.run()
    assert cycles == [0, 0, 1, 1]
    assert barrier.cycle == 2


def test_barrier_single_party_never_blocks():
    sim = Simulator()
    barrier = Barrier(sim, 1)

    def solo():
        yield barrier.wait()
        yield barrier.wait()
        return sim.now

    proc = sim.process(solo())
    sim.run()
    assert proc.result == 0.0


def test_barrier_overflow_rejected():
    sim = Simulator()
    barrier = Barrier(sim, 1)
    barrier._arrived = 1  # simulate a stuck party (white-box)
    with pytest.raises(SimulationError):
        barrier.wait()


def test_barrier_bad_parties():
    with pytest.raises(SimulationError):
        Barrier(Simulator(), 0)
