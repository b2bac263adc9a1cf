"""Bandwidth accounting per the paper's definition."""

import pytest

from repro.errors import SimulationError
from repro.sim.stats import PhaseRecorder, mean_std
from repro.units import GiB, MiB


def test_single_record_bandwidth():
    rec = PhaseRecorder()
    rec.record("write", start=0.0, end=2.0, nbytes=4 * GiB)
    assert rec.bandwidth("write") == pytest.approx(2 * GiB)


def test_window_is_first_start_to_last_end():
    """The paper divides total bytes by (last op end - first op start),
    across all processes — idle gaps inside the window count."""
    rec = PhaseRecorder()
    rec.record("write", start=0.0, end=1.0, nbytes=1 * GiB)
    rec.record("write", start=9.0, end=10.0, nbytes=1 * GiB)
    stats = rec.get("write")
    assert stats.elapsed == pytest.approx(10.0)
    assert stats.bandwidth == pytest.approx(0.2 * GiB)


def test_overlapping_processes_single_window():
    rec = PhaseRecorder()
    for p in range(4):
        rec.record("read", start=0.1 * p, end=5.0 + 0.1 * p, nbytes=10 * GiB)
    stats = rec.get("read")
    assert stats.bytes == 40 * GiB
    assert stats.first_start == pytest.approx(0.0)
    assert stats.last_end == pytest.approx(5.3)


def test_phases_are_independent():
    rec = PhaseRecorder()
    rec.record("write", 0.0, 1.0, MiB)
    rec.record("read", 100.0, 101.0, 2 * MiB)
    assert rec.bandwidth("write") == pytest.approx(MiB)
    assert rec.bandwidth("read") == pytest.approx(2 * MiB)


def test_iops_accounting():
    rec = PhaseRecorder()
    rec.record("write", 0.0, 2.0, 1000 * 1024, ops=1000)
    assert rec.iops("write") == pytest.approx(500.0)


def test_batch_record_counts_ops():
    rec = PhaseRecorder()
    rec.record("write", 0.0, 1.0, 100 * MiB, ops=100)
    assert rec.get("write").ops == 100


def test_missing_phase_is_zero():
    rec = PhaseRecorder()
    assert rec.bandwidth("nope") == 0.0
    assert rec.iops("nope") == 0.0
    assert rec.get("nope") is None


def test_empty_phase_zero_bandwidth():
    rec = PhaseRecorder()
    stats = rec.phase("write")
    assert stats.elapsed == 0.0
    assert stats.bandwidth == 0.0
    assert stats.iops == 0.0


def test_backwards_record_rejected():
    rec = PhaseRecorder()
    with pytest.raises(SimulationError):
        rec.record("write", start=2.0, end=1.0, nbytes=1)


def test_phases_property_snapshot():
    rec = PhaseRecorder()
    rec.record("write", 0.0, 1.0, 1)
    snap = rec.phases
    assert set(snap) == {"write"}
    snap["bogus"] = None
    assert "bogus" not in rec.phases


def test_mean_std_basic():
    mean, std = mean_std([2.0, 4.0, 6.0])
    assert mean == pytest.approx(4.0)
    assert std == pytest.approx((8.0 / 3.0) ** 0.5)


def test_mean_std_single_and_empty():
    assert mean_std([5.0]) == (5.0, 0.0)
    assert mean_std([]) == (0.0, 0.0)
