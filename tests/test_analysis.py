"""Analysis utilities: rooflines, fits, plateaus, crossovers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    crossover,
    detect_plateau,
    efficiency,
    linear_fit,
    read_roofline,
    scaling_efficiency,
    write_roofline,
)
from repro.errors import InvalidArgumentError
from repro.hardware.specs import CLIENT_N2_HIGHCPU_32
from repro.units import GiB, Gbps


# -- rooflines (paper Sec. III-A/B numbers) ------------------------------------


def test_write_roofline_paper_value():
    assert write_roofline(16) == pytest.approx(61.76 * GiB)
    assert write_roofline(1) == pytest.approx(3.86 * GiB)
    assert write_roofline(24) == pytest.approx(92.64 * GiB)


def test_read_roofline_server_vs_client_bound():
    assert read_roofline(16, n_client_nodes=32) == pytest.approx(100 * GiB)
    assert read_roofline(16, n_client_nodes=8) == pytest.approx(50 * GiB)


def test_read_roofline_client_nic_is_the_client_spec():
    # the default client NIC is the n2-highcpu-32 spec's 50 Gbps, which
    # is exactly the paper's 6.25 GiB/s per node
    assert CLIENT_N2_HIGHCPU_32.nic_bw == 50 * Gbps == 6.25 * GiB
    assert read_roofline(16, n_client_nodes=1) == CLIENT_N2_HIGHCPU_32.nic_bw


def test_roofline_validation():
    with pytest.raises(InvalidArgumentError):
        write_roofline(0)
    with pytest.raises(InvalidArgumentError):
        read_roofline(0)


def test_efficiency():
    assert efficiency(58 * GiB, write_roofline(16)) == pytest.approx(0.939, rel=1e-2)
    with pytest.raises(InvalidArgumentError):
        efficiency(1.0, 0.0)


# -- linear fit -----------------------------------------------------------------


def test_linear_fit_exact_line():
    slope, intercept, r2 = linear_fit([1, 2, 3, 4], [2, 4, 6, 8])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(0.0, abs=1e-9)
    assert r2 == pytest.approx(1.0)


def test_linear_fit_flat_line():
    slope, _, r2 = linear_fit([1, 2, 3], [5, 5, 5])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)  # perfectly explained (zero variance)


def test_linear_fit_validation():
    with pytest.raises(InvalidArgumentError):
        linear_fit([1], [1])
    with pytest.raises(InvalidArgumentError):
        linear_fit([1, 2], [1])


@given(
    slope=st.floats(0.1, 10.0),
    intercept=st.floats(-5.0, 5.0),
)
def test_linear_fit_recovers_parameters(slope, intercept):
    xs = [1.0, 2.0, 4.0, 8.0, 16.0]
    ys = [slope * x + intercept for x in xs]
    got_slope, got_intercept, r2 = linear_fit(xs, ys)
    assert got_slope == pytest.approx(slope, rel=1e-6)
    assert got_intercept == pytest.approx(intercept, rel=1e-4, abs=1e-6)
    assert r2 > 0.999999


# -- scaling efficiency --------------------------------------------------------------


def test_scaling_efficiency_linear_is_one():
    assert scaling_efficiency([2, 4, 8], [10, 20, 40]) == pytest.approx(1.0)


def test_scaling_efficiency_flat_curve():
    # 4x more servers, no gain: efficiency 1/4
    assert scaling_efficiency([2, 8], [10, 10]) == pytest.approx(0.25)


def test_scaling_efficiency_validation():
    with pytest.raises(InvalidArgumentError):
        scaling_efficiency([0, 1], [1, 2])


# -- plateau detection -----------------------------------------------------------------


def test_detect_plateau_paper_shape():
    """HDF5/libdaos in Fig. 5: grows to ~4 servers then flattens."""
    xs = [2, 4, 8, 16, 24]
    ys = [10.0, 19.0, 21.0, 21.4, 21.4]
    assert detect_plateau(xs, ys) == 8.0  # strictly flat from 8 at 10%
    assert detect_plateau(xs, ys, tolerance=0.15) == 4.0  # knee at 4


def test_detect_plateau_none_when_growing():
    xs = [2, 4, 8, 16, 24]
    ys = [7.7, 15.4, 30.9, 61.8, 92.6]  # near-ideal scaling
    assert detect_plateau(xs, ys) is None


def test_detect_plateau_immediately_flat():
    assert detect_plateau([1, 2, 3], [5.0, 5.1, 4.9]) == 1.0


def test_detect_plateau_tolerance():
    xs = [1, 2, 3]
    ys = [10.0, 11.0, 11.5]
    assert detect_plateau(xs, ys, tolerance=0.05) == 2.0
    assert detect_plateau(xs, ys, tolerance=0.20) == 1.0


# -- crossover ---------------------------------------------------------------------------


def test_crossover_interpolates():
    xs = [1, 2, 3]
    a = [1.0, 3.0, 5.0]
    b = [4.0, 4.0, 4.0]
    # a - b: -3, -1, +1 -> crossover between x=2 and x=3 at 2.5
    assert crossover(xs, a, b) == pytest.approx(2.5)


def test_crossover_none_when_always_apart():
    assert crossover([1, 2], [1.0, 2.0], [5.0, 6.0]) is None


def test_crossover_exact_touch():
    assert crossover([1, 2, 3], [1.0, 2.0, 3.0], [1.0, 5.0, 6.0]) == 1.0
