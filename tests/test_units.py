"""Unit parsing and formatting."""

import pytest

from repro.units import (
    GiB, Gbps, KiB, MiB, TiB, fmt_bw, fmt_bytes, fmt_iops, left_sum, parse_size,
)


def test_constants_are_binary_powers():
    assert KiB == 2**10
    assert MiB == 2**20
    assert GiB == 2**30
    assert TiB == 2**40


def test_gbps_matches_paper_convention():
    # Paper: 50 Gbps NIC = 6.25 GiB/s.
    assert 50 * Gbps == pytest.approx(6.25 * GiB)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1 MiB", MiB),
        ("1MiB", MiB),
        ("4kib", 4 * KiB),
        ("2 GiB", 2 * GiB),
        ("1.5 KiB", 1536),
        ("100 MB", 100 * 1000**2),
        ("3 TB", 3 * 1000**4),
        ("512", 512),
        ("0", 0),
        (4096, 4096),
        (1.0, 1),
    ],
)
def test_parse_size(text, expected):
    assert parse_size(text) == expected


def test_parse_size_case_insensitive():
    assert parse_size("1 gib") == parse_size("1 GiB") == parse_size("1GIB")


def test_left_sum_is_a_plain_left_fold():
    """One rounding per term, left to right, on every interpreter:
    ``(0.1 + 0.2) + 0.3`` rounds up, where a compensated sum (builtin
    ``sum()`` from Python 3.12 on) gives 0.6."""
    assert left_sum([0.1, 0.2, 0.3]) == 0.6000000000000001
    assert left_sum([0.3, 0.2, 0.1]) == 0.6
    assert left_sum(iter([1e16, 1.0, -1e16])) == 0.0
    assert left_sum([]) == 0.0


def test_parse_size_garbage_raises():
    with pytest.raises(ValueError):
        parse_size("lots")


def test_fmt_bytes():
    assert fmt_bytes(512) == "512 B"
    assert fmt_bytes(1536) == "1.50 KiB"
    assert fmt_bytes(3 * GiB) == "3.00 GiB"
    assert fmt_bytes(2 * TiB) == "2.00 TiB"


def test_fmt_bw():
    assert fmt_bw(61.76 * GiB) == "61.76 GiB/s"


def test_fmt_iops():
    assert fmt_iops(950.0) == "950.0 ops/s"
    assert fmt_iops(12_500) == "12.50 kops/s"
    assert fmt_iops(3_000_000) == "3.00 Mops/s"


@pytest.mark.parametrize(
    "n", [0, 1, 512, 1023, KiB, 1536, MiB, 5 * GiB, TiB, 2 * TiB]
)
def test_fmt_parse_round_trip(n):
    # fmt_bytes keeps two decimals, so any value expressible as a
    # hundredth of its suffix unit must survive the round trip exactly
    assert parse_size(fmt_bytes(n)) == n


def test_parse_size_zero_and_negative():
    assert parse_size("0 MiB") == 0
    assert parse_size("-1 MiB") == -MiB
    assert parse_size(-4096) == -4096
    assert parse_size("-2.5 KiB") == -2560


def test_parse_size_scientific_notation():
    assert parse_size("1e3") == 1000
    assert parse_size("1e3 b") == 1000


def test_parse_size_decimal_vs_binary_suffixes():
    assert parse_size("1 kb") == 1000
    assert parse_size("1 kib") == 1024
    assert parse_size("1.5kb") == 1500


def test_parse_size_bare_suffix_raises():
    with pytest.raises(ValueError):
        parse_size("kb")
    with pytest.raises(ValueError):
        parse_size("")


def test_fmt_bytes_zero_and_negative():
    assert fmt_bytes(0) == "0 B"
    assert fmt_bytes(-512) == "-512 B"
    assert fmt_bytes(-1536) == "-1.50 KiB"
    assert fmt_bytes(-2 * GiB) == "-2.00 GiB"


def test_fmt_bytes_boundaries():
    # one below each threshold stays in the smaller unit
    assert fmt_bytes(KiB - 1) == "1023 B"
    assert fmt_bytes(KiB) == "1.00 KiB"
    assert fmt_bytes(MiB - 1) == "1024.00 KiB"
    assert fmt_bytes(MiB) == "1.00 MiB"
    assert fmt_bytes(TiB) == "1.00 TiB"


def test_fmt_bw_zero_and_negative():
    assert fmt_bw(0.0) == "0.00 GiB/s"
    assert fmt_bw(-1.5 * GiB) == "-1.50 GiB/s"


def test_fmt_iops_boundaries():
    assert fmt_iops(0.0) == "0.0 ops/s"
    assert fmt_iops(999.9) == "999.9 ops/s"
    assert fmt_iops(1000.0) == "1.00 kops/s"
    assert fmt_iops(1e6) == "1.00 Mops/s"
    assert fmt_iops(-12_500) == "-12.50 kops/s"
