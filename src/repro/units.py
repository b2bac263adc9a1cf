"""Byte-size and bandwidth units used throughout the library.

All sizes are plain integers in bytes and all rates are floats in bytes
per second, so arithmetic stays unit-free internally; this module exists
so configuration and reporting read like the paper (``1 MiB`` I/O,
``GiB/s`` bandwidths, ``50 Gbps`` NICs).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

# Dimension aliases for annotations.  At runtime these are plain
# ``int``/``float`` — zero cost, zero behaviour change — but simflow's
# SL014 checker reads them as dimension declarations and propagates
# bytes/seconds/rates through model arithmetic, flagging mismatched
# additions and comparisons.  Annotate quantities with these instead of
# bare ``int``/``float`` wherever the unit is meaningful.
Bytes = int
Seconds = float
BytesPerSec = float
EventsPerSec = float
Dimensionless = float

KiB: int = 1024
MiB: int = 1024**2
GiB: int = 1024**3
TiB: int = 1024**4

#: One gigabit per second expressed in bytes per second (network vendors
#: quote decimal gigabits: 50 Gbps = 6.25 GB/s; the paper rounds this to
#: 6.25 GiB/s and we follow the paper's convention so rooflines match).
Gbps: float = GiB / 8

_SUFFIXES = {
    "b": 1,
    "kib": KiB,
    "mib": MiB,
    "gib": GiB,
    "tib": TiB,
    "kb": 1000,
    "mb": 1000**2,
    "gb": 1000**3,
    "tb": 1000**4,
}


def parse_size(text: str | int | float) -> int:
    """Parse a human-readable size (``"1 MiB"``, ``"4kib"``, ``4096``) to bytes.

    >>> parse_size("1 MiB")
    1048576
    >>> parse_size(512)
    512
    """
    if isinstance(text, (int, float)):
        return int(text)
    s = text.strip().lower().replace(" ", "")
    for suffix in sorted(_SUFFIXES, key=len, reverse=True):
        if s.endswith(suffix):
            number = s[: -len(suffix)]
            return int(float(number) * _SUFFIXES[suffix])
    return int(float(s))


def left_sum(values: Iterable[float]) -> float:
    """``((0.0 + v1) + v2) + ...``: one plain IEEE-754 addition per
    term, left to right (docs/MODEL.md, "Float sums").

    Builtin ``sum()`` of floats is compensated (Neumaier) from Python
    3.12 on, so the same model would round differently on different
    interpreters; modelled float sums use this fold instead.

    >>> left_sum([0.1, 0.2, 0.3])
    0.6000000000000001
    """
    total = 0.0
    for v in values:
        total += v
    return total


@lru_cache(maxsize=8)
def zeros(n: Bytes) -> bytes:
    """``n`` zero bytes, shared between callers.

    Stores that keep no payload (non-materialising containers, holes,
    size-only reads) return this instead of allocating a fresh buffer
    per op.  ``bytes`` is immutable, so sharing one object is safe; the
    cache holds only the few most recent sizes.

    >>> zeros(3)
    b'\\x00\\x00\\x00'
    """
    return bytes(n)


def fmt_bytes(n: float) -> str:
    """Render a byte count with a binary suffix (``1536 -> '1.50 KiB'``)."""
    n = float(n)
    for suffix, factor in (("TiB", TiB), ("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if abs(n) >= factor:
            return f"{n / factor:.2f} {suffix}"
    return f"{n:.0f} B"


def fmt_bw(rate: float) -> str:
    """Render a bandwidth in the unit the paper uses (GiB/s)."""
    return f"{rate / GiB:.2f} GiB/s"


def fmt_iops(rate: float) -> str:
    """Render an operation rate (ops/s) with a k/M suffix."""
    if abs(rate) >= 1e6:
        return f"{rate / 1e6:.2f} Mops/s"
    if abs(rate) >= 1e3:
        return f"{rate / 1e3:.2f} kops/s"
    return f"{rate:.1f} ops/s"
