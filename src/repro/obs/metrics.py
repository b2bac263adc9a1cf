"""Named instruments and the metrics registry.

Instrument names follow the ``layer.operation`` convention used across
the whole stack (``daos.rpc.count``, ``dfuse.cache.hit``,
``ceph.osd.bytes_written``, ``sim.events_executed``); the first
dot-separated segment is the *layer*, which is how the per-figure
bottleneck summary groups counters.  A registry is passive: nothing in
the simulator consults it, so attaching or detaching one never changes
scheduling decisions, random streams, or measured bandwidths.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
]


class Instrument:
    """Common identity of every registered instrument."""

    __slots__ = ("name", "unit", "description")

    kind = "instrument"

    def __init__(self, name: str, unit: str = "", description: str = ""):
        self.name = name
        self.unit = unit
        self.description = description

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class Counter(Instrument):
    """A monotonically increasing total (ops, bytes, events)."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self, name: str, unit: str = "", description: str = ""):
        super().__init__(name, unit, description)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(f"counter {self.name!r} cannot decrease ({amount})")
        self.value += amount


class Gauge(Instrument):
    """A point-in-time level; also tracks the peak ever set."""

    __slots__ = ("value", "peak")

    kind = "gauge"

    def __init__(self, name: str, unit: str = "", description: str = ""):
        super().__init__(name, unit, description)
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        if value > self.peak:
            self.peak = float(value)

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is a new high-water mark."""
        if value > self.value:
            self.set(value)


class LatencyHistogram(Instrument):
    """HDR-style streaming histogram with exact deterministic buckets.

    It covers the full positive float range with log-spaced buckets
    computed from the value's binary representation: ``math.frexp(v)``
    splits ``v`` into mantissa/exponent, each power-of-two octave is
    subdivided into :attr:`SUBSTEPS` equal-width sub-buckets, so every
    bucket's bounds are exact dyadic rationals — identical on every
    platform and process, which is what makes the cross-process
    :meth:`dump_state`/:meth:`merge_state` path exact.  The relative
    bucket width (hence the worst-case quantile error) is under 1.6%.

    :meth:`quantile` is rank-based (``rank = max(1, ceil(q * n))``) and
    returns the winning bucket's *lower* edge: the largest
    bucket-representable value known to be <= the true order statistic.
    Values that sit exactly on a bucket edge (e.g. powers of two) are
    therefore reported back exactly.  Storage is a sparse dict, so an
    instrument that never observes stays at a handful of machine words.
    """

    __slots__ = ("counts", "zeros", "total", "count", "vmin", "vmax")

    kind = "latency_histogram"

    #: equal-width sub-buckets per power-of-two octave
    SUBSTEPS = 64

    def __init__(self, name: str, unit: str = "s", description: str = ""):
        super().__init__(name, unit, description)
        #: sparse bucket index -> count (index = exponent * SUBSTEPS + sub)
        self.counts: Dict[int, int] = {}
        self.zeros = 0
        self.total = 0.0
        self.count = 0
        self.vmin = math.inf
        self.vmax = -math.inf

    @classmethod
    def bucket_index(cls, value: float) -> int:
        """Deterministic bucket of a positive value: its binary octave
        (frexp exponent) times :attr:`SUBSTEPS` plus the linear
        sub-bucket of the mantissa."""
        steps = cls.SUBSTEPS
        m, e = math.frexp(value)  # value = m * 2**e with m in [0.5, 1)
        sub = int((m - 0.5) * (2 * steps))
        if sub >= steps:  # guard the m -> 1.0 rounding corner
            sub = steps - 1
        return e * steps + sub

    @classmethod
    def bucket_bounds(cls, index: int) -> Tuple[float, float]:
        """``[lo, hi)`` edges of a bucket — exact dyadic rationals."""
        steps = cls.SUBSTEPS
        e, sub = divmod(index, steps)
        lo = math.ldexp(0.5 + sub / (2.0 * steps), e)
        hi = math.ldexp(0.5 + (sub + 1) / (2.0 * steps), e)
        return lo, hi

    def observe(self, value: float) -> None:
        if value < 0:
            raise ConfigError(
                f"latency histogram {self.name!r} cannot observe {value}"
            )
        if value == 0.0:  # exact: zero has no frexp octave; dedicated bucket
            self.zeros += 1
        else:
            idx = self.bucket_index(value)
            self.counts[idx] = self.counts.get(idx, 0) + 1
        self.count += 1
        self.total += value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile_index(self, q: float) -> Optional[int]:
        """Bucket index holding the rank-based q-quantile; None when it
        falls in the zeros bucket (or nothing was observed)."""
        if not 0 <= q <= 1:
            raise ConfigError(f"quantile must be in [0, 1]: {q}")
        rank = max(1, math.ceil(q * self.count))
        seen = self.zeros
        if rank <= seen:
            return None
        for idx in sorted(self.counts):
            seen += self.counts[idx]
            if seen >= rank:
                return idx
        return None  # nothing observed

    def quantile(self, q: float) -> float:
        """Rank-based q-quantile at bucket resolution (deterministic)."""
        idx = self.quantile_index(q)
        return 0.0 if idx is None else float(self.bucket_bounds(idx)[0])

    def percentiles(self) -> tuple:
        """The report triple: (p50, p99, p999)."""
        return self.quantile(0.5), self.quantile(0.99), self.quantile(0.999)

    # -- cross-process merge ------------------------------------------------
    def dump_state(self) -> Dict[str, object]:
        """Complete, mergeable state as plain picklable data."""
        return {
            # sorted [index, count] pairs: deterministic and JSON-safe
            # (a dict would stringify the int keys)
            "counts": [[i, self.counts[i]] for i in sorted(self.counts)],
            "zeros": self.zeros,
            "total": self.total,
            "count": self.count,
            "vmin": self.vmin,
            "vmax": self.vmax,
        }

    def merge_state(self, row: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`dump_state` in.  Bucket
        indices are value-deterministic, so adding counts reproduces the
        serial histogram's buckets exactly."""
        counts = self.counts
        for idx, n in row["counts"]:
            idx = int(idx)
            counts[idx] = counts.get(idx, 0) + int(n)
        self.zeros += int(row["zeros"])
        self.total += float(row["total"])
        self.count += int(row["count"])
        self.vmin = min(self.vmin, float(row["vmin"]))
        self.vmax = max(self.vmax, float(row["vmax"]))


class MetricsRegistry:
    """Get-or-create store of named instruments.

    Names are unique across instrument kinds: asking for an existing
    name with a different kind is a programming error and raises
    :class:`~repro.errors.ConfigError`.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, cls, name: str, unit: str, description: str):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name, unit=unit, description=description)
            self._instruments[name] = inst
            return inst
        if not isinstance(inst, cls):
            raise ConfigError(
                f"metric {name!r} already registered as a {inst.kind}, "
                f"not a {cls.kind}"
            )
        return inst

    def counter(self, name: str, unit: str = "", description: str = "") -> Counter:
        return self._get_or_create(Counter, name, unit, description)

    def gauge(self, name: str, unit: str = "", description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, unit, description)

    def latency_histogram(
        self, name: str, unit: str = "s", description: str = ""
    ) -> LatencyHistogram:
        return self._get_or_create(LatencyHistogram, name, unit, description)

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self) -> Iterable[Instrument]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    # -- reporting -----------------------------------------------------------
    def by_layer(self) -> Dict[str, List[Instrument]]:
        """Instruments grouped by the first dot-segment of their name."""
        out: Dict[str, List[Instrument]] = {}
        for name in self.names():
            layer = name.split(".", 1)[0]
            out.setdefault(layer, []).append(self._instruments[name])
        return out

    def snapshot(self) -> Dict[str, dict]:
        """Plain-data view of every instrument, for JSON export."""
        out: Dict[str, dict] = {}
        for name in self.names():
            inst = self._instruments[name]
            row: Dict[str, object] = {"kind": inst.kind, "unit": inst.unit}
            if isinstance(inst, Counter):
                row["value"] = inst.value
            elif isinstance(inst, Gauge):
                row["value"] = inst.value
                row["peak"] = inst.peak
            elif isinstance(inst, LatencyHistogram):
                p50, p99, p999 = inst.percentiles()
                row.update(
                    count=inst.count, sum=inst.total, mean=inst.mean,
                    p50=p50, p99=p99, p999=p999,
                )
                if inst.count:
                    row["min"] = inst.vmin
                    row["max"] = inst.vmax
            out[name] = row
        return out

    # -- cross-process merge ------------------------------------------------
    def dump_state(self) -> Dict[str, dict]:
        """Complete, mergeable state of every instrument.

        Unlike :meth:`snapshot` (a lossy reporting view) this captures
        everything :meth:`merge_state` needs to reconstruct the
        instrument in another process: raw bucket counts and min/max.
        The payload is plain picklable data.
        """
        out: Dict[str, dict] = {}
        for name in self.names():
            inst = self._instruments[name]
            row: Dict[str, object] = {
                "kind": inst.kind,
                "unit": inst.unit,
                "description": inst.description,
            }
            if isinstance(inst, Counter):
                row["value"] = inst.value
            elif isinstance(inst, Gauge):
                row["value"] = inst.value
                row["peak"] = inst.peak
            elif isinstance(inst, LatencyHistogram):
                row.update(inst.dump_state())
            out[name] = row
        return out

    def merge_state(self, state: Dict[str, dict]) -> None:
        """Fold another registry's :meth:`dump_state` into this one.

        Merge semantics are commutative and associative, so absorbing
        worker payloads in any order yields the same totals: counters
        add, gauge values and peaks take the maximum (a point-in-time
        level has no meaningful cross-process sum), histograms add
        bucket counts and widen min/max.  Instruments missing here are
        created with the dumped identity.
        """
        for name, row in sorted(state.items()):
            kind = row["kind"]
            unit, description = str(row["unit"]), str(row["description"])
            if kind == "counter":
                self.counter(name, unit, description).inc(float(row["value"]))
            elif kind == "gauge":
                gauge = self.gauge(name, unit, description)
                gauge.set_max(float(row["peak"]))
                gauge.value = max(gauge.value, float(row["value"]))
            elif kind == "latency_histogram":
                self.latency_histogram(name, unit, description).merge_state(row)
            else:
                raise ConfigError(f"unknown instrument kind {kind!r} for {name!r}")

    def render_table(self) -> str:
        """Human-readable metrics table grouped by layer (a "(no
        metrics...)" placeholder when the registry is empty)."""
        if not self._instruments:
            return "(no metrics recorded)"
        lines = [f"{'metric':<36}{'kind':>10}  {'value':>42}  unit"]
        lines.append("-" * len(lines[0]))
        for layer, instruments in self.by_layer().items():
            for inst in instruments:
                if isinstance(inst, Counter):
                    value = f"{inst.value:,.0f}"
                elif isinstance(inst, Gauge):
                    value = f"{inst.value:,.0f} (peak {inst.peak:,.0f})"
                else:
                    p50, p99, p999 = inst.percentiles()
                    value = (
                        f"n={inst.count} p50={p50:.3g} "
                        f"p99={p99:.3g} p999={p999:.3g}"
                    )
                lines.append(f"{inst.name:<36}{inst.kind:>10}  {value:>42}  {inst.unit}")
        return "\n".join(lines)
