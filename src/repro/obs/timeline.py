"""Time-resolved telemetry: deterministic sim-time sampling.

End-of-run aggregates (PR 1) say *how much* each link carried; they
cannot say *when* a link saturated, how deep the in-flight queue ran
while the stragglers finished, or whether the write phase pinned the
server SSD channel the whole time or only at the end.  The
:class:`TimelineSampler` answers that: it samples link utilisation,
per-node in-flight flow counts, and registry gauges at a fixed
*simulated-time* interval into per-run :class:`Timeline` series.

Sampling is driven entirely by simulation events, never wall clock, and
never schedules events of its own: the sampler rides
``Simulator.time_probe``, which fires whenever the clock is about to
jump forward.  Between two events every flow rate is constant, so the
sampler reconstructs the exact busy integral at each sample boundary by
linear extrapolation from the flow network's last sync point — the
recorded utilisation is exact, not approximate, and attaching a sampler
cannot change modelled results (no events, no RNG, no state writes).

Utilisation samples are *window averages*: the value at time ``t`` is
the mean utilisation over ``(t - interval, t]``, which is the quantity
the paper's bottleneck arguments are about ("the server NIC was pinned
during the whole write phase").
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from typing import IO, Dict, List, Optional, Sequence, Union

from repro.units import left_sum

__all__ = [
    "TimelineConfig",
    "Timeline",
    "TimelineSampler",
    "export_timelines_csv",
    "export_timelines_json",
    "sparkline",
]

#: schema version of the exported timeline JSON document
TIMELINE_SCHEMA = 1

#: hard cap on samples per run (guards against a pathological
#: interval/elapsed ratio; hitting it stops sampling, never the run)
MAX_SAMPLES = 100_000

#: per-device channels (``srv0.ssd3.w``) and per-OSD request links
#: (``osd.srv0.3.ops``) are high-cardinality detail; the node aggregates
#: carry the same bottleneck signal, so device links are never sampled.
_DEVICE_LINK = re.compile(r"(\.ssd\d+\.[wr]$)|(^osd\.)")

_NODE_PREFIX = re.compile(r"^(cli|srv)\d+")


@dataclass(frozen=True)
class TimelineConfig:
    """How a :class:`TimelineSampler` samples.

    ``interval`` is in simulated seconds.  The default (20 ms) yields
    50 samples per simulated second — enough to see phase structure in
    the quick-scale figure runs without drowning the export.
    """

    interval: float = 0.02


class Timeline:
    """One run's aligned time series: ``times[i]`` is the sample instant
    of ``series[name][i]``.  Columns appearing mid-run (links created by
    a lazy DFUSE mount, gauges registered late) are zero-backfilled so
    every column always has ``len(times)`` points."""

    def __init__(self, run_index: int, interval: float):
        self.run_index = run_index
        self.interval = interval
        self.times: List[float] = []
        self.series: Dict[str, List[float]] = {}

    def add_sample(self, t: float, values: Dict[str, float]) -> None:
        n_before = len(self.times)
        self.times.append(t)
        for name, value in values.items():
            col = self.series.get(name)
            if col is None:
                col = [0.0] * n_before
                self.series[name] = col
            col.append(value)
        for name, col in self.series.items():
            if len(col) <= n_before:  # column absent from this sample
                col.append(0.0)

    def column(self, name: str) -> List[float]:
        return self.series.get(name, [])

    def names(self) -> List[str]:
        return sorted(self.series)

    def peak(self, name: str) -> float:
        col = self.column(name)
        return max(col) if col else 0.0

    def mean(self, name: str) -> float:
        col = self.column(name)
        return left_sum(col) / len(col) if col else 0.0

    def to_json_obj(self) -> Dict:
        return {
            "run": self.run_index,
            "interval": self.interval,
            "times": list(self.times),
            "series": {name: list(col) for name, col in sorted(self.series.items())},
        }

    @classmethod
    def from_json_obj(cls, obj: Dict, run_offset: int = 0) -> "Timeline":
        """Rebuild a timeline dumped by :meth:`to_json_obj` — the
        inverse used when merging worker-process observability payloads
        (``run_offset`` keeps run indices unique in the parent)."""
        tl = cls(run_index=int(obj["run"]) + run_offset, interval=float(obj["interval"]))
        tl.times = [float(t) for t in obj["times"]]
        tl.series = {
            str(name): [float(v) for v in col]
            for name, col in obj["series"].items()
        }
        return tl

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Timeline run={self.run_index} samples={len(self.times)} "
            f"columns={len(self.series)}>"
        )


class TimelineSampler:
    """Samples one cluster's flow network into a :class:`Timeline`.

    Attach by assigning :attr:`on_advance` to ``sim.time_probe`` (the
    :class:`repro.obs.Observability` binding does this); call
    :meth:`finish` once the run is over to record the final partial
    window.
    """

    def __init__(self, cluster, config: Optional[TimelineConfig] = None,
                 registry=None, run_index: int = 0):
        self.net = cluster.net
        self.config = config or TimelineConfig()
        if not (math.isfinite(self.config.interval) and self.config.interval > 0):
            from repro.errors import ConfigError

            raise ConfigError(
                f"timeline interval must be a finite number > 0, "
                f"got {self.config.interval}"
            )
        self.registry = registry
        self.timeline = Timeline(run_index, self.config.interval)
        self._last_t = 0.0
        self._next_t = self.config.interval
        self._prev_busy: Dict[str, float] = {}
        self._finished = False

    # -- simulator hook ------------------------------------------------------
    def on_advance(self, t_new: float) -> None:
        """Called by the simulator before the clock jumps to ``t_new``;
        records every sample boundary crossed by the jump."""
        while self._next_t <= t_new + 1e-12:
            if len(self.timeline) >= MAX_SAMPLES:
                return
            self._sample(self._next_t)
            self._next_t += self.config.interval

    def finish(self, elapsed: float) -> None:
        """Record the final partial window ``(last sample, elapsed]``
        (idempotent; called by ``Observability.finalize_run``)."""
        if self._finished:
            return
        self._finished = True
        if elapsed > self._last_t + 1e-12 and len(self.timeline) < MAX_SAMPLES:
            self._sample(elapsed)

    # -- internals -----------------------------------------------------------
    def _link_rates(self) -> Dict[str, float]:
        """Current consumption rate (link units/s) per link name, from
        the active flows' piecewise-constant allocation."""
        rates: Dict[str, float] = {}
        for flow in self.net._active:
            if flow.rate <= 0:
                continue
            for link, weight in zip(flow.links, flow.weights):
                rates[link.name] = rates.get(link.name, 0.0) + flow.rate * weight
        return rates

    def _sample(self, t: float) -> None:
        net = self.net
        window = t - self._last_t
        values: Dict[str, float] = {}
        # Exact busy integral at t: the integral as of the last network
        # sync plus rate * (t - sync); rates are constant in between.
        extrapolate = t - net._last_advance
        rates = self._link_rates()
        busy_at_sync = net.busy_integrals()
        for link in net.links:
            name = link.name
            if _DEVICE_LINK.search(name):
                continue
            busy = float(busy_at_sync[link.index]) + rates.get(name, 0.0) * extrapolate
            prev = self._prev_busy.get(name, 0.0)
            self._prev_busy[name] = busy
            if window > 0:
                values[f"util:{name}"] = (busy - prev) / (link.capacity * window)
        # In-flight flows: total plus per-node counts (a flow touches a
        # node when any of its links belongs to that node).
        active = net._active
        values["flows.active"] = float(len(active))
        per_node: Dict[str, int] = {}
        for flow in active:
            nodes = set()
            for link in flow.links:
                m = _NODE_PREFIX.match(link.name)
                if m:
                    nodes.add(m.group(0))
            for node in nodes:
                per_node[node] = per_node.get(node, 0) + 1
        for node, count in per_node.items():
            values[f"inflight:{node}"] = float(count)
        if self.registry is not None:
            for inst in self.registry:
                if inst.kind == "gauge":
                    values[f"gauge:{inst.name}"] = inst.value
        self.timeline.add_sample(t, values)
        self._last_t = t


# ------------------------------------------------------------------- exporters


def export_timelines_csv(out: Union[str, IO], timelines: Sequence[Timeline]) -> int:
    """Write timelines in long format (``run,time,series,value``);
    returns the number of data rows written."""

    def _write(fh) -> int:
        writer = csv.writer(fh)
        writer.writerow(["run", "time", "series", "value"])
        rows = 0
        for tl in timelines:
            for name in tl.names():
                col = tl.series[name]
                for t, v in zip(tl.times, col):
                    writer.writerow([tl.run_index, f"{t:.9g}", name, f"{v:.9g}"])
                    rows += 1
        return rows

    if isinstance(out, str):
        with open(out, "w", newline="") as fh:
            return _write(fh)
    return _write(out)


def export_timelines_json(out: Union[str, IO], timelines: Sequence[Timeline]) -> None:
    """Write timelines as one JSON document (``schema`` + per-run series)."""
    doc = {
        "schema": TIMELINE_SCHEMA,
        "runs": [tl.to_json_obj() for tl in timelines],
    }
    if isinstance(out, str):
        with open(out, "w") as fh:
            json.dump(doc, fh)
    else:
        json.dump(doc, out)


# ------------------------------------------------------------------ sparklines

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 48,
              lo: float = 0.0, hi: Optional[float] = None) -> str:
    """Render values as a fixed-width unicode sparkline.

    Values are bucket-averaged down to ``width`` characters; the scale
    runs from ``lo`` to ``hi`` (default: the series maximum; utilisation
    series pass ``hi=1.0`` so 1.0 = full block across links).
    """
    if not values:
        return ""
    values = list(values)
    n = len(values)
    if n > width:
        buckets = []
        for i in range(width):
            a = i * n // width
            b = max(a + 1, (i + 1) * n // width)
            chunk = values[a:b]
            buckets.append(left_sum(chunk) / len(chunk))
        values = buckets
    top = hi if hi is not None else max(values)
    span = top - lo
    if span <= 0:
        return _BLOCKS[0] * len(values)
    out = []
    for v in values:
        frac = (v - lo) / span
        idx = int(frac * (len(_BLOCKS) - 1) + 0.5)
        out.append(_BLOCKS[max(0, min(len(_BLOCKS) - 1, idx))])
    return "".join(out)


def render_timeline(timeline: Timeline, top: int = 4, width: int = 48) -> str:
    """ASCII block for one run's timeline: the hottest utilisation
    series as sparklines plus the in-flight flow count."""
    lines = [
        f"timeline (run {timeline.run_index}, "
        f"{len(timeline)} samples @ {timeline.interval:g}s):"
    ]
    util = [(name, timeline.mean(name)) for name in timeline.names()
            if name.startswith("util:")]
    util.sort(key=lambda r: r[1], reverse=True)
    for name, mean in util[:top]:
        col = timeline.column(name)
        lines.append(
            f"  {sparkline(col, width, hi=1.0)}  {name[5:]:<18} "
            f"mean {mean:5.1%}  peak {max(col):5.1%}"
        )
    flows = timeline.column("flows.active")
    if flows:
        lines.append(
            f"  {sparkline(flows, width)}  {'in-flight flows':<18} "
            f"mean {left_sum(flows) / len(flows):5.1f}  peak {max(flows):5.0f}"
        )
    return "\n".join(lines)
