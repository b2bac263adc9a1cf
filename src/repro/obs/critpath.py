"""Critical-path attribution: which resource bounds the elapsed time.

The span tracer records *where time was spent*; the flow network's
binding tracker records *which constraint limited each flow* (the
saturated link or the flow's own demand cap, second by second).  This
module combines the two into the answer the paper's analysis sections
give in prose: "writes are SSD-bound at 3.86 GiB/s per server", "DFUSE
caps out on the daemon's request pool", "fdb reads are MDS-bound".

Method
------
For each run (trace pid):

1. The run's elapsed time is the ``sim.run`` span.
2. For every phase (``workload.write`` / ``workload.read``) the
   *straggler* lane — the span finishing last — defines the phase's
   wall time; everyone else waits on the phase barrier.
3. Inside the straggler's phase window, time covered by client-library
   op spans (``daos.*``, ``lustre.*``, ``ceph.*``, ``dfuse.*``) was
   spent waiting on flows; the gap is serial client work (RPC round
   trips, per-op CPU, barrier skew) and is attributed to **client CPU**.
4. Covered time is attributed to resource classes (client NIC, server
   NIC/fabric, server SSD, metadata service, ...) in proportion to the
   binding-time decomposition of the flows alive during the window —
   the per-flow ``bound_time`` maps the obs layer copies into each flow
   span's ``args``.
5. Time outside any phase window (setup, teardown) is attributed to
   **setup & sync**.

The shares of one run sum to its elapsed time exactly, so the rendered
table reads as a budget: speeding up the top row is the only change
that can shorten the run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.units import left_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

__all__ = [
    "ResourceShare",
    "PhaseAttribution",
    "RunCriticalPath",
    "classify_constraint",
    "analyze_critical_path",
    "render_critical_path",
    "RESOURCE_HINTS",
]

#: client-library categories whose spans mean "waiting on the store"
_OP_CATS = ("daos", "lustre", "ceph", "dfuse")

CLIENT_CPU = "client CPU (serial ops + sync)"
SETUP = "setup & teardown"
UNATTRIBUTED = "unattributed wait"

#: what to do about each resource class when it tops the table
RESOURCE_HINTS: Dict[str, str] = {
    "server SSD (write)": "add server nodes or faster NVMe write channels",
    "server SSD (read)": "add server nodes or raise read-ahead depth",
    "server NIC (fabric)": "add server nodes or a faster fabric",
    "client NIC": "add client nodes or a faster client NIC",
    "metadata service": "shard metadata (more engines / MDS / monitors)",
    "FUSE daemon": "bypass FUSE hops (interception library or libdaos)",
    "client stream cap": "raise per-process parallelism (ppn, queue depth)",
    CLIENT_CPU: "batch operations or cut per-op RPC overhead",
    SETUP: "amortise setup over longer runs",
    UNATTRIBUTED: "inspect the trace (no binding data for this window)",
}

_SSD_W = re.compile(r"\.(ssdagg\.w|ssd\d+\.w)$")
_SSD_R = re.compile(r"\.(ssdagg\.r|ssd\d+\.r)$")


def classify_constraint(key: str) -> str:
    """Map a binding-constraint key (link name or ``"cap"``) to a
    resource class."""
    if key == "cap":
        return "client stream cap"
    if _SSD_W.search(key):
        return "server SSD (write)"
    if _SSD_R.search(key):
        return "server SSD (read)"
    if ".nic." in key:
        return "client NIC" if key.startswith("cli") else "server NIC (fabric)"
    if key.startswith("dfuse."):
        return "FUSE daemon"
    if (
        key.endswith(".md")
        or key.endswith(".rsvc")
        or key.endswith(".ops")
        or key in ("lustre.mds", "ceph.mon")
    ):
        return "metadata service"
    return f"other ({key})"


@dataclass
class ResourceShare:
    """One row of the attribution table."""

    resource: str
    seconds: float
    fraction: float

    @property
    def hint(self) -> str:
        return RESOURCE_HINTS.get(self.resource, "profile this resource further")


@dataclass
class PhaseAttribution:
    """One phase window on the straggler lane."""

    phase: str
    start: float
    end: float
    shares: List[ResourceShare] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def top(self, n: int = 2) -> List[ResourceShare]:
        return sorted(self.shares, key=lambda s: s.seconds, reverse=True)[:n]


@dataclass
class RunCriticalPath:
    """Full attribution of one run's elapsed time."""

    pid: int
    elapsed: float
    phases: List[PhaseAttribution]
    shares: List[ResourceShare]  # whole-run totals, largest first

    def top(self, n: int = 5) -> List[ResourceShare]:
        return self.shares[:n]


def _merged_intervals(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    out: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def _window_binding(flow_spans, start: float, end: float) -> Dict[str, float]:
    """Binding seconds per constraint, from flow spans overlapping the
    window, each scaled by its overlap fraction."""
    acc: Dict[str, float] = {}
    for span in flow_spans:
        dur = span.duration
        if not dur or dur <= 0:
            continue
        frac = _overlap(span.start, span.end, start, end) / dur
        if frac <= 0:
            continue
        for key, secs in span.args["binding"].items():
            acc[key] = acc.get(key, 0.0) + secs * frac
    return acc


def _scaled_shares(binding: Dict[str, float], total: float) -> Dict[str, float]:
    """Collapse constraint keys to resource classes and scale the result
    to sum to ``total`` seconds."""
    by_class: Dict[str, float] = {}
    for key, secs in binding.items():
        cls = classify_constraint(key)
        by_class[cls] = by_class.get(cls, 0.0) + secs
    weight = left_sum(by_class.values())
    if weight <= 0:
        return {UNATTRIBUTED: total} if total > 0 else {}
    return {cls: total * secs / weight for cls, secs in by_class.items()}


def analyze_critical_path(obs: "Observability") -> List[RunCriticalPath]:
    """One :class:`RunCriticalPath` per observed run, in pid order."""
    by_pid: Dict[int, list] = {}
    for span in obs.tracer.finished:
        by_pid.setdefault(span.pid, []).append(span)
    out: List[RunCriticalPath] = []
    for pid in sorted(by_pid):
        spans = by_pid[pid]
        run_span = next((s for s in spans if s.name == "sim.run"), None)
        elapsed = run_span.duration if run_span else max(s.end for s in spans)
        if not elapsed or elapsed <= 0:
            continue
        flow_spans = [
            s for s in spans
            if s.cat == "flownet" and s.args and "binding" in s.args
        ]
        phases: List[PhaseAttribution] = []
        totals: Dict[str, float] = {}
        # straggler lane per phase name
        workload = [s for s in spans if s.cat == "workload"]
        by_phase: Dict[str, list] = {}
        for s in workload:
            by_phase.setdefault(s.name, []).append(s)
        phase_time = 0.0
        for name in sorted(by_phase, key=lambda n: max(s.end for s in by_phase[n])):
            straggler = max(by_phase[name], key=lambda s: s.end)
            start, end = straggler.start, straggler.end
            phase_time += end - start
            ops = [
                (max(s.start, start), min(s.end, end))
                for s in spans
                if s.cat in _OP_CATS and s.tid == straggler.tid
                and _overlap(s.start, s.end, start, end) > 0
            ]
            covered = left_sum(e - s for s, e in _merged_intervals(ops))
            covered = min(covered, end - start)
            shares = _scaled_shares(_window_binding(flow_spans, start, end), covered)
            serial = (end - start) - covered
            if serial > 0:
                shares[CLIENT_CPU] = shares.get(CLIENT_CPU, 0.0) + serial
            attribution = PhaseAttribution(
                phase=name.split(".", 1)[-1], start=start, end=end,
                shares=[
                    ResourceShare(cls, secs, secs / elapsed)
                    for cls, secs in shares.items()
                ],
            )
            phases.append(attribution)
            for cls, secs in shares.items():
                totals[cls] = totals.get(cls, 0.0) + secs
        if not phases:
            # No workload spans (raw probes, bare flows): attribute the
            # whole run from the global flow binding decomposition.
            shares = _scaled_shares(
                _window_binding(flow_spans, 0.0, elapsed), elapsed
            )
            for cls, secs in shares.items():
                totals[cls] = totals.get(cls, 0.0) + secs
        else:
            setup = elapsed - phase_time
            if setup > 1e-12:
                totals[SETUP] = totals.get(SETUP, 0.0) + setup
        rows = [
            ResourceShare(cls, secs, secs / elapsed)
            for cls, secs in totals.items()
        ]
        rows.sort(key=lambda r: r.seconds, reverse=True)
        out.append(RunCriticalPath(pid=pid, elapsed=elapsed, phases=phases, shares=rows))
    return out


def aggregate_shares(runs: List[RunCriticalPath]) -> List[ResourceShare]:
    """Whole-figure totals: shares summed across runs, largest first."""
    totals: Dict[str, float] = {}
    elapsed = 0.0
    for run in runs:
        elapsed += run.elapsed
        for share in run.shares:
            totals[share.resource] = totals.get(share.resource, 0.0) + share.seconds
    rows = [
        ResourceShare(cls, secs, secs / elapsed if elapsed > 0 else 0.0)
        for cls, secs in totals.items()
    ]
    rows.sort(key=lambda r: r.seconds, reverse=True)
    return rows


def render_critical_path(obs: "Observability", top: int = 6, per_run: bool = False) -> str:
    """The "top contributors / what to speed up" table.

    Aggregates across every observed run by default; ``per_run=True``
    adds one block per run with its per-phase breakdown (the view
    ``examples/performance_debugging.py`` prints).  Returns "" when no
    binding data was recorded.
    """
    runs = analyze_critical_path(obs)
    if not runs:
        return ""
    lines: List[str] = []
    total_elapsed = left_sum(r.elapsed for r in runs)
    lines.append(
        f"critical-path attribution ({len(runs)} run(s), "
        f"{total_elapsed:.3f}s simulated):"
    )
    rows = aggregate_shares(runs)
    for share in rows[:top]:
        lines.append(
            f"  {share.seconds:10.3f}s {share.fraction:7.1%}  {share.resource}"
        )
    if rows:
        lines.append(f"  what to speed up first: {rows[0].resource} — {rows[0].hint}")
    if per_run:
        for run in runs:
            lines.append(f"  run {run.pid} ({run.elapsed:.3f}s):")
            for phase in run.phases:
                cells = ", ".join(
                    f"{s.fraction:.0%} {s.resource}" for s in phase.top(2)
                )
                lines.append(
                    f"    {phase.phase:<6} {phase.duration:8.3f}s  {cells}"
                )
    return "\n".join(lines)
