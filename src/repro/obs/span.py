"""Hierarchical spans tied to simulation time.

A :class:`Span` covers a simulated-time interval of one operation
(``daos.arr-write``, ``workload.read``, a flow in the network).  Spans
nest: opening a span while another is open *on the same (pid, tid)
lane* makes it a child, which is what turns a figure run into a
readable flame-graph-style trace in Perfetto.

Lanes
-----
``pid`` identifies one simulation run (the harness bumps it per
repetition, so a three-rep point renders as three processes in
``chrome://tracing``); ``tid`` identifies one timeline inside the run.
The convention used by the built-in instrumentation:

- tid 0  — the simulator kernel (``sim.run``)
- tid 1  — the flow network (one slice per flow)
- tid 100+k — client node ``k`` (workload phases and client-library ops)

In aggregate mode one simulation process drives each client node, so
per-node lanes nest correctly; in exact mode ranks of one node
interleave on the lane, and parent attribution is best-effort (the
trace is still valid — slices just overlap).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "TID_SIM", "TID_FLOWNET", "TID_NODE_BASE"]

TID_SIM = 0
TID_FLOWNET = 1
TID_NODE_BASE = 100


class Span:
    """One timed interval; ``end is None`` while still open."""

    __slots__ = (
        "span_id", "parent_id", "name", "cat", "start", "end",
        "pid", "tid", "args",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        cat: str,
        start: float,
        pid: int,
        tid: int,
        parent_id: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.start = start
        self.end: Optional[float] = None
        self.pid = pid
        self.tid = tid
        self.args = args

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"{self.duration:.6f}s"
        return f"<Span {self.name!r} [{self.cat}] {state}>"


class Tracer:
    """Collects spans against a pluggable simulation clock.

    The tracer is bound to a simulator clock per run (see
    :meth:`set_context`); until bound it reads time 0.0, so it can be
    constructed before any cluster exists.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock: Callable[[], float] = clock or (lambda: 0.0)
        self.pid = 0
        self.spans: List[Span] = []
        self.thread_labels: Dict[int, str] = {TID_SIM: "sim", TID_FLOWNET: "flownet"}
        self._stacks: Dict[tuple, List[Span]] = {}
        self._next_id = 0

    # -- wiring --------------------------------------------------------------
    def set_context(self, pid: int, clock: Callable[[], float]) -> None:
        """Point the tracer at a new run: its pid and its sim clock."""
        self.pid = pid
        self._clock = clock
        self._stacks.clear()

    def label_thread(self, tid: int, label: str) -> None:
        self.thread_labels.setdefault(tid, label)

    @property
    def now(self) -> float:
        return self._clock()

    # -- span lifecycle ------------------------------------------------------
    def _alloc(self, name, cat, start, tid, args) -> Span:
        stack = self._stacks.get((self.pid, tid))
        parent_id = stack[-1].span_id if stack else None
        self._next_id += 1
        span = Span(
            span_id=self._next_id, name=name, cat=cat, start=start,
            pid=self.pid, tid=tid, parent_id=parent_id, args=args,
        )
        self.spans.append(span)
        return span

    def begin(self, name: str, cat: str = "", tid: int = 0,
              args: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span now; pair with :meth:`finish`."""
        span = self._alloc(name, cat, self._clock(), tid, args)
        self._stacks.setdefault((self.pid, tid), []).append(span)
        return span

    def finish(self, span: Span) -> Span:
        """Close a span at the current simulation time."""
        if span.end is None:
            span.end = self._clock()
        stack = self._stacks.get((span.pid, span.tid))
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:
            stack.remove(span)
        return span

    @contextmanager
    def span(self, name: str, cat: str = "", tid: int = 0,
             args: Optional[Dict[str, Any]] = None):
        """Context manager: ``with tracer.span("daos.arr-write", "daos"):``."""
        span = self.begin(name, cat=cat, tid=tid, args=args)
        try:
            yield span
        finally:
            self.finish(span)

    def record(self, name: str, cat: str, start: float, end: float,
               tid: int = 0, args: Optional[Dict[str, Any]] = None) -> Span:
        """Record an interval whose endpoints are already known (e.g. a
        completed flow); it nests under the lane's currently open span."""
        span = self._alloc(name, cat, start, tid, args)
        span.end = end
        return span

    # -- cross-process merge ---------------------------------------------------
    def dump_spans(self) -> List[Dict[str, Any]]:
        """Plain-data view of every span plus thread labels, for
        shipping a worker process's trace back to the parent."""
        return [
            {
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "name": s.name,
                "cat": s.cat,
                "start": s.start,
                "end": s.end,
                "pid": s.pid,
                "tid": s.tid,
                "args": s.args,
            }
            for s in self.spans
        ]

    def absorb(self, spans: List[Dict[str, Any]], pid_offset: int = 0,
               thread_labels: Optional[Dict[int, str]] = None) -> None:
        """Merge spans dumped by another tracer (:meth:`dump_spans`).

        Span ids are reallocated from this tracer's counter and parent
        links are remapped accordingly; pids are shifted by
        ``pid_offset`` so merged runs keep distinct process lanes in
        the exported trace.
        """
        id_map: Dict[int, int] = {}
        for row in spans:
            self._next_id += 1
            id_map[row["span_id"]] = self._next_id
        for row in spans:
            parent = row["parent_id"]
            span = Span(
                span_id=id_map[row["span_id"]],
                name=row["name"],
                cat=row["cat"],
                start=row["start"],
                pid=row["pid"] + pid_offset,
                tid=row["tid"],
                parent_id=id_map.get(parent) if parent is not None else None,
                args=row["args"],
            )
            span.end = row["end"]
            self.spans.append(span)
        for tid, label in (thread_labels or {}).items():
            self.label_thread(int(tid), label)

    # -- queries ---------------------------------------------------------------
    @property
    def finished(self) -> List[Span]:
        return [s for s in self.spans if s.end is not None]

    def by_category(self) -> Dict[str, List[Span]]:
        out: Dict[str, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.cat, []).append(span)
        return out

    def categories(self) -> List[str]:
        return sorted({s.cat for s in self.spans})

    def top_spans(self, n: int = 10) -> List[tuple]:
        """(name, count, total duration) triples, heaviest first —
        aggregated by span name, the 'where did the time go' table."""
        totals: Dict[str, List[float]] = {}
        for span in self.finished:
            acc = totals.setdefault(span.name, [0, 0.0])
            acc[0] += 1
            acc[1] += span.duration
        rows = [(name, int(c), t) for name, (c, t) in totals.items()]
        rows.sort(key=lambda r: r[2], reverse=True)
        return rows[:n]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]
