"""Unified observability: metrics registry + hierarchical span tracer.

One :class:`Observability` object follows an experiment across every
simulated cluster it builds (the harness builds a fresh cluster per
repetition).  Binding is automatic: :class:`repro.hardware.Cluster`
looks up the *active* observability at construction time, so

    from repro import obs

    o = obs.Observability()
    with obs.activated(o):
        result = run_point(spec)          # every layer is instrumented
    print(o.registry.render_table())
    obs.export_chrome_trace("trace.json", o.tracer)

works without threading an argument through the harness, figures, or
workloads.  With no active observability every instrumentation site is
a single ``is None`` check — the simulation schedules exactly the same
events either way, so measured bandwidths are bit-identical with and
without instrumentation.

Span names follow ``layer.operation`` (``daos.arr-write``,
``workload.read``); metric names likewise (``dfuse.cache.hit``,
``sim.events_executed``).  See ``docs/OBSERVABILITY.md`` for the
instrument catalogue.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.obs.critpath import (
    analyze_critical_path,
    classify_constraint,
    render_critical_path,
)
from repro.obs.export import (
    chrome_trace_events,
    export_chrome_trace,
    export_collapsed_stacks,
    export_ledger_ndjson,
    export_profile_json,
    ledger_trace_events,
)
from repro.obs.ledger import (
    NULL_CONTEXT,
    NULL_LEDGER,
    NullLedger,
    NullOpContext,
    OpContext,
    OpLedger,
    parse_quantile,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)
from repro.obs.profile import ProfileRecorder
from repro.obs.report import (
    render_hot_paths,
    render_tail_exemplars,
    render_waterfall,
)
from repro.obs.span import TID_FLOWNET, TID_NODE_BASE, TID_SIM, Span, Tracer
from repro.obs.timeline import (
    Timeline,
    TimelineConfig,
    TimelineSampler,
    export_timelines_csv,
    export_timelines_json,
    render_timeline,
    sparkline,
)

__all__ = [
    "Observability",
    "activated",
    "current",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "ProfileRecorder",
    "OpLedger",
    "OpContext",
    "NullLedger",
    "NullOpContext",
    "NULL_LEDGER",
    "NULL_CONTEXT",
    "parse_quantile",
    "render_hot_paths",
    "render_tail_exemplars",
    "render_waterfall",
    "export_ledger_ndjson",
    "ledger_trace_events",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "export_chrome_trace",
    "export_collapsed_stacks",
    "export_profile_json",
    "Timeline",
    "TimelineConfig",
    "TimelineSampler",
    "export_timelines_csv",
    "export_timelines_json",
    "render_timeline",
    "sparkline",
    "analyze_critical_path",
    "classify_constraint",
    "render_critical_path",
    "TID_SIM",
    "TID_FLOWNET",
    "TID_NODE_BASE",
]

class Observability:
    """A metrics registry and a tracer that travel together.

    The same object may observe many clusters in sequence (one per
    repetition / figure point); each binding becomes one ``pid`` in the
    exported trace.  Aggregated link statistics survive across runs so
    the bottleneck summary can rank the hottest links of a whole
    figure, not just the last repetition.
    """

    def __init__(
        self,
        timeline: Optional[TimelineConfig] = None,
        profile: Optional[ProfileRecorder] = None,
        ledger: Optional[OpLedger] = None,
    ):
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        #: when set, every bound cluster's simulator routes dispatches
        #: through this recorder (simprof); dormant otherwise
        self.profile = profile
        #: when set, clients decompose every op's latency into named
        #: components with deterministic tail exemplars; dormant otherwise
        self.ledger = ledger
        self.run_index = -1
        #: link name -> [busy integral, capacity * elapsed] across runs
        self.link_stats: Dict[str, List[float]] = {}
        #: when set, every bound cluster gets a TimelineSampler and its
        #: per-run series accumulate in :attr:`timelines`
        self.timeline_config = timeline
        self.timelines: List[Timeline] = []
        self._sampler: Optional[TimelineSampler] = None
        self._bound = None
        self._finalized = True

    # -- cluster wiring ------------------------------------------------------
    def bind(self, cluster) -> None:
        """Attach to a freshly built cluster (called by ``Cluster``)."""
        self.finalize()  # close out the previous run, if still open
        self.run_index += 1
        sim = cluster.sim
        self.tracer.set_context(pid=self.run_index, clock=lambda: sim.now)
        sim.metrics = self.registry
        if self.profile is not None:
            sim.profile = self.profile
        if self.ledger is not None:
            self.ledger.set_run(self.run_index)
        self._hook_flownet(cluster.net)
        if self.timeline_config is not None:
            sampler = TimelineSampler(
                cluster, self.timeline_config,
                registry=self.registry, run_index=self.run_index,
            )
            sim.time_probe = sampler.on_advance
            self.timelines.append(sampler.timeline)
            self._sampler = sampler
        self._bound = cluster
        self._finalized = False

    def _hook_flownet(self, net) -> None:
        reg = self.registry
        tracer = self.tracer
        started = reg.counter("flownet.flows.started", unit="flows")
        completed = reg.counter("flownet.flows.completed", unit="flows")
        units = reg.counter("flownet.units.transferred", unit="units")
        durations = reg.latency_histogram(
            "flownet.flow.duration", description="lifetime of completed flows"
        )
        # pure bookkeeping in the network: records which constraint bounds
        # each flow; never changes rates, ordering, or modelled results
        net.track_binding = True

        def _flow_args(flow):
            if flow.bound_time:
                return {"bytes": flow.size, "binding": dict(flow.bound_time)}
            return {"bytes": flow.size}

        def on_transfer(flow):
            started.inc()
            units.inc(flow.size)
            if flow.done.fired:  # zero-size flows complete synchronously
                completed.inc()
                durations.observe(0.0)
                tracer.record(flow.name, "flownet", flow.started_at,
                              flow.finished_at, tid=TID_FLOWNET,
                              args=_flow_args(flow))
                return

            def on_done(_value, _exc, flow=flow):
                if flow.finished_at is None:
                    return  # cancelled: not a completion
                completed.inc()
                durations.observe(flow.finished_at - flow.started_at)
                tracer.record(flow.name, "flownet", flow.started_at,
                              flow.finished_at, tid=TID_FLOWNET,
                              args=_flow_args(flow))

            flow.done._subscribe(net.sim, on_done)

        net.on_transfer.append(on_transfer)

    def finalize(self) -> None:
        """Close out the currently bound cluster, if any (idempotent).

        Rebinding finalizes the previous cluster automatically; call
        this after the last run so its ``sim.run`` span and link
        statistics are captured too (the harness does)."""
        if self._bound is not None and not self._finalized:
            self.finalize_run(self._bound)

    def finalize_run(self, cluster) -> None:
        """Record run-level data once a cluster's simulation is over:
        the ``sim.run`` span and every link's utilisation integral."""
        if cluster is self._bound:
            if self._finalized:
                return
            self._finalized = True
        elapsed = cluster.sim.now
        if self._sampler is not None and self._sampler.net is cluster.net:
            self._sampler.finish(elapsed)
        self.tracer.record("sim.run", "sim", 0.0, elapsed, tid=TID_SIM)
        if elapsed > 0:
            busy = cluster.net.busy_integrals()
            for link in cluster.net.links:
                acc = self.link_stats.setdefault(link.name, [0.0, 0.0])
                acc[0] += float(busy[link.index])
                acc[1] += link.capacity * elapsed

    # -- cross-process merge -------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """Complete picklable state: one point's telemetry record.

        The harness observes every point with a private Observability,
        whichever process runs it, and keeps its dump as the point's
        record; each figure :meth:`absorb`\\ s its points' records, so
        ``--trace``/``--metrics``/``--timeline`` see one merged view no
        matter how many processes ran the figure.  Call
        :meth:`finalize` first so the last run's ``sim.run`` span and
        link integrals are included.
        """
        return {
            "registry": self.registry.dump_state(),
            "spans": self.tracer.dump_spans(),
            "thread_labels": dict(self.tracer.thread_labels),
            "link_stats": {k: list(v) for k, v in self.link_stats.items()},
            "timelines": [tl.to_json_obj() for tl in self.timelines],
            "runs": self.run_index + 1,
            "profile": (
                self.profile.dump_state() if self.profile is not None else None
            ),
            "ledger": (
                self.ledger.dump_state() if self.ledger is not None else None
            ),
        }

    def absorb(self, payload: Dict[str, Any]) -> None:
        """Merge a point's :meth:`dump` into this observability.

        Counters add, gauges keep maxima, histograms merge buckets,
        link utilisation integrals accumulate, and the worker's trace
        pids / timeline run indices are shifted past this object's
        current run count so lanes stay distinct.  Absorbing payloads
        in a fixed order (the executor uses plan order) keeps the
        merged trace deterministic.
        """
        self.finalize()
        pid_offset = self.run_index + 1
        self.registry.merge_state(payload["registry"])
        self.tracer.absorb(
            payload["spans"],
            pid_offset=pid_offset,
            thread_labels=payload.get("thread_labels"),
        )
        for name, (busy, denom) in payload["link_stats"].items():
            acc = self.link_stats.setdefault(name, [0.0, 0.0])
            acc[0] += busy
            acc[1] += denom
        for obj in payload["timelines"]:
            self.timelines.append(Timeline.from_json_obj(obj, run_offset=pid_offset))
        profile_state = payload.get("profile")
        if profile_state is not None:
            if self.profile is None:
                self.profile = ProfileRecorder()
            self.profile.merge_state(profile_state)
        ledger_state = payload.get("ledger")
        if ledger_state is not None:
            if self.ledger is None:
                self.ledger = OpLedger()
            # exemplar runs shift with the trace pids, so the merged
            # (run, seq) order equals the serial run's exactly
            self.ledger.merge_state(ledger_state, run_offset=pid_offset)
        self.run_index += int(payload["runs"])

    # -- lane helpers --------------------------------------------------------
    def node_tid(self, node) -> int:
        """Stable per-client-node lane id (labels the trace thread)."""
        tid = TID_NODE_BASE + node.index
        self.tracer.label_thread(tid, node.name)
        return tid

    # -- reporting -----------------------------------------------------------
    def hottest_links(self, top: int = 10) -> List[tuple]:
        """(link name, mean utilisation) pairs, hottest first, across
        every observed run."""
        rows = [
            (name, busy / denom)
            for name, (busy, denom) in self.link_stats.items()
            if denom > 0
        ]
        rows.sort(key=lambda r: r[1], reverse=True)
        return rows[:top]


# ---------------------------------------------------------------- active context

_active: Optional[Observability] = None


def current() -> Optional[Observability]:
    """The observability new clusters bind to, or None."""
    return _active


@contextmanager
def activated(obs: Optional[Observability]):
    """Make ``obs`` the active observability for the duration."""
    global _active
    previous = _active
    _active = obs
    try:
        yield obs
    finally:
        _active = previous
