"""Observability: registry semantics, span nesting, exporters, and the
zero-overhead guarantee (instrumentation never changes measured numbers)."""

import json

import pytest

import repro.obs as obs_mod
from repro.errors import ConfigError
from repro.obs import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    Observability,
    Tracer,
    activated,
    chrome_trace_events,
    current,
    export_chrome_trace,
)
from repro.sim.core import Simulator


# -- metrics registry ------------------------------------------------------------


def test_registry_get_or_create_is_idempotent():
    reg = MetricsRegistry()
    a = reg.counter("daos.rpc.count", unit="rpcs")
    b = reg.counter("daos.rpc.count")
    assert a is b
    assert len(reg) == 1
    assert "daos.rpc.count" in reg


def test_registry_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x.ops")
    with pytest.raises(ConfigError):
        reg.gauge("x.ops")
    with pytest.raises(ConfigError):
        reg.latency_histogram("x.ops")


def test_counter_monotonic():
    c = Counter("c")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ConfigError):
        c.inc(-1)


def test_gauge_peak_tracking():
    g = Gauge("g")
    g.set(10)
    g.set(4)
    assert g.value == 4 and g.peak == 10
    g.set_max(3)
    assert g.value == 4  # not a new high-water mark
    g.set_max(20)
    assert g.value == 20 and g.peak == 20


def test_registry_by_layer_and_snapshot():
    reg = MetricsRegistry()
    reg.counter("daos.rpc.count").inc(7)
    reg.counter("daos.bytes.written", unit="B").inc(100)
    reg.gauge("sim.heap_peak").set(42)
    reg.latency_histogram("flownet.flow.duration").observe(0.5)
    layers = reg.by_layer()
    assert set(layers) == {"daos", "sim", "flownet"}
    assert len(layers["daos"]) == 2
    snap = reg.snapshot()
    assert snap["daos.rpc.count"] == {"kind": "counter", "unit": "", "value": 7.0}
    assert snap["sim.heap_peak"]["peak"] == 42.0
    flow = snap["flownet.flow.duration"]
    assert flow["kind"] == "latency_histogram" and flow["count"] == 1
    assert flow["p50"] == flow["min"] == flow["max"] == 0.5
    json.dumps(snap)  # plain data, JSON-safe
    table = reg.render_table()
    assert "daos.rpc.count" in table and "counter" in table


# -- tracer ----------------------------------------------------------------------


def test_span_nesting_and_sim_time():
    sim = Simulator()
    tracer = Tracer()
    tracer.set_context(pid=0, clock=lambda: sim.now)

    def proc():
        with tracer.span("workload.write", cat="workload", tid=100) as outer:
            yield sim.timeout(1.0)
            with tracer.span("daos.arr-write", cat="daos", tid=100) as inner:
                yield sim.timeout(2.0)
        assert inner.parent_id == outer.span_id

    sim.process(proc())
    sim.run()
    outer, inner = tracer.spans
    assert outer.start == 0.0 and outer.end == pytest.approx(3.0)
    assert inner.start == pytest.approx(1.0) and inner.end == pytest.approx(3.0)
    assert outer.parent_id is None
    assert tracer.children_of(outer) == [inner]
    assert tracer.categories() == ["daos", "workload"]


def test_span_lanes_do_not_cross_parent():
    tracer = Tracer()
    a = tracer.begin("a", tid=1)
    b = tracer.begin("b", tid=2)  # different lane: not a child of a
    assert b.parent_id is None
    tracer.finish(b)
    tracer.finish(a)
    assert len(tracer.finished) == 2


def test_record_known_interval_nests_under_open_span():
    tracer = Tracer()
    outer = tracer.begin("outer", tid=0)
    flow = tracer.record("flow", cat="flownet", start=0.5, end=1.5, tid=0)
    assert flow.parent_id == outer.span_id
    assert flow.duration == pytest.approx(1.0)
    tracer.finish(outer)


def test_set_context_bumps_pid_and_clears_stacks():
    tracer = Tracer()
    tracer.begin("left-open", tid=0)
    tracer.set_context(pid=1, clock=lambda: 9.0)
    span = tracer.begin("fresh", tid=0)
    assert span.pid == 1
    assert span.parent_id is None  # stale stack was cleared
    assert span.start == 9.0


def test_top_spans_aggregates_by_name():
    tracer = Tracer()
    tracer.record("big", "c", 0.0, 10.0)
    tracer.record("small", "c", 0.0, 1.0)
    tracer.record("small", "c", 1.0, 2.0)
    top = tracer.top_spans(2)
    assert top[0] == ("big", 1, pytest.approx(10.0))
    assert top[1] == ("small", 2, pytest.approx(2.0))


# -- exporters -------------------------------------------------------------------


def test_chrome_trace_event_shape():
    tracer = Tracer()
    tracer.label_thread(100, "cli0")
    tracer.record("daos.arr-write", "daos", start=0.25, end=0.75, tid=100)
    events = chrome_trace_events(tracer)
    slices = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(slices) == 1
    ev = slices[0]
    assert ev["name"] == "daos.arr-write"
    assert ev["ts"] == pytest.approx(0.25e6)  # sim seconds -> microseconds
    assert ev["dur"] == pytest.approx(0.5e6)
    assert ev["pid"] == 0 and ev["tid"] == 100
    assert {"sim", "flownet", "cli0"} <= {
        m["args"]["name"] for m in metas if m["name"] == "thread_name"
    }


def test_export_chrome_trace_multi_tracer_pid_offsets(tmp_path):
    t1, t2 = Tracer(), Tracer()
    t1.record("a", "c", 0.0, 1.0)
    t2.record("b", "c", 0.0, 1.0)
    out = tmp_path / "trace.json"
    n = export_chrome_trace(str(out), [("F1", t1), ("F2", t2)])
    assert n == 2
    doc = json.loads(out.read_text())
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["pid"] for e in slices} == {0, 1}  # offset per figure
    labels = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert labels == {"F1 0", "F2 0"}


# -- ambient context -------------------------------------------------------------


def test_activated_context_restores_previous():
    assert current() is None
    o = Observability()
    with activated(o):
        assert current() is o
        with activated(None):
            assert current() is None
        assert current() is o
    assert current() is None


def test_cluster_binds_active_observability():
    from repro.hardware.cluster import Cluster

    o = Observability()
    with activated(o):
        cluster = Cluster(n_servers=1, n_clients=1, seed=0)
    assert cluster.obs is o
    assert cluster.sim.metrics is o.registry
    assert len(cluster.net.on_transfer) == 1
    # outside the context new clusters are unobserved
    plain = Cluster(n_servers=1, n_clients=1, seed=0)
    assert plain.obs is None
    assert plain.sim.metrics is None
    assert plain.net.on_transfer == []


# -- end to end ------------------------------------------------------------------


def small_spec(**kwargs):
    from repro.harness.experiment import PointSpec

    defaults = dict(
        workload="ior", store="daos", api="DFS",
        n_servers=2, n_client_nodes=2, ppn=4, ops_per_process=8,
    )
    defaults.update(kwargs)
    return PointSpec(**defaults)


def test_observed_run_collects_all_layers():
    from repro.harness.experiment import run_point

    o = Observability()
    with activated(o):
        run_point(small_spec(), reps=2)
    assert {"sim", "flownet", "daos", "workload"} <= set(o.tracer.categories())
    reg = o.registry
    assert reg.counter("sim.events_executed").value > 0
    assert reg.gauge("sim.heap_peak").peak > 0
    assert reg.counter("daos.rpc.count").value > 0
    assert reg.counter("daos.bytes.written").value > 0
    started = reg.counter("flownet.flows.started").value
    assert started > 0
    assert reg.counter("flownet.flows.completed").value == started
    assert reg.counter("workload.bytes").value > 0
    # reps render as separate trace processes
    assert {s.pid for s in o.tracer.spans} == {0, 1}
    # finalize_run aggregated link utilisation
    hottest = o.hottest_links(5)
    assert hottest and all(0.0 <= u <= 1.0 + 1e-9 for _, u in hottest)


def test_instrumentation_is_zero_overhead_on_results():
    """The acceptance criterion: identical numbers with and without obs —
    including the timeline sampler and flow-binding tracker, which ride
    the time probe / allocation bookkeeping and must never perturb the
    event schedule."""
    from repro.harness.experiment import run_point
    from repro.obs import TimelineConfig

    plain = run_point(small_spec(), reps=2, base_seed=3)
    with activated(Observability()):
        observed = run_point(small_spec(), reps=2, base_seed=3)
    with activated(Observability(timeline=TimelineConfig(interval=0.001))):
        sampled = run_point(small_spec(), reps=2, base_seed=3)
    for other in (observed, sampled):
        assert plain.write_bw == other.write_bw
        assert plain.read_bw == other.read_bw
        assert plain.write_iops == other.write_iops
        assert plain.read_iops == other.read_iops


def test_bottleneck_summary_renders():
    from repro.harness.experiment import run_point
    from repro.obs.report import render_bottlenecks

    o = Observability()
    with activated(o):
        run_point(small_spec(), reps=1)
    text = render_bottlenecks(o)
    assert "top spans" in text
    assert "hottest links" in text
    assert "per-layer counters" in text
    assert "daos" in text
    empty = render_bottlenecks(Observability())
    assert "no instrumentation data" in empty


def test_hottest_links_aggregates_across_clusters():
    """Two bound clusters: link stats accumulate across both, and a
    bound-but-never-run cluster (zero elapsed) contributes nothing."""
    from repro.hardware.cluster import Cluster

    o = Observability()
    for seed in (0, 1):
        with activated(o):
            cluster = Cluster(n_servers=1, n_clients=1, seed=seed)
        src = cluster.net.add_link("x.src", 100.0)
        dst = cluster.net.add_link("x.dst", 200.0)
        cluster.net.transfer(100.0, [(src, 1.0), (dst, 1.0)], name="t")
        cluster.sim.run()
        o.finalize_run(cluster)
    busy, denom = o.link_stats["x.src"]
    assert denom == pytest.approx(2 * 100.0 * 1.0)  # two 1s runs
    assert busy == pytest.approx(2 * 100.0)
    hottest = dict(o.hottest_links(10))
    assert hottest["x.src"] == pytest.approx(1.0)
    assert hottest["x.dst"] == pytest.approx(0.5)
    # zero-elapsed run: bound, finalized, but no simulation ran
    stats_before = {k: list(v) for k, v in o.link_stats.items()}
    with activated(o):
        idle = Cluster(n_servers=1, n_clients=1, seed=2)
    o.finalize_run(idle)
    assert {k: list(v) for k, v in o.link_stats.items()} == stats_before


def test_flow_duration_is_a_latency_histogram():
    """A zero-size flow lands in the zeros bucket, a 1 s flow in the
    bucket whose [lo, hi) holds 1.0."""
    from repro.hardware.cluster import Cluster

    o = Observability()
    with activated(o):
        cluster = Cluster(n_servers=1, n_clients=1, seed=0)
    link = cluster.net.add_link("x.link", 100.0)
    cluster.net.transfer(0.0, [(link, 1.0)], name="empty")
    cluster.net.transfer(100.0, [(link, 1.0)], name="one-second")
    cluster.sim.run()
    hist = o.registry.get("flownet.flow.duration")
    assert isinstance(hist, LatencyHistogram)
    assert hist.count == 2 and hist.zeros == 1
    [(idx, n)] = hist.counts.items()
    lo, hi = hist.bucket_bounds(idx)
    assert n == 1 and lo <= 1.0 < hi
    assert hist.vmax == 1.0


def test_render_table_histogram_percentiles():
    reg = MetricsRegistry()
    h = reg.latency_histogram("a.lat")
    for v in (0.5, 2.0, 5.0, 50.0):
        h.observe(v)
    table = reg.render_table()
    assert "p50=" in table and "p99=" in table


def test_simulator_metrics_hook_counts_events():
    sim = Simulator()
    reg = MetricsRegistry()
    sim.metrics = reg

    def proc():
        for _ in range(5):
            yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    assert reg.counter("sim.events_executed").value >= 5
    assert reg.gauge("sim.heap_peak").peak >= 1
