"""simprof: engine self-profiling (ProfileRecorder) and the per-op
LatencyHistogram.

The profiling contract mirrors the rest of obs/: everything *counted*
(events, sites, recomputes, queue depths, bucket indices) is a pure
function of the simulation — exact across processes and merge orders —
while wall-clock fields are host noise and only sanity-checked.  The
dormancy contract is absolute: with no recorder attached the engine
pays one ``is None`` check and modelled numbers are bit-identical.
"""

import json

import pytest

import repro.obs as obs_mod
from repro.daos import DaosClient, Pool
from repro.errors import ConfigError
from repro.hardware import Cluster
from repro.harness.executor import SerialExecutor, execute_plan
from repro.harness.experiment import PointSpec, run_point
from repro.harness.plan import make_plan
from repro.harness.resilience import ResilientParallelExecutor
from repro.obs import (
    LatencyHistogram,
    Observability,
    OpLedger,
    ProfileRecorder,
    export_collapsed_stacks,
    export_profile_json,
    render_hot_paths,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.core import Simulator
from repro.sim.flownet import FlowNetwork
from repro.units import MiB

SMALL = PointSpec(
    workload="ior", store="daos", api="DAOS",
    n_servers=2, n_client_nodes=1, ppn=2, ops_per_process=4, batches=1,
)
OTHER = SMALL.with_(ppn=4)


# ------------------------------------------------------- recorder basics


def run_ticks(n=1000, profile=None, metrics=None):
    sim = Simulator()
    sim.profile = profile
    sim.metrics = metrics

    def tick():
        pass

    for i in range(n):
        sim.schedule(i * 1e-6, tick)
    sim.run()
    return sim


def test_dispatch_counts_match_engine_counter():
    prof = ProfileRecorder()
    reg = MetricsRegistry()
    run_ticks(1000, profile=prof, metrics=reg)
    assert prof.events_dispatched == 1000
    assert prof.events_dispatched == int(reg.counter("sim.events_executed").value)
    assert prof.runs == 1
    assert prof.dispatch_wall >= 0.0


def test_queue_peak_matches_heap_peak_gauge():
    prof = ProfileRecorder()
    reg = MetricsRegistry()
    run_ticks(1000, profile=prof, metrics=reg)
    assert prof.queue_depth_peak == int(reg.gauge("sim.heap_peak").peak)
    assert prof.queue_depth_peak >= 1


def test_site_names_are_stable_and_local_noise_free():
    prof = ProfileRecorder()
    run_ticks(10, profile=prof)
    # the tick closure lives in a test function: its <locals> qualname
    # noise must be stripped so keys merge across runs and processes
    (site,) = prof.sites
    assert "<locals>" not in site
    assert site.endswith(".tick")
    assert prof.sites[site][0] == 10


def test_recompute_stats_match_flownet_reallocations():
    sim = Simulator()
    prof = ProfileRecorder()
    sim.profile = prof
    net = FlowNetwork(sim)
    links = [net.add_link(f"l{i}", 1e9) for i in range(4)]

    def driver(i):
        flow = net.transfer(4 * MiB, [(links[i % 4], 1.0), (links[(i + 1) % 4], 1.0)],
                            name=f"f{i}")
        yield flow.done

    for i in range(6):
        sim.process(driver(i))
    sim.run()
    assert prof.recomputes == net.reallocations
    assert prof.recomputes > 0
    assert prof.links_total_peak == 4
    assert prof.recompute_flows > 0
    assert prof.recompute_edges >= prof.recompute_flows  # 2 links per flow
    assert prof.recomputes_full <= prof.recomputes
    assert prof.recompute_wall >= 0.0


def test_profiled_point_is_bit_identical_to_unobserved():
    with obs_mod.activated(None):
        bare = run_point(SMALL, reps=2)
    obs = Observability(profile=ProfileRecorder())
    with obs_mod.activated(obs):
        profiled = run_point(SMALL, reps=2)
    obs.finalize()
    # exact: attaching simprof must not perturb modelled results
    assert profiled.write_bw == bare.write_bw
    assert obs.profile.events_dispatched > 0
    assert obs.profile.recomputes > 0


def test_dump_merge_adds_counts_and_maxes_peaks():
    a = ProfileRecorder()
    b = ProfileRecorder()
    run_ticks(100, profile=a)
    run_ticks(250, profile=b)
    b.queue_depth_peak = max(b.queue_depth_peak, 999)
    merged = ProfileRecorder()
    merged.merge_state(a.dump_state())
    merged.merge_state(b.dump_state())
    assert merged.events_dispatched == 350
    assert merged.runs == 2
    assert merged.queue_depth_peak == 999
    (site,) = merged.sites
    assert merged.sites[site][0] == 350
    # merge is order-insensitive for every counted field
    other = ProfileRecorder()
    other.merge_state(b.dump_state())
    other.merge_state(a.dump_state())
    assert other.events_dispatched == merged.events_dispatched
    assert {k: v[0] for k, v in other.sites.items()} == {
        k: v[0] for k, v in merged.sites.items()
    }
    json.dumps(merged.dump_state())  # JSON-safe payload


def test_profile_merges_across_worker_processes():
    def build(executor):
        obs = Observability(profile=ProfileRecorder())
        with obs_mod.activated(obs):
            plan = make_plan(
                "T", "quick", 2, [SMALL, OTHER],
                lambda results: _tiny_figure(results),
            )
            fig, _ = execute_plan(plan, executor=executor)
        obs.finalize()
        return fig, obs.profile

    _, serial = build(SerialExecutor())
    _, merged = build(ResilientParallelExecutor(jobs=2))
    # deterministic fields merge exactly, whichever process ran them
    assert merged.events_dispatched == serial.events_dispatched
    assert merged.recomputes == serial.recomputes
    assert merged.recompute_flows == serial.recompute_flows
    assert merged.recompute_edges == serial.recompute_edges
    assert merged.queue_depth_peak == serial.queue_depth_peak
    assert {k: v[0] for k, v in merged.sites.items()} == {
        k: v[0] for k, v in serial.sites.items()
    }


def _tiny_figure(results):
    from repro.harness.figures import FigureResult, Series
    from repro.harness.experiment import spec_token

    rows = [
        Series(spec_token(s), [0.0], [r.write_bw[0]], [r.write_bw[1]])
        for s, r in sorted(results.items(), key=lambda kv: spec_token(kv[0]))
    ]
    return FigureResult(
        fig_id="T", title="T", xlabel="-",
        panels={"write": rows}, paper_expectation="",
    )


# ------------------------------------------------------- derived views


def test_hot_sites_order_and_events_per_second():
    prof = ProfileRecorder()
    prof.sites = {"b.slow": [5, 2.0], "a.fast": [100, 0.5], "c.tie": [5, 2.0]}
    prof.events_dispatched = 110
    prof.dispatch_wall = 4.5
    rows = prof.hot_sites()
    assert [r[0] for r in rows] == ["b.slow", "c.tie", "a.fast"]
    assert prof.events_per_second() == pytest.approx(110 / 4.5)
    assert prof.hot_sites(top=1) == [("b.slow", 5, 2.0)]


def test_collapsed_stacks_formats():
    prof = ProfileRecorder()
    prof.sites = {"core.Process._step": [7, 0.25]}
    prof.recomputes = 3
    prof.recompute_wall = 0.5
    assert prof.collapsed_stacks(metric="events") == [
        "sim.run;dispatch;core.Process._step 7",
        "sim.run;flownet.reallocate 3",
    ]
    wall_lines = prof.collapsed_stacks(metric="wall")
    assert wall_lines[0] == "sim.run;dispatch;core.Process._step 250000"
    assert wall_lines[1] == "sim.run;flownet.reallocate 500000"
    with pytest.raises(ValueError):
        prof.collapsed_stacks(metric="bogus")


def test_exporters_write_flame_and_json(tmp_path):
    prof = ProfileRecorder()
    run_ticks(20, profile=prof)
    folded = tmp_path / "p.folded"
    n = export_collapsed_stacks(str(folded), {"F1": prof, "F2": prof})
    lines = folded.read_text().splitlines()
    assert n == len(lines) == 2
    # multiple figures: the figure id becomes the root frame
    assert lines[0].startswith("F1;sim.run;dispatch;")
    assert lines[1].startswith("F2;sim.run;dispatch;")
    out = tmp_path / "p.json"
    export_profile_json(str(out), {"F1": prof})
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["profiles"]["F1"]["events_dispatched"] == 20
    assert doc["profiles"]["F1"]["hot_sites"][0]["events"] == 20


def test_render_hot_paths_mentions_engine_numbers():
    prof = ProfileRecorder()
    run_ticks(50, profile=prof)
    text = render_hot_paths(prof)
    assert "50" in text
    assert "events" in text


# ------------------------------------------------------- latency histogram


def test_bucket_boundaries_are_exact_dyadic_rationals():
    h = LatencyHistogram("t")
    for v in (1e-9, 3.7e-4, 0.5, 1.0, 2.0, 123.456):
        idx = h.bucket_index(v)
        lo, hi = h.bucket_bounds(idx)
        assert lo <= v < hi
        # bounds round-trip: the lower edge maps back to its own bucket
        assert h.bucket_index(lo) == idx
    # relative bucket width stays under the documented 1.6%
    lo, hi = h.bucket_bounds(h.bucket_index(1.0))
    assert (hi - lo) / lo < 0.016


def test_quantiles_exact_on_bucket_edges():
    h = LatencyHistogram("t")
    # powers of two sit exactly on bucket lower edges, so rank-based
    # lower-edge quantiles recover them exactly
    values = [2.0 ** -k for k in range(10)] * 10  # 100 samples
    for v in values:
        h.observe(v)
    assert h.count == 100
    assert h.quantile(0.0) == 2.0 ** -9  # rank clamps to 1 -> smallest
    assert h.quantile(0.5) == 2.0 ** -5  # rank 50: 5th of 10 decades
    assert h.quantile(1.0) == 1.0
    p50, p99, p999 = h.percentiles()
    assert (p50, p99, p999) == (2.0 ** -5, 1.0, 1.0)
    assert h.mean == pytest.approx(sum(values) / len(values))
    assert (h.vmin, h.vmax) == (2.0 ** -9, 1.0)


def test_zero_and_negative_observations():
    h = LatencyHistogram("t")
    h.observe(0.0)
    h.observe(0.0)
    h.observe(1.0)
    assert h.zeros == 2
    assert h.count == 3
    assert h.quantile(0.5) == 0.0
    assert h.quantile(1.0) == 1.0
    with pytest.raises(ConfigError):
        h.observe(-1e-9)
    with pytest.raises(ConfigError):
        h.quantile(1.5)


def test_empty_histogram_reports_zeroes():
    h = LatencyHistogram("t")
    assert h.count == 0
    assert h.mean == 0.0
    assert h.percentiles() == (0.0, 0.0, 0.0)


def test_registry_merge_reproduces_serial_histogram():
    serial = MetricsRegistry()
    h = serial.latency_histogram("op.lat")
    shards = [MetricsRegistry() for _ in range(3)]
    rng_values = [((i * 2654435761) % 997 + 1) / 997.0 for i in range(300)]
    for i, v in enumerate(rng_values):
        h.observe(v)
        shards[i % 3].latency_histogram("op.lat").observe(v)
    merged = MetricsRegistry()
    for shard in shards:
        merged.merge_state(shard.dump_state())
    m = merged.get("op.lat")
    # exact: bucket indices are value-deterministic, counts just add
    assert m.counts == h.counts
    assert (m.count, m.zeros, m.vmin, m.vmax) == (h.count, h.zeros, h.vmin, h.vmax)
    assert m.percentiles() == h.percentiles()
    assert m.total == pytest.approx(h.total)

    # one codec: the ledger's dump of the same values carries the same
    # histogram row as the registry's (less the instrument identity)
    class Clock:
        now = 0.0

    ledger, clock = OpLedger(), Clock()
    for v in rng_values:
        clock.now = 0.0
        with ledger.op("op.lat", clock):
            clock.now = v
    row = serial.dump_state()["op.lat"]
    identity = {"kind": "latency_histogram", "unit": "s", "description": ""}
    assert {k: row[k] for k in identity} == identity
    hist_row = {k: v for k, v in row.items() if k not in identity}
    assert ledger.dump_state()["hists"]["op.lat"] == hist_row == h.dump_state()

    # merging the dumps of two halves equals one histogram that saw all
    halves = [LatencyHistogram("a"), LatencyHistogram("b")]
    for i, v in enumerate(rng_values):
        halves[i * 2 // len(rng_values)].observe(v)
    joined = LatencyHistogram("op.lat")
    for half in halves:
        joined.merge_state(half.dump_state())
    whole, parts = h.dump_state(), joined.dump_state()
    assert parts.pop("total") == pytest.approx(whole.pop("total"))
    assert parts == whole


def test_latency_percentiles_identical_serial_vs_two_workers():
    # exact mode drives per-op client calls, so the per-op latency
    # histograms actually observe (aggregate mode batches lump flows)
    exact = [SMALL.with_(mode="exact"), OTHER.with_(mode="exact")]

    def build(executor):
        obs = Observability()
        with obs_mod.activated(obs):
            plan = make_plan(
                "T", "quick", 2, exact,
                lambda results: _tiny_figure(results),
            )
            execute_plan(plan, executor=executor)
        obs.finalize()
        return {
            inst.name: inst
            for inst in obs.registry
            if isinstance(inst, LatencyHistogram)
        }

    serial = build(SerialExecutor())
    merged = build(ResilientParallelExecutor(jobs=2))
    assert sorted(serial) == sorted(merged)
    populated = 0
    for name, s in serial.items():
        m = merged[name]
        assert m.counts == s.counts, name
        assert (m.count, m.zeros, m.vmin, m.vmax) == (
            s.count, s.zeros, s.vmin, s.vmax,
        ), name
        assert m.percentiles() == s.percentiles(), name
        populated += s.count > 0
    assert populated > 0, "expected at least one observed latency histogram"


def test_client_without_obs_has_no_latency_instruments():
    with obs_mod.activated(None):
        cluster = Cluster(n_servers=2, n_clients=1, seed=0)
        pool = Pool(cluster)
        client = DaosClient(cluster, pool, cluster.clients[0])
    # dormancy: zero allocations, not even empty histograms
    assert not hasattr(client, "_m_lat")


def test_daos_op_latency_recorded_under_obs():
    obs = Observability()
    with obs_mod.activated(obs):
        cluster = Cluster(n_servers=2, n_clients=1, seed=0)
        pool = Pool(cluster)
        client = DaosClient(cluster, pool, cluster.clients[0])

        def flow():
            cont = yield from client.create_container("c", materialize=False)
            arr = yield from client.create_array(cont, oc="SX")
            yield from client.array_write(arr, 0, nbytes=4 * MiB)

        cluster.sim.process(flow())
        cluster.sim.run()
    obs.finalize()
    hist = obs.registry.get("daos.lat.arr-write")
    assert isinstance(hist, LatencyHistogram)
    assert hist.count == 1
    assert 0.0 < hist.quantile(0.5) <= hist.vmax
    # the snapshot and table carry the percentile columns
    snap = obs.registry.snapshot()["daos.lat.arr-write"]
    assert {"p50", "p99", "p999"} <= set(snap)
    assert "p50=" in obs.registry.render_table()
