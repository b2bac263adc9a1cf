"""Timeline sampler: exact window-average utilisation, saturation shape,
exporters, and sparkline rendering."""

import csv
import io
import json

import pytest

import repro.obs as obs_mod
from repro.errors import ConfigError
from repro.harness.experiment import PointSpec, run_point
from repro.hardware.cluster import Cluster
from repro.obs import Observability, TimelineConfig, activated
from repro.obs.timeline import (
    Timeline,
    TimelineSampler,
    export_timelines_csv,
    export_timelines_json,
    render_timeline,
    sparkline,
)


def observed_cluster(o, seed=0, **kwargs):
    with activated(o):
        return Cluster(n_servers=1, n_clients=1, seed=seed, **kwargs)


# -- Timeline container ----------------------------------------------------------


def test_timeline_backfills_late_columns():
    tl = Timeline(run_index=0, interval=0.5)
    tl.add_sample(0.5, {"a": 1.0})
    tl.add_sample(1.0, {"a": 2.0, "b": 7.0})
    tl.add_sample(1.5, {"b": 8.0})
    assert tl.times == [0.5, 1.0, 1.5]
    assert tl.column("a") == [1.0, 2.0, 0.0]  # absent -> 0.0
    assert tl.column("b") == [0.0, 7.0, 8.0]  # late -> zero-backfilled
    assert tl.peak("b") == 8.0
    assert tl.mean("a") == pytest.approx(1.0)


def test_config_validation():
    o = Observability()
    cluster = observed_cluster(o)
    with pytest.raises(ConfigError):
        TimelineSampler(cluster, TimelineConfig(interval=0.0))


def test_config_rejects_nan_interval():
    # NaN passes a plain "<= 0" check and would be exported as invalid JSON
    cluster = observed_cluster(Observability())
    with pytest.raises(ConfigError, match="finite number"):
        TimelineSampler(cluster, TimelineConfig(interval=float("nan")))


# -- exact sampling on a hand-built flow -----------------------------------------


def test_window_average_utilisation_is_exact():
    """One flow at a known rate: every sample window must read the exact
    analytic utilisation, including the final partial window."""
    o = Observability(timeline=TimelineConfig(interval=1.0))
    cluster = observed_cluster(o)
    link = cluster.net.add_link("srv9.test.w", 100.0)
    # 250 units over a 100 u/s link, demand-capped to 50 u/s -> 5 s at 50%
    cluster.net.transfer(250.0, [(link, 1.0)], demand_cap=50.0, name="t")
    cluster.sim.run()
    o.finalize()
    tl = o.timelines[0]
    assert tl.times == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0])
    assert tl.column("util:srv9.test.w") == pytest.approx([0.5] * 5)
    # the flow is demand-capped, so its binding must be the cap
    flow_spans = [s for s in o.tracer.finished if s.cat == "flownet"]
    assert flow_spans[0].args["binding"] == pytest.approx({"cap": 5.0})


def test_final_partial_window_recorded():
    o = Observability(timeline=TimelineConfig(interval=2.0))
    cluster = observed_cluster(o)
    link = cluster.net.add_link("srv9.test.w", 100.0)
    cluster.net.transfer(300.0, [(link, 1.0)], name="t")  # 3 s at 100%
    cluster.sim.run()
    o.finalize()
    tl = o.timelines[0]
    assert tl.times == pytest.approx([2.0, 3.0])  # 3.0 is the partial window
    assert tl.column("util:srv9.test.w") == pytest.approx([1.0, 1.0])


def test_inflight_and_device_filtering():
    o = Observability(timeline=TimelineConfig(interval=1.0))
    cluster = observed_cluster(o)
    agg = cluster.net.add_link("srv5.ssdagg.w", 100.0)
    dev = cluster.net.add_link("srv5.ssd0.w", 100.0)
    cluster.net.transfer(100.0, [(agg, 1.0), (dev, 1.0)], name="t")
    cluster.sim.run()
    o.finalize()
    tl = o.timelines[0]
    assert "util:srv5.ssdagg.w" in tl.series
    assert "util:srv5.ssd0.w" not in tl.series  # device links filtered
    assert tl.column("flows.active") == pytest.approx([1.0])
    assert tl.column("inflight:srv5") == pytest.approx([1.0])


# -- acceptance: saturation shape during an IOR write ----------------------------


def test_ior_write_pins_server_ssd_channel():
    """The paper's bottleneck claim, visible in the time series: during
    an IOR write the server SSD write channel runs pinned near 1.0."""
    o = Observability(timeline=TimelineConfig(interval=0.005))
    spec = PointSpec(workload="ior", store="daos", api="DAOS",
                     n_servers=2, n_client_nodes=2, ppn=8, ops_per_process=16)
    with activated(o):
        run_point(spec, reps=1)
    o.finalize()
    tl = o.timelines[0]
    assert len(tl) > 10
    col = tl.column("util:srv0.ssdagg.w")
    assert col, "SSD aggregate series missing"
    assert max(col) >= 0.9, f"expected near-saturation, peak {max(col):.2f}"
    # saturation is sustained, not a blip: several consecutive samples hot
    hot = sum(1 for v in col if v >= 0.9)
    assert hot >= 3
    # and the write phase ends: the tail of the run is not write-hot
    assert col[-1] < 0.5


def test_run_with_timeline_has_no_extra_events():
    """The sampler must not schedule events or perturb the schedule."""
    spec = PointSpec(workload="ior", store="daos", api="DFS",
                     n_servers=2, n_client_nodes=2, ppn=4, ops_per_process=8)
    o_plain = Observability()
    with activated(o_plain):
        run_point(spec, reps=1, base_seed=5)
    o_tl = Observability(timeline=TimelineConfig(interval=0.001))
    with activated(o_tl):
        run_point(spec, reps=1, base_seed=5)
    plain_events = o_plain.registry.counter("sim.events_executed").value
    tl_events = o_tl.registry.counter("sim.events_executed").value
    assert plain_events == tl_events


# -- exporters -------------------------------------------------------------------


def _two_timelines():
    a = Timeline(0, 0.5)
    a.add_sample(0.5, {"util:x": 0.25})
    a.add_sample(1.0, {"util:x": 0.75})
    b = Timeline(1, 0.5)
    b.add_sample(0.5, {"util:y": 1.0})
    return [a, b]


def test_csv_export_long_format(tmp_path):
    out = tmp_path / "tl.csv"
    rows = export_timelines_csv(str(out), _two_timelines())
    assert rows == 3
    with open(out) as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == 3
    assert records[0] == {"run": "0", "time": "0.5", "series": "util:x", "value": "0.25"}
    assert {r["run"] for r in records} == {"0", "1"}


def test_json_export_schema(tmp_path):
    out = tmp_path / "tl.json"
    export_timelines_json(str(out), _two_timelines())
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert len(doc["runs"]) == 2
    assert doc["runs"][0]["series"]["util:x"] == [0.25, 0.75]
    buf = io.StringIO()
    export_timelines_json(buf, _two_timelines())  # file-object path too
    assert json.loads(buf.getvalue())["schema"] == 1


# -- sparklines ------------------------------------------------------------------


def test_sparkline_scaling_and_downsampling():
    assert sparkline([]) == ""
    assert sparkline([0.0, 1.0], hi=1.0) == "▁█"
    assert sparkline([0.5, 0.5], hi=1.0) == "▅▅"  # mid-scale (rounds up)
    flat = sparkline([3.0, 3.0, 3.0])  # auto-scale: flat series at its max
    assert flat == "███"
    assert sparkline([0.0, 0.0]) == "▁▁"  # all-zero has no span
    wide = sparkline(list(range(100)), width=10)
    assert len(wide) == 10
    assert wide[0] == "▁" and wide[-1] == "█"


def test_render_timeline_shows_hot_series():
    tl = Timeline(0, 0.5)
    tl.add_sample(0.5, {"util:srv0.ssdagg.w": 1.0, "util:cli0.nic.tx": 0.2,
                        "flows.active": 4.0})
    text = render_timeline(tl)
    assert "srv0.ssdagg.w" in text
    assert "in-flight flows" in text
    assert "█" in text
