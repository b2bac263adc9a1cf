"""Critical-path attribution: binding tracking in the flow network and
the resource-share analysis over recorded runs."""

import pytest

from repro.harness.experiment import PointSpec, run_point
from repro.hardware.cluster import Cluster
from repro.obs import Observability, activated
from repro.obs.critpath import (
    CLIENT_CPU,
    aggregate_shares,
    analyze_critical_path,
    classify_constraint,
    render_critical_path,
)
from repro.sim.core import Simulator
from repro.sim.flownet import FlowNetwork


# -- constraint classification ---------------------------------------------------


def test_classify_constraint():
    assert classify_constraint("cap") == "client stream cap"
    assert classify_constraint("srv0.ssdagg.w") == "server SSD (write)"
    assert classify_constraint("srv3.ssd7.r") == "server SSD (read)"
    assert classify_constraint("srv1.nic.rx") == "server NIC (fabric)"
    assert classify_constraint("cli4.nic.tx") == "client NIC"
    assert classify_constraint("dfuse.cli0.1") == "FUSE daemon"
    assert classify_constraint("lustre.mds") == "metadata service"
    assert classify_constraint("ceph.mon") == "metadata service"
    assert classify_constraint("pool.rsvc") == "metadata service"
    assert classify_constraint("pool.eng3.md") == "metadata service"
    assert classify_constraint("osd.srv0.3.ops") == "metadata service"
    assert classify_constraint("weird.link").startswith("other")


# -- binding tracking in the flow network ----------------------------------------


def test_binding_tracks_saturated_link():
    sim = Simulator()
    net = FlowNetwork(sim)
    net.track_binding = True
    narrow = net.add_link("srv0.ssdagg.w", 100.0)
    wide = net.add_link("cli0.nic.tx", 1000.0)
    flow = net.transfer(200.0, [(narrow, 1.0), (wide, 1.0)], name="f")
    sim.run()
    # the narrow link is the binding constraint for the whole 2 s
    assert flow.bound_time == pytest.approx({"srv0.ssdagg.w": 2.0})


def test_binding_tracks_demand_cap():
    sim = Simulator()
    net = FlowNetwork(sim)
    net.track_binding = True
    link = net.add_link("cli0.nic.tx", 1000.0)
    flow = net.transfer(100.0, [(link, 1.0)], demand_cap=50.0, name="f")
    sim.run()
    assert flow.bound_time == pytest.approx({"cap": 2.0})


def test_binding_shifts_when_contention_changes():
    """Two flows sharing a link: while both run the shared link binds;
    after one finishes the survivor becomes demand-capped."""
    sim = Simulator()
    net = FlowNetwork(sim)
    net.track_binding = True
    shared = net.add_link("srv0.nic.rx", 100.0)
    # f1: 50 units at fair share 50 u/s -> finishes at t=1
    net.transfer(50.0, [(shared, 1.0)], name="f1")
    # f2: 50+30 units; 50 u/s until t=1, then capped at 60 u/s
    f2 = net.transfer(80.0, [(shared, 1.0)], demand_cap=60.0, name="f2")
    sim.run()
    assert f2.bound_time["srv0.nic.rx"] == pytest.approx(1.0)
    assert f2.bound_time["cap"] == pytest.approx(0.5)


def test_binding_untracked_by_default():
    sim = Simulator()
    net = FlowNetwork(sim)
    link = net.add_link("x", 100.0)
    flow = net.transfer(100.0, [(link, 1.0)], name="f")
    sim.run()
    assert flow.bound_time is None and flow.binding is None


# -- analysis over real runs -----------------------------------------------------


def small_spec(**kwargs):
    defaults = dict(
        workload="ior", store="daos", api="DFS",
        n_servers=2, n_client_nodes=2, ppn=4, ops_per_process=8,
    )
    defaults.update(kwargs)
    return PointSpec(**defaults)


def test_attribution_sums_to_elapsed():
    o = Observability()
    with activated(o):
        run_point(small_spec(), reps=2)
    o.finalize()
    runs = analyze_critical_path(o)
    assert len(runs) == 2
    for run in runs:
        assert run.elapsed > 0
        total = sum(s.seconds for s in run.shares)
        assert total == pytest.approx(run.elapsed, rel=1e-6)
        assert sum(s.fraction for s in run.shares) == pytest.approx(1.0, rel=1e-6)
        assert run.phases, "expected workload phase windows"


def test_ior_write_attributed_to_server_ssd():
    """The paper's claim, as attribution: a saturating IOR write run is
    dominated by the server SSD write channel."""
    o = Observability()
    with activated(o):
        run_point(small_spec(api="DAOS", ppn=8, ops_per_process=16), reps=1)
    o.finalize()
    (run,) = analyze_critical_path(o)
    write_phase = next(p for p in run.phases if p.phase == "write")
    top = write_phase.top(1)[0]
    assert top.resource == "server SSD (write)"


def test_flows_without_phase_spans_still_attributed():
    """Bare flows (no workload spans): attribution falls back to the
    global binding decomposition over the whole run."""
    o = Observability()
    with activated(o):
        cluster = Cluster(n_servers=1, n_clients=1, seed=0)
    link = cluster.net.link("srv0.ssdagg.w")  # the cluster built this one
    cluster.net.transfer(link.capacity, [(link, 1.0)], name="f")
    cluster.sim.run()
    o.finalize()
    (run,) = analyze_critical_path(o)
    assert run.phases == []
    assert run.shares[0].resource == "server SSD (write)"
    assert run.shares[0].seconds == pytest.approx(run.elapsed)


def test_zero_elapsed_run_skipped():
    o = Observability()
    with activated(o):
        cluster = Cluster(n_servers=1, n_clients=1, seed=0)
    o.finalize_run(cluster)  # never ran: elapsed == 0
    assert analyze_critical_path(o) == []
    assert render_critical_path(o) == ""


def test_aggregate_and_render():
    o = Observability()
    with activated(o):
        run_point(small_spec(), reps=2)
    o.finalize()
    runs = analyze_critical_path(o)
    rows = aggregate_shares(runs)
    assert rows == sorted(rows, key=lambda r: r.seconds, reverse=True)
    assert sum(r.fraction for r in rows) == pytest.approx(1.0, rel=1e-6)
    text = render_critical_path(o, per_run=True)
    assert "critical-path attribution (2 run(s)" in text
    assert "what to speed up first:" in text
    assert "run 0" in text and "run 1" in text
    assert CLIENT_CPU in text or "server" in text
