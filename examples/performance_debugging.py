#!/usr/bin/env python3
"""Performance debugging: find the bottleneck of a simulated run.

The simulator isn't a black box — this example shows the introspection
workflow a user follows when a number looks off:

1. run a workload under an :class:`~repro.obs.Observability` and list
   its slowest flows;
2. rank the links by mean utilisation ("what ran hot?");
3. attribute the elapsed time to resources with the critical-path
   analyzer and watch the saturation unfold on a timeline;
4. read each API's best client configuration off Fig. 1, the paper's
   own client sweep (Section II), to find where the curve saturates;
5. confirm against the analytic roofline from ``repro.analysis``;
6. profile the *simulator itself* with simprof — which callback sites
   and flow-network recomputes ate the host's wall clock, and what the
   per-op tail latencies looked like — when the figure build, rather
   than the modelled system, is what needs speeding up;
7. explain a single slow operation with the op ledger: decompose the
   p99 op's latency into named components (transfer split by binding
   resource, retry backoff, rebuild interference) that sum exactly to
   the recorded latency.

Run:  python examples/performance_debugging.py
"""

import repro.obs as obs_mod
from repro.analysis import efficiency, write_roofline
from repro.harness import PointSpec, build_figure, run_point
from repro.hardware import Cluster
from repro.obs.timeline import render_timeline
from repro.units import GiB
from repro.workloads.common import DaosEnv, WorkloadConfig
from repro.workloads.ior import run_ior

N_SERVERS = 4


def observed_run() -> None:
    print("== 1-2. observe one run and inspect the hot links ==")
    o = obs_mod.Observability()
    with obs_mod.activated(o):  # the cluster binds to the active one
        env = DaosEnv(Cluster(n_servers=N_SERVERS, n_clients=4, seed=0))
        cfg = WorkloadConfig(n_client_nodes=4, ppn=16, ops_per_process=48)
        rec = run_ior(env, cfg, "DAOS")
    o.finalize()
    print(f"measured write: {rec.bandwidth('write') / GiB:.1f} GiB/s, "
          f"read: {rec.bandwidth('read') / GiB:.1f} GiB/s")
    # every flow is a span on the flownet lane, sized in its args
    flows = o.tracer.by_category()["flownet"]
    print(f"{len(flows)} flows observed; the slowest:")
    for span in sorted(flows, key=lambda s: s.duration, reverse=True)[:3]:
        print(f"  {span.duration:10.6f}s  {span.name:<28} "
              f"size={span.args['bytes']:,.0f}")
    print("\nhot links (SSD aggregates saturated on write -> device-bound):")
    for name, util in o.hottest_links(top=6):
        print(f"  {util:8.1%}  {name}")


def critical_path() -> None:
    print("\n== 3. attribute the elapsed time (critical path + timeline) ==")
    o = obs_mod.Observability(timeline=obs_mod.TimelineConfig(interval=0.01))
    base = PointSpec(
        workload="ior", store="daos", api="DAOS",
        n_servers=N_SERVERS, n_client_nodes=4, ppn=16, ops_per_process=48,
    )
    with obs_mod.activated(o):
        run_point(base, reps=1)
    o.finalize()
    print(obs_mod.render_critical_path(o, per_run=True))
    print()
    print(render_timeline(o.timelines[0]))
    print("(the write window pins the server SSD channel — exactly the "
          "paper's 3.86 GiB/s/server roofline argument)")


def optimise_clients() -> None:
    print("\n== 4. best client configuration per API (paper Sec. II, Fig. 1) ==")
    # Fig. 1 is the paper's client sweep on 16 servers: one series per
    # API and client node count, over the total process count
    fig = build_figure("F1", "quick")
    for phase in ("write", "read"):
        best = {}
        for series in fig.panels[phase]:
            api, nodes = series.label.rsplit(" (", 1)
            nodes = int(nodes.rstrip("cn)"))
            for procs, bw in zip(series.xs, series.means):
                if api not in best or bw > best[api][0]:
                    best[api] = (bw, nodes, int(procs) // nodes)
        for api, (bw, nodes, ppn) in best.items():
            print(f"  {phase:<5} {api:<9} best {bw:5.1f} GiB/s at "
                  f"{nodes} client nodes x {ppn} ppn")


def roofline_check() -> None:
    print("\n== 5. compare with the analytic roofline ==")
    base = PointSpec(
        workload="ior", store="daos", api="DAOS",
        n_servers=N_SERVERS, n_client_nodes=4, ppn=32, ops_per_process=48,
    )
    point = run_point(base, reps=3)
    roof = write_roofline(N_SERVERS)
    eff = efficiency(point.write_bw[0], roof)
    print(f"write {point.write_bw[0] / GiB:.1f} ± {point.write_bw[1] / GiB:.1f} GiB/s "
          f"of {roof / GiB:.1f} GiB/s roofline -> {eff:.0%} efficiency")
    print("(the paper's runs landed at ~94% of their rooflines, too)")


def profile_engine() -> None:
    print("\n== 6. profile the simulator itself (simprof) ==")
    o = obs_mod.Observability(profile=obs_mod.ProfileRecorder())
    base = PointSpec(
        workload="ior", store="daos", api="DAOS",
        n_servers=N_SERVERS, n_client_nodes=4, ppn=16, ops_per_process=48,
        mode="exact",  # per-op client calls, so tail latencies observe
    )
    with obs_mod.activated(o):
        run_point(base, reps=1)
    o.finalize()
    # where the host time went: hot callback sites, recompute cost,
    # dispatch throughput
    print(obs_mod.render_hot_paths(o.profile))
    # modelled per-op tail latency (simulated seconds, deterministic):
    hist = o.registry.get("workload.lat.write")
    if hist is not None and hist.count:
        p50, p99, p999 = hist.percentiles()
        print(f"\nper-op write latency over {hist.count} ops: "
              f"p50={p50 * 1e3:.2f}ms p99={p99 * 1e3:.2f}ms "
              f"p999={p999 * 1e3:.2f}ms")
    print("(the CLI equivalents: --profile for this table, "
          "--profile-flame for flamegraph.pl/speedscope input, "
          "--profile-json for the raw recorder state)")


def explain_tail_op() -> None:
    print("\n== 7. explain one slow op (op ledger) ==")
    o = obs_mod.Observability(ledger=obs_mod.OpLedger())
    base = PointSpec(
        workload="ior", store="daos", api="DAOS",
        n_servers=N_SERVERS, n_client_nodes=4, ppn=16, ops_per_process=48,
        mode="exact",  # the ledger decomposes individual client ops
        faults="target@read+0.02:5,rebuild", object_class="RP_2GX",
    )
    with obs_mod.activated(o):
        run_point(base, reps=1)
    o.finalize()
    # the p99 read's waterfall: with a target down and rebuild traffic
    # running, the tail is interference, not device saturation — the
    # exemplar is deterministic (first op to land in the p99 bucket)
    print(obs_mod.render_waterfall(o.ledger, "daos.lat.arr-read", 0.99))
    print()
    print(obs_mod.render_waterfall(o.ledger, "daos.lat.arr-write", 0.99))
    print("(the CLI equivalents: --explain daos.lat.arr-read:p99 for one "
          "waterfall, --ledger for the per-figure tail-exemplars section, "
          "--ledger-json for every exemplar as NDJSON)")


if __name__ == "__main__":
    observed_run()
    critical_path()
    optimise_clients()
    roofline_check()
    profile_engine()
    explain_tail_op()
