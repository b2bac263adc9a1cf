"""Op ledger: decomposition exactness (components sum to the recorded
latency, under faults, retries, EC reconstruction, and rebuild
interference), deterministic tail exemplars, serial/parallel merge
identity, dormancy, exports, and the no-data report blocks."""

import io
import json
import math

import pytest

from repro.ceph import CephCluster, RadosClient
from repro.errors import ConfigError, UnavailableError
from repro.faults import RetryPolicy
from repro.hardware import Cluster
from repro.harness.executor import Instruments, PointTask, SerialExecutor
from repro.harness.experiment import PointSpec, run_point
from repro.harness.resilience import ResilientParallelExecutor
from repro.obs import (
    Observability,
    OpLedger,
    export_ledger_ndjson,
    ledger_trace_events,
    parse_quantile,
    render_hot_paths,
    render_tail_exemplars,
    render_waterfall,
)
from repro.obs import activated
from repro.obs.ledger import ZERO_BUCKET
from repro.obs.metrics import MetricsRegistry
from repro.sim.randomness import RngStreams
from repro.units import KiB, MiB
from repro.workloads.common import DaosEnv

REL = 1e-9  # the exactness invariant's tolerance


class FakeSim:
    """Just a clock — OpContext only ever reads ``sim.now``."""

    def __init__(self):
        self.now = 0.0


def fd_spec(**kwargs):
    """One point of the FD degraded-mode family (docs/FAULTS.md)."""
    defaults = dict(
        workload="ior", store="daos", api="DAOS", n_servers=2,
        n_client_nodes=2, ppn=4, ops_per_process=144, op_size=MiB,
        mode="exact", faults="target@read+0.02:5,rebuild",
        object_class="RP_2GX",
    )
    defaults.update(kwargs)
    return PointSpec(**defaults)


def exemplar_records(ledger):
    return [rec for _, _, _, _, rec in ledger.iter_exemplars()]


# -- parse_quantile ------------------------------------------------------------


def test_parse_quantile_forms():
    assert parse_quantile("p99") == 0.99
    assert parse_quantile("p999") == 0.999
    assert parse_quantile("P50") == 0.5
    assert parse_quantile("0.95") == 0.95


@pytest.mark.parametrize("bad", ["", "p", "px9", "1.5", "-0.1", "99%"])
def test_parse_quantile_rejects(bad):
    with pytest.raises(ConfigError):
        parse_quantile(bad)


# -- unit-level context behaviour ---------------------------------------------


def test_components_telescope_exactly():
    sim = FakeSim()
    ledger = OpLedger()
    with ledger.op("op", sim) as opx:
        sim.now = 0.125
        opx.note("serial")
        sim.now = 0.5
        opx.note("transfer")
        sim.now = 0.625  # residual -> "other"
    (rec,) = exemplar_records(ledger)
    assert rec["components"] == {"serial": 0.125, "transfer": 0.375, "other": 0.125}
    assert math.isclose(sum(rec["components"].values()), rec["latency"], rel_tol=REL)
    assert rec["latency"] == 0.625


def test_zero_latency_op_lands_in_zero_bucket():
    sim = FakeSim()
    ledger = OpLedger()
    with ledger.op("op", sim):
        pass
    (rec,) = exemplar_records(ledger)
    assert rec["components"] == {}
    assert ledger.quantile_bucket("op", 0.99) == ZERO_BUCKET
    assert ledger.bucket_bounds("op", ZERO_BUCKET) == (0.0, 0.0)


def test_zero_bucket_shares_no_slot_with_a_real_latency():
    """Latencies in [0.49609375, 0.5) s have histogram bucket -1: a
    zero-latency op must not take that bucket's exemplar slot."""
    sim = FakeSim()
    ledger = OpLedger()
    with ledger.op("op", sim):
        sim.now = 0.498
    with ledger.op("op", sim):
        pass
    records = exemplar_records(ledger)
    assert sorted(rec["latency"] for rec in records) == [0.0, 0.498]
    info = ledger.explain("op", 1.0)
    assert info["bucket"] == -1 != ZERO_BUCKET
    assert (info["lo"], info["hi"]) == (0.49609375, 0.5)
    assert info["exemplar"]["latency"] == 0.498
    assert ledger.explain("op", 0.5)["exemplar"]["latency"] == 0.0


def test_exception_aborts_without_recording():
    sim = FakeSim()
    ledger = OpLedger()
    with pytest.raises(RuntimeError):
        with ledger.op("op", sim):
            sim.now = 1.0
            raise RuntimeError("op failed")
    assert ledger.names() == []
    assert ledger.aborted == 1
    assert ledger.ops_recorded == 0


def test_discard_drops_the_context():
    sim = FakeSim()
    ledger = OpLedger()
    with ledger.op("op", sim) as opx:
        opx.discard()
    assert ledger.names() == []
    assert ledger.aborted == 0


def test_exemplar_keeps_min_run_seq_per_bucket():
    sim = FakeSim()
    ledger = OpLedger()
    ledger.set_run(3)
    for _ in range(2):  # same bucket twice: first (run, seq) must stick
        sim.now = 0.0
        with ledger.op("op", sim):
            sim.now = 0.25
    (rec,) = exemplar_records(ledger)
    assert (rec["run"], rec["seq"]) == (3, 0)


def test_rebuild_window_overlap():
    ledger = OpLedger()
    ledger.rebuild_begin(1.0)
    ledger.rebuild_end(3.0)
    assert ledger.rebuild_overlap(0.0, 10.0) == 2.0
    assert ledger.rebuild_overlap(2.0, 2.5) == 0.5
    assert ledger.rebuild_overlap(4.0, 5.0) == 0.0
    ledger.rebuild_begin(8.0)  # still open
    assert ledger.rebuild_overlap(7.0, 9.0) == 1.0


# -- exactness across a faulted FD-family run ---------------------------------


@pytest.fixture(scope="module")
def fd_ledger():
    obs = Observability(ledger=OpLedger())
    with activated(obs):
        run_point(fd_spec(), reps=2, base_seed=0)
    obs.finalize()
    return obs.ledger


def test_fd_components_sum_to_latency_for_every_exemplar(fd_ledger):
    records = exemplar_records(fd_ledger)
    assert len(records) > 10
    for rec in records:
        assert math.isclose(
            sum(rec["components"].values()), rec["latency"], rel_tol=REL
        ), rec


def test_fd_exemplar_latency_inside_its_bucket(fd_ledger):
    for name, bucket, lo, hi, rec in fd_ledger.iter_exemplars():
        if bucket == ZERO_BUCKET:
            assert rec["latency"] == 0.0
        else:
            assert lo <= rec["latency"] < hi


def test_fd_run_attributes_transfer_and_rebuild(fd_ledger):
    assert "daos.lat.arr-read" in fd_ledger.names()
    assert "daos.lat.arr-write" in fd_ledger.names()
    comps = [c for rec in exemplar_records(fd_ledger) for c in rec["components"]]
    assert any(c.startswith("xfer:") for c in comps)
    # a single-target failure with rebuild traffic mid-read: some tail
    # op must have overlapped the rebuild window
    assert any(c == "rebuild" for c in comps)


def test_fd_explain_resolves_p99(fd_ledger):
    doc = fd_ledger.explain("daos.lat.arr-read", 0.99)
    assert doc is not None
    assert doc["count"] == fd_ledger.count("daos.lat.arr-read")
    assert doc["exemplar"]["components"]


# -- Ceph EC reconstruction ----------------------------------------------------


def test_ceph_ec_degraded_read_exemplar_has_reconstruct_component():
    obs = Observability(ledger=OpLedger())
    with activated(obs):
        cluster = Cluster(n_servers=4, n_clients=1, seed=0)
    ceph = CephCluster(cluster)
    client = RadosClient(ceph, cluster.clients[0])
    payload = bytes((i * 13) % 256 for i in range(64 * KiB))
    state = {}

    def write():
        yield from client.connect()
        pool = yield from client.create_pool("ec", ec_k=2, ec_m=2)
        yield from client.write_full(pool, "obj", payload)
        state["pool"] = pool

    proc = cluster.sim.process(write())
    cluster.sim.run()
    state["pool"].acting_set("obj")[0].fail()  # lose a data chunk

    def read():
        return (yield from client.read(state["pool"], "obj", 0, len(payload)))

    proc = cluster.sim.process(read())
    cluster.sim.run()
    assert proc.result == payload
    records = obs.ledger.exemplars["ceph.lat.read"].values()
    degraded = [r for r in records if "reconstruct" in r["flags"]]
    assert degraded, "degraded EC read left no flagged exemplar"
    for rec in degraded:
        assert any(c.startswith("reconstruct:") for c in rec["components"]), rec
        assert math.isclose(
            sum(rec["components"].values()), rec["latency"], rel_tol=REL
        )


# -- DAOS retry: backoff equals the seeded draws -------------------------------


def test_daos_backoff_component_equals_seeded_draws():
    policy = RetryPolicy(
        max_attempts=3, op_timeout=0.05, backoff_base=0.01,
        backoff_factor=2.0, jitter=0.1,
    )
    obs = Observability(ledger=OpLedger())
    with activated(obs):
        cluster = Cluster(n_servers=2, n_clients=1, seed=7)
    env = DaosEnv(cluster, retry_policy=policy)
    client = env.client(cluster.clients[0])
    sim = cluster.sim
    state = {"attempts": 0}

    def flaky(opx):
        state["attempts"] += 1
        if state["attempts"] < 3:
            yield sim.signal(name=f"never-{state['attempts']}")  # times out
        else:
            yield sim.timeout(0.001)
            opx.note("serial")
        return "ok"

    def scenario():
        value = yield from client._with_retry(flaky, "flaky")
        state["value"] = value

    sim.process(scenario())
    sim.run()
    assert state["value"] == "ok"
    assert state["attempts"] == 3

    # replay the client's seeded backoff stream: the component must
    # equal the sum of the draws exactly
    replay = RngStreams(seed=cluster.rng.seed).stream(f"{client.name}.retry")
    expected = policy.delay(1, replay) + policy.delay(2, replay)
    (rec,) = obs.ledger.exemplars["daos.lat.flaky"].values()
    assert math.isclose(rec["components"]["backoff"], expected, rel_tol=REL)
    # two attempt windows lost to the op-timeout race
    assert math.isclose(rec["components"]["timeout"], 2 * 0.05, rel_tol=REL)
    assert "retried" in rec["flags"]
    assert math.isclose(
        sum(rec["components"].values()), rec["latency"], rel_tol=REL
    )


# -- serial vs parallel merge identity ----------------------------------------


def small_spec(**kwargs):
    defaults = dict(
        workload="ior", store="daos", api="DAOS",
        n_servers=2, n_client_nodes=2, ppn=2, ops_per_process=8,
    )
    defaults.update(kwargs)
    return PointSpec(**defaults)


def test_serial_and_parallel_ledgers_merge_identically():
    # exact mode: per-op client calls, so the ledger actually records
    instruments = Instruments(ledger=True)
    tasks = [
        PointTask(small_spec(mode="exact"), 2, 1, instruments),
        PointTask(small_spec(mode="exact", object_class="RP_2GX"), 1, 1, instruments),
    ]

    def merged(executor):
        # each result carries its point's record; merge them in task order
        results = executor.run_tasks(tasks)
        obs = Observability(ledger=OpLedger())
        for result in results:
            obs.absorb(result.record)
        return results, obs.ledger

    serial_results, serial_ledger = merged(SerialExecutor())
    parallel_results, parallel_ledger = merged(ResilientParallelExecutor(jobs=2))
    for a, b in zip(serial_results, parallel_results):
        assert a.write_bw == b.write_bw and a.read_bw == b.read_bw
    assert serial_ledger.names()
    assert serial_ledger.dump_state() == parallel_ledger.dump_state()


# -- dormancy: identical modelled results with the ledger on or off ------------


def test_results_identical_with_ledger_on_off():
    plain = run_point(small_spec(), reps=2, base_seed=3)
    with activated(Observability(ledger=OpLedger())):
        ledgered = run_point(small_spec(), reps=2, base_seed=3)
    assert plain.write_bw == ledgered.write_bw
    assert plain.read_bw == ledgered.read_bw
    assert plain.write_iops == ledgered.write_iops
    assert plain.read_iops == ledgered.read_iops


# -- exports -------------------------------------------------------------------


def test_ndjson_export_is_deterministic(fd_ledger):
    a, b = io.StringIO(), io.StringIO()
    n1 = export_ledger_ndjson(a, {"FD": fd_ledger})
    n2 = export_ledger_ndjson(b, {"FD": fd_ledger})
    assert n1 == n2 > 0
    assert a.getvalue() == b.getvalue()
    rows = [json.loads(line) for line in a.getvalue().splitlines()]
    assert all(row["figure"] == "FD" for row in rows)
    keys = [(row["op"], row["bucket"]) for row in rows]
    assert keys == sorted(keys)


def test_ledger_trace_events_shape(fd_ledger):
    events = ledger_trace_events(fd_ledger, pid_offset=10)
    slices = [e for e in events if e["ph"] == "X"]
    assert slices and all(e["cat"] == "ledger" for e in slices)
    assert all(e["pid"] >= 10 for e in slices)
    assert all("components" in e["args"] for e in slices)


# -- report blocks (incl. the no-data guarantees) ------------------------------


def test_waterfall_renders_components(fd_ledger):
    text = render_waterfall(fd_ledger, "daos.lat.arr-read", 0.99)
    assert "explain daos.lat.arr-read p99" in text
    assert "= recorded latency (components sum exactly)" in text
    tail = render_tail_exemplars(fd_ledger)
    assert "tail exemplars" in tail
    assert "daos.lat.arr-write" in tail


def test_waterfall_no_data_blocks():
    assert "(no ledger data" in render_waterfall(None, "x", 0.99)
    assert "(no ledger data" in render_waterfall(OpLedger(), "x", 0.99)
    assert "(no ledger data collected)" in render_tail_exemplars(None)
    assert "(no ledger data collected)" in render_tail_exemplars(OpLedger())


def test_profile_and_metrics_no_data_blocks():
    assert "(no engine activity profiled)" in render_hot_paths(None)
    assert "(no metrics recorded)" in MetricsRegistry().render_table()
