"""Fault injection: plan grammar, controller, client retry, degraded
figures — plus the chaos property the redundancy classes must satisfy:
no data loss and byte-identical reads under any single-target failure.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.daos import DaosArray, Pool
from repro.daos.objclass import ObjectClass
from repro.daos.rebuild import run_rebuild
from repro.errors import (
    ConfigError,
    DataLossError,
    DegradedError,
    UnavailableError,
)
from repro.faults import (
    FaultController,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    parse_fault_plan,
)
from repro.hardware import Cluster
from repro.harness.experiment import (
    PROFILE_WINDOWS,
    PointSpec,
    run_point,
    spec_token,
)
from repro.harness.figures import plan_figure
from repro.harness.plan import with_faults
from repro.lustre.fs import LustreFilesystem
from repro.sim.primitives import Gate
from repro.units import MiB
from repro.workloads.common import DaosEnv


def daos_env(n_servers=4, seed=7, retry=None):
    cluster = Cluster(n_servers=n_servers, n_clients=1, seed=seed)
    return DaosEnv(cluster, retry_policy=retry)


def make_array(pool, oc, chunk_size=MiB, label="c0") -> DaosArray:
    cont = pool.create_container(label)
    oid = cont.alloc_oid()
    arr = DaosArray(cont, oid, ObjectClass.parse(oc), chunk_size=chunk_size)
    cont.register(oid, arr)
    return arr


PAYLOAD = bytes(range(256)) * (MiB // 256)


# -- plan grammar --------------------------------------------------------------


def test_plan_round_trips():
    text = (
        "target@read+0.02:5,rebuild;link@1:srv0.nic.tx,factor=0.5;"
        "ssd@0.5:srv1.ssd2,recover=0.25"
    )
    plan = parse_fault_plan(text)
    assert len(plan) == 3
    assert plan.wants_rebuild
    assert parse_fault_plan(plan.spec()) == plan
    assert plan.spec() == text


def test_plan_canonicalizes():
    plan = parse_fault_plan(" target@0.50:3 , recover=1.0 ;  ")
    assert plan.spec() == "target@0.5:3,recover=1"
    assert plan.events[0].phase is None


def test_plan_phase_anchor_parsed():
    (event,) = parse_fault_plan("server@write+0.1:1,recover=0.5,rebuild").events
    assert event == FaultEvent(
        kind="server", at=0.1, arg="1", phase="write", recover=0.5, rebuild=True
    )


def test_empty_plan_is_no_faults():
    plan = parse_fault_plan("  ")
    assert not plan
    assert plan.spec() == ""
    assert not FaultPlan()


@pytest.mark.parametrize("bad", [
    "disk@1:0",             # unknown kind
    "target@-1:0",          # negative time
    "target@1",             # missing argument
    "target@abc:0",         # bad time
    "target@1:abc",         # non-integer index
    "link@1:srv0.nic.tx,rebuild",   # rebuild on a link
    "target@1:0,share=0",   # share out of (0, 1]
    "link@1:x,factor=1.5",  # factor out of [0, 1]
    "ssd@1:nodot",          # ssd wants srvN.ssdM
    "target@1:0,boom=1",    # unknown option
    "target@1:0,recover=0",  # recover must be positive
])
def test_plan_rejects(bad):
    with pytest.raises(ConfigError):
        parse_fault_plan(bad)


@pytest.mark.parametrize("bad,value", [
    ("target@nan:5", "nan"),
    ("target@inf:5", "inf"),
    ("target@read+nan:5", "nan"),
    ("target@1:5,recover=nan", "nan"),
    ("target@1:5,rebuild,share=inf", "inf"),
    ("link@1:srv0.nic.tx,factor=nan", "nan"),
])
def test_plan_rejects_non_finite_numbers(bad, value):
    # NaN compares false against every range check, so it must be
    # rejected by name before it reaches a run
    with pytest.raises(ConfigError, match=f"finite, got {value}"):
        parse_fault_plan(bad)


_NAME = st.text("abcdefghijklmnopqrstuvwxyz0123456789_.-", min_size=1, max_size=8)
_SECONDS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def _fault_events(draw):
    """Any event the docs/FAULTS.md grammar admits."""
    kind = draw(st.sampled_from(["target", "server", "ssd", "link", "gate"]))
    if kind in ("target", "server"):
        arg = str(draw(st.integers(0, 10**6)))
    elif kind == "ssd":
        arg = f"srv{draw(st.integers(0, 99))}.ssd{draw(st.integers(0, 99))}"
    else:
        arg = draw(_NAME)
    rebuild = kind in ("target", "server") and draw(st.booleans())
    return FaultEvent(
        kind=kind,
        at=draw(_SECONDS),
        arg=arg,
        phase=draw(st.none() | _NAME),
        recover=draw(st.none() | _SECONDS.filter(lambda x: x > 0)),
        rebuild=rebuild,
        share=draw(st.floats(0.0, 1.0, exclude_min=True)) if rebuild else 0.25,
        factor=draw(st.floats(0.0, 1.0)) if kind == "link" else 1.0,
    )


@given(st.lists(_fault_events(), max_size=4))
def test_plan_spec_round_trips_for_any_plan(events):
    plan = FaultPlan(tuple(events))
    assert parse_fault_plan(plan.spec()) == plan


# -- controller ----------------------------------------------------------------


def test_controller_kills_and_recovers_target():
    env = daos_env()
    controller = FaultController(env, "target@0.1:3,recover=0.2")
    assert env.cluster.fault_controller is controller
    sim = env.cluster.sim
    version0 = env.pool.map_version
    seen = []

    def probe():
        for wait in (0.05, 0.1, 0.2):  # t = 0.05, 0.15, 0.35
            yield sim.timeout(wait)
            seen.append(env.pool.ring[3].alive)

    sim.process(probe())
    sim.run()
    assert seen == [True, False, True]
    assert (controller.injected, controller.recovered) == (1, 1)
    assert env.pool.map_version == version0 + 2


def test_controller_phase_anchored_event():
    env = daos_env()
    controller = FaultController(env, "target@read+0.1:0")
    sim = env.cluster.sim
    seen = []

    def workload():
        yield sim.timeout(0.2)
        controller.mark_phase("read")
        controller.mark_phase("read")  # idempotent
        yield sim.timeout(0.05)
        seen.append(env.pool.ring[0].alive)  # t = 0.25: not yet
        yield sim.timeout(0.1)
        seen.append(env.pool.ring[0].alive)  # t = 0.35: dead

    sim.process(workload())
    sim.run()
    assert seen == [True, False]


def test_controller_event_on_unmarked_phase_never_fires():
    env = daos_env()
    controller = FaultController(env, "target@write+0.01:0")
    env.cluster.sim.run()
    assert controller.injected == 0
    assert env.pool.ring[0].alive


def test_controller_link_degrade_and_partition():
    env = daos_env()
    net = env.cluster.net
    cap = net.link("srv0.nic.tx").capacity
    FaultController(
        env,
        "link@0.1:srv0.nic.tx,factor=0.5,recover=0.2;"
        "link@0.1:srv1.nic.tx,factor=0",
    )
    sim = env.cluster.sim
    seen = []

    def probe():
        yield sim.timeout(0.2)
        seen.append(net.link("srv0.nic.tx").capacity)
        seen.append(net.link("srv1.nic.tx").capacity)
        yield sim.timeout(0.2)
        seen.append(net.link("srv0.nic.tx").capacity)

    sim.process(probe())
    sim.run()
    assert seen[0] == pytest.approx(cap * 0.5)
    assert seen[1] == pytest.approx(cap * 1e-6)
    assert seen[2] == pytest.approx(cap)


def test_controller_gate_closes_and_reopens():
    env = daos_env()
    controller = FaultController(env, "gate@0.1:ckpt,recover=0.2")
    gate = Gate(env.cluster.sim, is_open=True, name="ckpt")
    controller.register_gate("ckpt", gate)
    sim = env.cluster.sim
    seen = []

    def probe():
        yield sim.timeout(0.2)
        seen.append(gate.is_open)
        yield gate.passage()  # blocked until recovery opens the gate
        seen.append(sim.now)

    sim.process(probe())
    sim.run()
    assert seen[0] is False
    assert seen[1] == pytest.approx(0.3)


def test_controller_unknown_link_and_gate_raise():
    env = daos_env()
    FaultController(env, "link@0:nope")
    with pytest.raises(ConfigError):
        env.cluster.sim.run()
    env = daos_env()
    FaultController(env, "gate@0:unregistered")
    with pytest.raises(ConfigError):
        env.cluster.sim.run()


def test_controller_server_crash_takes_all_its_targets():
    env = daos_env()
    FaultController(env, "server@0.1:1")
    env.cluster.sim.run()
    victim = env.cluster.servers[1]
    for target in env.pool.ring:
        assert target.alive == (target.engine.node is not victim)


def test_controller_ssd_fault_fails_colocated_target():
    env = daos_env()
    FaultController(env, "ssd@0.1:srv0.ssd2")
    env.cluster.sim.run()
    device = env.cluster.servers[0].devices[2]
    assert not device.alive
    colocated = [t for t in env.pool.ring if t.device is device]
    assert len(colocated) == 1 and not colocated[0].alive


def test_controller_rebuild_restores_redundancy():
    env = daos_env()
    arr = make_array(env.pool, "RP_2")
    arr.write(0, PAYLOAD)
    victim = arr.groups[0][0]
    controller = FaultController(
        env, f"target@0.1:{victim.global_index},rebuild"
    )
    env.cluster.sim.run()
    assert len(controller.reports) == 1
    assert controller.objects_lost == []
    assert not victim.alive
    # post-rebuild layout serves reads without the victim
    data, charges = arr.read(0, len(PAYLOAD))
    assert data == PAYLOAD
    assert victim not in charges


# -- retry policy --------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(max_attempts=0),
    dict(op_timeout=0.0),
    dict(backoff_base=0.0),
    dict(backoff_factor=0.5),
    dict(jitter=-0.1),
])
def test_retry_policy_rejects(kwargs):
    with pytest.raises(ConfigError):
        RetryPolicy(**kwargs)


def test_backoff_exponential_and_deterministic():
    policy = RetryPolicy(backoff_base=1e-3, backoff_factor=2.0, jitter=0.0)
    assert [policy.delay(n) for n in (1, 2, 3)] == [1e-3, 2e-3, 4e-3]
    jittered = RetryPolicy(jitter=0.2)
    a = Cluster(n_servers=2, n_clients=1, seed=9).rng.stream("cli0.retry")
    b = Cluster(n_servers=2, n_clients=1, seed=9).rng.stream("cli0.retry")
    assert [jittered.delay(n, a) for n in (1, 2)] == [
        jittered.delay(n, b) for n in (1, 2)
    ]


def test_retry_bridges_transient_outage():
    env = daos_env(
        retry=RetryPolicy(max_attempts=8, backoff_base=0.05, jitter=0.0)
    )
    client = env.client(env.cluster.clients[0])
    sim = env.cluster.sim

    def scenario():
        cont = yield from client.create_container("c")
        kv = yield from client.create_kv(cont, oc="S1")
        victim = kv.groups[0][0]
        env.pool.fail_target(victim.global_index)
        yield from client.kv_put(kv, "k", b"v")  # retried until restore
        return (yield from client.kv_get(kv, "k"))

    def medic():
        yield sim.timeout(0.12)
        # kv group membership is fixed; restore the same target
        env.pool.restore_target(env.pool.ring.index(
            next(t for t in env.pool.ring if not t.alive)
        ))

    proc = sim.process(scenario())
    sim.process(medic())
    sim.run()
    assert proc.result == b"v"
    assert client.retries >= 2


def test_retry_exhausts_with_unavailable():
    env = daos_env(
        retry=RetryPolicy(max_attempts=2, backoff_base=0.01, jitter=0.0)
    )
    client = env.client(env.cluster.clients[0])

    def scenario():
        cont = yield from client.create_container("c")
        kv = yield from client.create_kv(cont, oc="S1")
        env.pool.fail_target(kv.groups[0][0].global_index)
        yield from client.kv_put(kv, "k", b"v")

    proc = env.cluster.sim.process(scenario())
    with pytest.raises(UnavailableError):
        env.cluster.sim.run()
        _ = proc.result
    assert client.retries == 1


def test_data_loss_is_not_retried():
    env = daos_env(retry=RetryPolicy(max_attempts=5, backoff_base=0.01))
    client = env.client(env.cluster.clients[0])

    def scenario():
        cont = yield from client.create_container("c")
        kv = yield from client.create_kv(cont, oc="S1")
        yield from client.kv_put(kv, "k", b"v")
        env.pool.fail_target(kv.groups[0][0].global_index)
        yield from client.kv_get(kv, "k")

    env.cluster.sim.process(scenario())
    with pytest.raises(DataLossError):
        env.cluster.sim.run()
    assert client.retries == 0


def test_op_timeout_interrupts_and_retries():
    policy = RetryPolicy(
        max_attempts=2, op_timeout=0.05, backoff_base=0.01, jitter=0.0
    )
    env = daos_env(retry=policy)
    client = env.client(env.cluster.clients[0])
    sim = env.cluster.sim

    def hang(opx):
        yield sim.signal(name="never-fires")

    def scenario():
        yield from client._with_retry(hang, "hang")

    sim.process(scenario())
    with pytest.raises(UnavailableError, match="timed out"):
        sim.run()
    assert client.retries == 1
    # attempt 1 (0.05) + backoff (0.01) + attempt 2 (0.05)
    assert math.isclose(sim.now, 0.11)


# -- chaos property: single failures are survivable iff redundant --------------


@pytest.mark.parametrize("oc", ["RP_2", "EC_2P1"])
def test_single_target_failure_reads_byte_identical(oc):
    env = daos_env()
    client = env.client(env.cluster.clients[0])
    arr = make_array(env.pool, oc)
    arr.write(0, PAYLOAD)
    group = arr.groups[0]

    def scenario():
        for victim in group:
            env.pool.fail_target(victim.global_index)
            data = yield from client.array_read(arr, 0, len(PAYLOAD))
            assert data == PAYLOAD
            # restore comes back wiped (device replacement): re-protect
            env.pool.restore_target(victim.global_index)
            arr.write(0, PAYLOAD)

    proc = env.cluster.sim.process(scenario())
    env.cluster.sim.run()
    assert proc.result is None  # scenario's asserts all passed
    # replication skipped a dead primary / EC reconstructed from parity
    assert client.failed_over >= 1


def test_sx_single_failure_loses_data():
    env = daos_env()
    client = env.client(env.cluster.clients[0])
    arr = make_array(env.pool, "S1")
    arr.write(0, PAYLOAD)
    env.pool.fail_target(arr.groups[0][0].global_index)

    def scenario():
        yield from client.array_read(arr, 0, len(PAYLOAD))

    env.cluster.sim.process(scenario())
    with pytest.raises(DataLossError, match="no live replica"):
        env.cluster.sim.run()


@pytest.mark.parametrize("oc,kills", [("RP_2", 2), ("EC_2P1", 2)])
def test_double_failure_raises_clean_data_loss(oc, kills):
    env = daos_env()
    client = env.client(env.cluster.clients[0])
    arr = make_array(env.pool, oc)
    arr.write(0, PAYLOAD)
    for victim in arr.groups[0][:kills]:
        env.pool.fail_target(victim.global_index)

    def scenario():
        yield from client.array_read(arr, 0, len(PAYLOAD))

    env.cluster.sim.process(scenario())
    with pytest.raises(DataLossError, match="chunk"):
        env.cluster.sim.run()
    assert client.retries == 0  # data loss is terminal, never retried


# -- rebuild validation (satellite) --------------------------------------------


@pytest.mark.parametrize("share", [0.0, -0.5, 1.5])
def test_rebuild_rejects_bad_bandwidth_share(share):
    env = daos_env()
    gen = run_rebuild(env.pool, env.pool.ring[0], bandwidth_share=share)
    with pytest.raises(ConfigError):
        next(gen)


# -- Lustre OST degraded mode (satellite) --------------------------------------


def test_ost_fail_raises_degraded_until_restore():
    cluster = Cluster(n_servers=2, n_clients=1, seed=3)
    fs = LustreFilesystem(cluster)
    ost = fs.osts[0]
    ost.store((1, 0))[0] = b"x"
    ost.fail()
    with pytest.raises(DegradedError):
        ost.store((1, 0))
    with pytest.raises(DegradedError):
        ost.lookup((1, 0))
    ost.drop((1, 0))  # unlink over a dead OST stays a functional no-op
    ost.restore()
    assert ost.lookup((1, 0)) is None  # device replacement: objects gone


# -- harness integration -------------------------------------------------------


def _small_spec(**kwargs) -> PointSpec:
    base = dict(
        workload="ior", store="daos", api="DAOS", n_servers=2,
        n_client_nodes=1, ppn=2, ops_per_process=24, op_size=MiB,
        mode="exact", object_class="RP_2GX",
    )
    base.update(kwargs)
    return PointSpec(**base)


def test_spec_token_unchanged_without_faults():
    token = spec_token(_small_spec())
    assert "faults" not in token
    faulted = spec_token(_small_spec(faults="target@0.1:0"))
    assert "faults='target@0.1:0'" in faulted


def test_spec_canonicalizes_faults():
    spec = _small_spec(faults=" target@0.50:3 , recover=1.0 ")
    assert spec.faults == "target@0.5:3,recover=1"


def test_spec_rejects_faults_on_rawio():
    with pytest.raises(ConfigError):
        PointSpec(
            workload="rawio", store="daos", api="dd",
            n_servers=1, n_client_nodes=1, faults="target@0.1:0",
        )


def test_run_point_with_faults_deterministic():
    spec = _small_spec(faults="target@read+0.01:1,rebuild")
    a = run_point(spec, reps=1)
    b = run_point(spec, reps=1)
    assert a.read_bw == b.read_bw
    assert a.read_windows == b.read_windows
    assert len(a.read_windows) == PROFILE_WINDOWS
    assert a.lost_ops == (0.0, 0.0)  # RP_2 rides through


def test_run_point_sx_faulted_loses_ops():
    result = run_point(
        _small_spec(object_class="SX", faults="target@read+0.01:1"), reps=1
    )
    assert result.lost_ops[0] > 0


def test_with_faults_overlays_every_storage_point():
    plan = plan_figure("RP2")
    overlay = with_faults(plan, "target@0.1:0")
    assert all(s.faults == "target@0.1:0" for s in overlay.specs)
    assert with_faults(plan, "") is plan
    hw = with_faults(plan_figure("HW"), "target@0.1:0")
    assert all(s.faults == "" for s in hw.specs)
