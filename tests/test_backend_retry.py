"""RetryPolicy threading through the Lustre and Ceph read paths.

PR 5 wired retries into DAOS only; these tests pin the shared
:func:`repro.faults.retry.run_with_retry` runner on the other two
backends: seeded-backoff determinism, zero happy-path RNG draws with
the default policy, per-op timeouts, replicated-read failover, and the
non-retryable ``DegradedError`` / ``DataLossError`` semantics.
"""

import math

import pytest

from repro.ceph import CephCluster, RadosClient
from repro.errors import DataLossError, DegradedError, UnavailableError
from repro.faults.retry import RetryPolicy, run_with_retry
from repro.hardware import Cluster
from repro.lustre import LustreClient, LustreFilesystem
from repro.units import KiB


def lustre_build(policy=None, seed=0):
    cluster = Cluster(n_servers=4, n_clients=1, seed=seed)
    fs = LustreFilesystem(cluster)
    client = LustreClient(fs, cluster.clients[0], retry_policy=policy)
    return cluster, fs, client


def ceph_build(policy=None, seed=0):
    cluster = Cluster(n_servers=4, n_clients=1, seed=seed)
    ceph = CephCluster(cluster)
    client = RadosClient(ceph, cluster.clients[0], retry_policy=policy)
    return cluster, ceph, client


def drive(cluster, gen):
    proc = cluster.sim.process(gen)
    cluster.sim.run()
    return proc.result


# -- happy path: the retry layer is invisible ---------------------------------


def test_lustre_happy_path_never_touches_retry_stream():
    cluster, fs, client = lustre_build()

    def flow():
        fh = yield from client.create("/f", stripe_count=4, stripe_size=4 * KiB)
        yield from client.write(fh, 0, b"x" * (16 * KiB))
        return (yield from client.read(fh, 0, 16 * KiB))

    assert drive(cluster, flow()) == b"x" * (16 * KiB)
    assert client.retries == 0
    # the .retry backoff stream is created lazily on first retry only:
    # fault-free runs make zero extra RNG draws
    assert client._retry_rng is None


def test_ceph_happy_path_never_touches_retry_stream():
    cluster, ceph, client = ceph_build()

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("p", size=2)
        yield from client.write_full(pool, "o", b"payload")
        return (yield from client.read(pool, "o", 0, 7))

    assert drive(cluster, flow()) == b"payload"
    assert client.retries == 0
    assert client._retry_rng is None


def test_lustre_default_policy_timing_matches_no_policy():
    # an explicit default policy and no policy produce the same timeline
    times = []
    for policy in (None, RetryPolicy()):
        cluster, fs, client = lustre_build(policy=policy)

        def flow(client=client):
            fh = yield from client.create("/t", stripe_count=2)
            yield from client.write(fh, 0, b"y" * (8 * KiB))
            yield from client.read(fh, 0, 8 * KiB)

        drive(cluster, flow())
        times.append(cluster.sim.now)
    assert times[0] == times[1]


# -- seeded backoff determinism ----------------------------------------------


def test_lustre_backoff_stream_seeded_deterministic():
    policy = RetryPolicy(jitter=0.2)
    _, _, a = lustre_build(seed=7)
    _, _, b = lustre_build(seed=7)
    assert [policy.delay(n, a._backoff_rng()) for n in (1, 2, 3)] == [
        policy.delay(n, b._backoff_rng()) for n in (1, 2, 3)
    ]


def test_ceph_backoff_stream_seeded_deterministic():
    policy = RetryPolicy(jitter=0.2)
    _, _, a = ceph_build(seed=7)
    _, _, b = ceph_build(seed=7)
    assert [policy.delay(n, a._backoff_rng()) for n in (1, 2, 3)] == [
        policy.delay(n, b._backoff_rng()) for n in (1, 2, 3)
    ]


def test_backoff_streams_are_per_backend_and_per_client():
    # the lustre and ceph streams of the same node name are independent
    cluster = Cluster(n_servers=2, n_clients=1, seed=3)
    node = cluster.clients[0]
    fs = LustreFilesystem(cluster)
    ceph = CephCluster(cluster)
    lc = LustreClient(fs, node)
    cc = RadosClient(ceph, node)
    assert lc._backoff_rng().normal() != cc._backoff_rng().normal()


# -- per-op timeout ------------------------------------------------------------


@pytest.mark.parametrize("backend", ["lustre", "ceph"])
def test_op_timeout_interrupts_and_retries(backend):
    policy = RetryPolicy(
        max_attempts=2, op_timeout=0.05, backoff_base=0.01, jitter=0.0
    )
    if backend == "lustre":
        cluster, _, client = lustre_build(policy=policy)
        ledger_name = "lustre.lat.read"
    else:
        cluster, _, client = ceph_build(policy=policy)
        ledger_name = "ceph.lat.read"
    sim = cluster.sim

    def hang(opx):
        yield sim.signal(name="never-fires")

    def scenario():
        yield from run_with_retry(client, hang, "hang", ledger_name)

    sim.process(scenario())
    with pytest.raises(UnavailableError, match="timed out"):
        sim.run()
    assert client.retries == 1
    # attempt 1 (0.05) + backoff (0.01) + attempt 2 (0.05)
    assert math.isclose(sim.now, 0.11)


def test_lustre_read_op_timeout_end_to_end():
    # a timeout shorter than any read attempt exhausts the budget
    policy = RetryPolicy(
        max_attempts=3, op_timeout=1e-7, backoff_base=0.01, jitter=0.0
    )
    cluster, fs, client = lustre_build(policy=policy)

    def flow():
        fh = yield from client.create("/z", stripe_count=2)
        yield from client.write(fh, 0, b"z" * (4 * KiB))
        yield from client.read(fh, 0, 4 * KiB)

    cluster.sim.process(flow())
    with pytest.raises(UnavailableError, match="timed out"):
        cluster.sim.run()
    assert client.retries == 2  # max_attempts - 1


# -- non-retryable faults stay non-retryable ----------------------------------


def test_lustre_degraded_ost_read_not_retried():
    policy = RetryPolicy(max_attempts=5, backoff_base=0.01, jitter=0.0)
    cluster, fs, client = lustre_build(policy=policy)

    def flow():
        fh = yield from client.create("/d", stripe_count=2, stripe_size=1 * KiB)
        yield from client.write(fh, 0, b"d" * (4 * KiB))
        fh.osts[0].fail()
        yield from client.read(fh, 0, 4 * KiB)

    cluster.sim.process(flow())
    with pytest.raises(DegradedError):
        cluster.sim.run()
    assert client.retries == 0


def test_ceph_ec_data_loss_not_retried():
    policy = RetryPolicy(max_attempts=5, backoff_base=0.01, jitter=0.0)
    cluster, ceph, client = ceph_build(policy=policy)

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("ec", ec_k=2, ec_m=1)
        yield from client.write_full(pool, "o", b"e" * (4 * KiB))
        for osd in pool.acting_set("o")[:2]:  # k+m = 3; losing 2 of 3 > m
            osd.fail()
        yield from client.read(pool, "o", 0, 4 * KiB)

    cluster.sim.process(flow())
    with pytest.raises(DataLossError):
        cluster.sim.run()
    assert client.retries == 0


# -- ceph replicated-read failover --------------------------------------------


def test_ceph_read_fails_over_to_surviving_replica():
    cluster, ceph, client = ceph_build()

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("r", size=2)
        yield from client.write_full(pool, "o", b"replica-data")
        pool.pgmap.primary("o").fail()
        return (yield from client.read(pool, "o", 0, 12))

    assert drive(cluster, flow()) == b"replica-data"
    assert client.retries == 0  # failover is immediate, not a retry


def test_ceph_read_retry_bridges_full_outage():
    policy = RetryPolicy(max_attempts=8, backoff_base=0.05, jitter=0.0)
    cluster, ceph, client = ceph_build(policy=policy)
    sim = cluster.sim

    def scenario():
        yield from client.connect()
        pool = yield from client.create_pool("r", size=2)
        yield from client.write_full(pool, "o", b"x" * 64)
        acting = pool.acting_set("o")
        for osd in acting:
            osd.fail()

        def revive():
            yield sim.timeout(0.12)
            for osd in acting:
                osd.restore()

        sim.process(revive())
        # retried with seeded backoff until the acting set comes back;
        # Osd.fail() drops the object bytes, so the read returns zeros
        return (yield from client.read(pool, "o", 0, 64))

    assert drive(cluster, scenario()) == b"\0" * 64
    assert client.retries >= 1


def test_ceph_outage_bridge_timeline_deterministic():
    def run(seed):
        policy = RetryPolicy(max_attempts=8, backoff_base=0.05, jitter=0.2)
        cluster, ceph, client = ceph_build(policy=policy, seed=seed)
        sim = cluster.sim

        def scenario():
            yield from client.connect()
            pool = yield from client.create_pool("r", size=2)
            yield from client.write_full(pool, "o", b"x" * 64)
            acting = pool.acting_set("o")
            for osd in acting:
                osd.fail()

            def revive():
                yield sim.timeout(0.12)
                for osd in acting:
                    osd.restore()

            sim.process(revive())
            yield from client.read(pool, "o", 0, 64)

        drive(cluster, scenario())
        return sim.now, client.retries

    assert run(5) == run(5)
    # jittered backoff actually engaged (a different seed shifts timing)
    assert run(5)[0] != run(6)[0]


# -- retried reads are visible in observability -------------------------------


def test_ceph_retried_counter_increments():
    import repro.obs as obs_mod

    obs = obs_mod.Observability()
    with obs_mod.activated(obs):
        policy = RetryPolicy(max_attempts=8, backoff_base=0.05, jitter=0.0)
        cluster = Cluster(n_servers=4, n_clients=1, seed=0)
        ceph = CephCluster(cluster)
        client = RadosClient(ceph, cluster.clients[0], retry_policy=policy)
        sim = cluster.sim

        def scenario():
            yield from client.connect()
            pool = yield from client.create_pool("r", size=2)
            yield from client.write_full(pool, "o", b"x" * 64)
            acting = pool.acting_set("o")
            for osd in acting:
                osd.fail()

            def revive():
                yield sim.timeout(0.12)
                for osd in acting:
                    osd.restore()

            sim.process(revive())
            yield from client.read(pool, "o", 0, 64)

        drive(cluster, scenario())
    assert client.retries >= 1
    assert obs.registry.counter("ceph.ops.retried").value == client.retries


def test_daos_retry_and_failover_counters_file_under_daos():
    import repro.obs as obs_mod
    from repro.daos import DaosClient, Pool

    obs = obs_mod.Observability()
    with obs_mod.activated(obs):
        cluster = Cluster(n_servers=2, n_clients=1, seed=0)
        pool = Pool(cluster)
        client = DaosClient(cluster, pool, cluster.clients[0])

        def scenario():
            yield from client.connect()
            cont = yield from client.create_container("c")
            arr = yield from client.create_array(cont, "RP_2G1", chunk_size=4 * KiB)
            yield from client.array_write(arr, 0, b"x" * 4096)
            pool.fail_target(arr.groups[0][0].global_index)
            yield from client.array_read(arr, 0, 4096)

        drive(cluster, scenario())
    registry = obs.registry
    assert client.failed_over == 1
    assert registry.get("daos.ops.failed_over").value == 1
    assert registry.get("daos.ops.retried").value == client.retries == 0
    # no phantom "ops" layer beside daos/flownet/sim in the summary
    assert "ops" not in registry.by_layer()
