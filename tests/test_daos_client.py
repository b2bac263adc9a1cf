"""Timed DAOS client: latency charges, flow routing, amplification."""

import pytest

from repro.daos import DaosClient, Pool
from repro.errors import UnavailableError
from repro.hardware import Cluster
from repro.units import GiB, KiB, MiB


def setup(n_servers=4, n_clients=2, seed=0):
    cluster = Cluster(n_servers=n_servers, n_clients=n_clients, seed=seed)
    pool = Pool(cluster)
    client = DaosClient(cluster, pool, cluster.clients[0])
    return cluster, pool, client


def drive(cluster, gen):
    proc = cluster.sim.process(gen)
    cluster.sim.run()
    return proc.result


def test_connect_and_container_create():
    cluster, pool, client = setup()

    def flow():
        yield from client.connect()
        cont = yield from client.create_container("data")
        return cont

    cont = drive(cluster, flow())
    assert pool.get_container("data") is cont
    assert cluster.sim.now > 0


def test_array_write_takes_transfer_time():
    cluster, pool, client = setup()
    nbytes = 64 * MiB

    def flow():
        cont = yield from client.create_container("c", materialize=False)
        arr = yield from client.create_array(cont, oc="SX")
        t0 = cluster.sim.now
        yield from client.array_write(arr, 0, nbytes=nbytes)
        return cluster.sim.now - t0

    elapsed = drive(cluster, flow())
    # One client NIC at 6.25 GiB/s with 0.94 efficiency is the bottleneck
    # (4 servers offer 15.44 GiB/s of SSD write).
    expected = nbytes / (6.25 * GiB * 0.94)
    assert elapsed == pytest.approx(expected, rel=0.05)


def test_array_read_faster_than_write_single_server():
    cluster, pool, client = setup(n_servers=1)
    nbytes = 64 * MiB

    def flow():
        cont = yield from client.create_container("c", materialize=False)
        arr = yield from client.create_array(cont, oc="SX")
        t0 = cluster.sim.now
        yield from client.array_write(arr, 0, nbytes=nbytes)
        t1 = cluster.sim.now
        yield from client.array_read(arr, 0, nbytes)
        t2 = cluster.sim.now
        return (t1 - t0, t2 - t1)

    w, r = drive(cluster, flow())
    # One server: write bound by 3.86 GiB/s SSD, read by 6.25 GiB/s NIC.
    assert w / r == pytest.approx((6.25 * 0.94) / 3.86, rel=0.1)


def test_ec_write_is_two_thirds_of_plain(tmp_path=None):
    """Paper Sec III-D: EC 2+1 writes at ~2/3 of unprotected bandwidth."""
    cluster, pool, client = setup(n_servers=3, n_clients=1)
    nbytes = 48 * MiB

    def flow(oc, label):
        cont = yield from client.create_container(label, materialize=False)
        arr = yield from client.create_array(cont, oc=oc, chunk_size=MiB)
        t0 = cluster.sim.now
        yield from client.array_write(arr, 0, nbytes=nbytes)
        return cluster.sim.now - t0

    t_plain = drive(cluster, flow("S3", "plain"))
    t_ec = drive(cluster, flow("EC_2P1G1", "ec"))
    # S3: data spread on 3 targets; EC_2P1: same 3-target group width but
    # 1.5x bytes written -> ~1.5x the time.
    assert t_ec / t_plain == pytest.approx(1.5, rel=0.15)


def test_rp2_write_is_half_of_plain():
    cluster, pool, client = setup(n_servers=2, n_clients=1)
    nbytes = 32 * MiB

    def flow(oc, label):
        cont = yield from client.create_container(label, materialize=False)
        arr = yield from client.create_array(cont, oc=oc, chunk_size=MiB)
        t0 = cluster.sim.now
        yield from client.array_write(arr, 0, nbytes=nbytes)
        return cluster.sim.now - t0

    t_plain = drive(cluster, flow("S2", "plain"))
    t_rp = drive(cluster, flow("RP_2G1", "rp"))
    assert t_rp / t_plain == pytest.approx(2.0, rel=0.15)


def test_kv_put_get_roundtrip_timed():
    cluster, pool, client = setup()

    def flow():
        cont = yield from client.create_container("kvc")
        kv = yield from client.create_kv(cont, oc="S1")
        yield from client.kv_put(kv, "name", b"value")
        value = yield from client.kv_get(kv, "name")
        return value

    assert drive(cluster, flow()) == b"value"


def test_kv_ops_cost_at_least_rtt():
    cluster, pool, client = setup()
    rtt = pool.params.rpc_rtt

    def flow():
        cont = yield from client.create_container("kvc")
        kv = yield from client.create_kv(cont)
        t0 = cluster.sim.now
        for i in range(10):
            yield from client.kv_put(kv, f"k{i}", b"v")
        return cluster.sim.now - t0

    elapsed = drive(cluster, flow())
    assert elapsed >= 10 * rtt


def test_array_size_query_costs_time():
    cluster, pool, client = setup()

    def flow():
        cont = yield from client.create_container("c")
        arr = yield from client.create_array(cont)
        yield from client.array_write(arr, 0, b"x" * 1000)
        t0 = cluster.sim.now
        size = yield from client.array_size(arr)
        return size, cluster.sim.now - t0

    size, dt = drive(cluster, flow())
    assert size == 1000
    assert dt > 0


def test_failed_op_still_costs_rtt():
    cluster, pool, client = setup()
    from repro.errors import NotFoundError

    def flow():
        cont = yield from client.create_container("c")
        kv = yield from client.create_kv(cont)
        t0 = cluster.sim.now
        try:
            yield from client.kv_get(kv, "missing")
        except NotFoundError:
            return cluster.sim.now - t0

    dt = drive(cluster, flow())
    assert dt >= pool.params.rpc_rtt


def test_two_clients_share_server_bandwidth():
    cluster, pool, _ = setup(n_servers=1, n_clients=2)
    clients = [DaosClient(cluster, pool, n) for n in cluster.clients]
    nbytes = 32 * MiB
    done = {}

    def flow(i):
        cont = yield from clients[i].create_container(f"c{i}", materialize=False)
        arr = yield from clients[i].create_array(cont, oc="SX")
        yield from clients[i].array_write(arr, 0, nbytes=nbytes)
        done[i] = cluster.sim.now

    cluster.sim.process(flow(0))
    cluster.sim.process(flow(1))
    cluster.sim.run()
    # 64 MiB total through one server's 3.86 GiB/s SSD aggregate.
    expected = 2 * nbytes / (3.86 * GiB * 0.94)
    assert max(done.values()) == pytest.approx(expected, rel=0.1)


def test_jitter_differs_between_clients():
    cluster, pool, _ = setup()
    a = DaosClient(cluster, pool, cluster.clients[0], name="a", jitter_sigma=0.1)
    b = DaosClient(cluster, pool, cluster.clients[1], name="b", jitter_sigma=0.1)
    assert a.jitter != b.jitter
    c = DaosClient(cluster, pool, cluster.clients[0], name="c")
    assert c.jitter == 1.0


def test_truncate_timed():
    cluster, pool, client = setup()

    def flow():
        cont = yield from client.create_container("c")
        arr = yield from client.create_array(cont)
        yield from client.array_write(arr, 0, b"x" * (8 * KiB))
        yield from client.array_truncate(arr, 100)
        return arr.size()

    assert drive(cluster, flow()) == 100


def test_open_helpers():
    cluster, pool, client = setup()

    def flow():
        cont = yield from client.create_container("c")
        arr = yield from client.create_array(cont)
        kv = yield from client.create_kv(cont)
        cont2 = yield from client.open_container("c")
        arr2 = yield from client.open_array(cont2, arr.oid)
        kv2 = yield from client.open_kv(cont2, kv.oid)
        return cont is cont2 and arr is arr2 and kv is kv2

    assert drive(cluster, flow())


def test_open_wrong_kind_rejected():
    cluster, pool, client = setup()
    from repro.errors import InvalidArgumentError

    def flow():
        cont = yield from client.create_container("c")
        arr = yield from client.create_array(cont)
        try:
            yield from client.open_kv(cont, arr.oid)
        except InvalidArgumentError:
            return "rejected"

    assert drive(cluster, flow()) == "rejected"


def test_kv_remove_timed():
    cluster, pool, client = setup()

    def flow():
        cont = yield from client.create_container("c")
        kv = yield from client.create_kv(cont, oc="RP_2")
        yield from client.kv_put(kv, "k", b"v")
        yield from client.kv_remove(kv, "k")
        return kv.contains("k")

    assert drive(cluster, flow()) is False


def test_kv_remove_md_flow_follows_write_plan():
    """kv_remove charges one md op per engine of the write plan, and an
    exhausted group raises UnavailableError before any flow."""
    cluster, pool, client = setup()
    flows = []

    def md_flow(ops_by_engine, rsvc_ops=0.0, name="md"):
        flows.append((name, dict(ops_by_engine)))
        yield cluster.sim.timeout(0)

    client._md_flow = md_flow
    cont = pool.create_container("c")
    kv = cont.new_kv("RP_3")
    kv.put("k", b"v")
    kv.put("gone", b"v")
    group = kv.groups[kv._group_for("k")]
    pool.fail_target(group[1].global_index)
    drive(cluster, client.kv_remove(kv, "k"))
    assert flows == [("kv-remove", {group[0].engine: 1.0, group[2].engine: 1.0})]
    for target in kv.groups[kv._group_for("gone")]:
        if target.alive:
            pool.fail_target(target.global_index)
    with pytest.raises(UnavailableError):
        drive(cluster, client.kv_remove(kv, "gone"))
    assert len(flows) == 1


def test_destroy_container_timed():
    cluster, pool, client = setup()

    def flow():
        cont = yield from client.create_container("doomed")
        arr = yield from client.create_array(cont)
        yield from client.array_write(arr, 0, b"x" * 4096)
        t0 = cluster.sim.now
        yield from client.destroy_container("doomed")
        return cluster.sim.now - t0

    dt = drive(cluster, flow())
    assert dt > 0
    from repro.errors import NotFoundError
    with pytest.raises(NotFoundError):
        pool.get_container("doomed")
    assert pool.query()["used_bytes"] == 0
