"""Ceph model: PG placement, librados semantics, efficiency ceilings."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ceph import CephCluster, CephParams, PgMap, RadosClient
from repro.errors import ConfigError, InvalidArgumentError, NotFoundError
from repro.hardware import Cluster
from repro.sim.randomness import stable_hash64
from repro.units import GiB, KiB, MiB


def build(n_servers=4, n_clients=1, params=None):
    cluster = Cluster(n_servers=n_servers, n_clients=n_clients, seed=0)
    ceph = CephCluster(cluster, params=params)
    client = RadosClient(ceph, cluster.clients[0])
    return cluster, ceph, client


def drive(cluster, gen):
    proc = cluster.sim.process(gen)
    cluster.sim.run()
    return proc.result


def test_deployment_osds():
    _, ceph, _ = build(n_servers=4)
    assert ceph.n_osds == 64


def test_connect_required():
    cluster, ceph, client = build()

    def flow():
        yield from client.create_pool("p")

    with pytest.raises(InvalidArgumentError):
        drive(cluster, flow())


def test_write_read_roundtrip():
    cluster, ceph, client = build()
    payload = bytes(range(256)) * 8

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("data", pg_num=64)
        yield from client.write_full(pool, "obj-1", payload)
        return (yield from client.read(pool, "obj-1", 0, len(payload)))

    assert drive(cluster, flow()) == payload


def test_partial_read_and_stat():
    cluster, ceph, client = build()

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("p")
        yield from client.write(pool, "o", 0, b"0123456789")
        part = yield from client.read(pool, "o", 3, 4)
        size = yield from client.stat(pool, "o")
        return part, size

    part, size = drive(cluster, flow())
    assert part == b"3456"
    assert size == 10


def test_read_missing_object():
    cluster, ceph, client = build()

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("p")
        yield from client.read(pool, "ghost", 0, 10)

    with pytest.raises(NotFoundError):
        drive(cluster, flow())


def test_remove_object():
    cluster, ceph, client = build()

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("p")
        yield from client.write_full(pool, "o", b"x")
        yield from client.remove(pool, "o")
        try:
            yield from client.stat(pool, "o")
        except NotFoundError:
            return "gone"

    assert drive(cluster, flow()) == "gone"


def test_max_object_size_enforced():
    """Paper: recommended maximum object size of 132 MiB."""
    cluster, ceph, client = build()

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("p", materialize=False)
        yield from client.write(pool, "big", 132 * MiB - 1, nbytes=2)

    with pytest.raises(InvalidArgumentError, match="maximum"):
        drive(cluster, flow())


def test_object_lives_on_single_primary():
    """No sharding without EC/replication: one object -> one OSD."""
    cluster, ceph, client = build()

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("p")
        yield from client.write_full(pool, "solo", b"x" * (4 * KiB))
        return pool

    pool = drive(cluster, flow())
    holders = [o for o in ceph.osds if (("p", "solo") in o.objects)]
    assert len(holders) == 1
    assert holders[0] is pool.pgmap.primary("solo")


def test_replicated_pool_fans_out():
    cluster, ceph, client = build()

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("r", size=3)
        yield from client.write_full(pool, "o", b"abc")
        return pool

    pool = drive(cluster, flow())
    holders = [o for o in ceph.osds if (("r", "o") in o.objects)]
    assert len(holders) == 3
    assert all(bytes(h.objects[("r", "o")]["data"]) == b"abc" for h in holders)


def test_omap_roundtrip():
    cluster, ceph, client = build()

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("idx")
        yield from client.omap_set(pool, "index", {"k1": b"v1", "k2": b"v2"})
        v1 = yield from client.omap_get(pool, "index", "k1")
        return v1

    assert drive(cluster, flow()) == b"v1"


def test_omap_missing_key():
    cluster, ceph, client = build()

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("idx")
        yield from client.omap_set(pool, "index", {"a": b"1"})
        yield from client.omap_get(pool, "index", "zzz")

    with pytest.raises(NotFoundError):
        drive(cluster, flow())


def test_pgmap_validation():
    _, ceph, _ = build()
    with pytest.raises(ConfigError):
        PgMap("x", 0, ceph.osds)
    with pytest.raises(ConfigError):
        PgMap("x", 16, ceph.osds, size=1000)


def test_pgmap_acting_sets_distinct():
    _, ceph, _ = build()
    pg = PgMap("p", 128, ceph.osds, size=3)
    for obj in ("a", "b", "c", "d"):
        acting = pg.acting_set(obj)
        assert len({o.index for o in acting}) == 3


_PG_OSDS = build()[1].osds
#: names that stress repr(): quotes of both kinds, backslashes, escapes
#: and non-ASCII text
_awkward_names = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from("'\"\\\n\x1f\u00e9\u4e2d\U0001f600 a.0")),
)


@settings(max_examples=200, deadline=None)
@given(pool_name=_awkward_names, name=_awkward_names, pg_num=st.integers(1, 4096))
@example(pool_name="fdb", name="fdb.0.0", pg_num=1024)
@example(pool_name="it's", name='say "\\x1f"\n', pg_num=7)
def test_pg_of_hashes_the_rados_prefix_once_to_the_same_hash(pool_name, name, pg_num):
    pg = PgMap(pool_name, pg_num, _PG_OSDS)
    assert pg.pg_of(name) == stable_hash64("rados", pool_name, name) % pg_num
    assert pg.primary(name) is _PG_OSDS[pg._acting[pg.pg_of(name)][0]]


def test_many_pgs_balance_primaries():
    """Paper: 1024 PGs gave balanced placement across 256 OSDs."""
    cluster = Cluster(n_servers=16, n_clients=0, seed=0)
    ceph = CephCluster(cluster)
    pg = PgMap("balanced", 1024, ceph.osds)
    counts = pg.pg_distribution()
    assert min(counts) >= 1
    assert max(counts) <= 8  # mean is 4; permutation keeps the tail tight


def test_few_pgs_underuse_osds():
    """A too-small PG count leaves OSDs idle (why the paper tuned PGs)."""
    cluster = Cluster(n_servers=16, n_clients=0, seed=0)
    ceph = CephCluster(cluster)
    pg = PgMap("small", 32, ceph.osds)
    counts = pg.pg_distribution()
    assert counts.count(0) >= 256 - 32


def test_write_efficiency_ceiling():
    """A single-object write is capped at write_efficiency x device bw."""
    cluster, ceph, client = build(n_servers=1)
    nbytes = 16 * MiB

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("p", materialize=False)
        t0 = cluster.sim.now
        yield from client.write(pool, "obj", 0, nbytes=nbytes)
        return nbytes / (cluster.sim.now - t0)

    bw = drive(cluster, flow())
    device_bw = 3.86 * GiB / 16
    assert bw <= ceph.params.write_efficiency * device_bw * 1.01
    assert bw >= ceph.params.write_efficiency * device_bw * 0.8


def test_read_faster_than_write_per_object():
    cluster, ceph, client = build(n_servers=1)
    nbytes = 16 * MiB

    def flow():
        yield from client.connect()
        pool = yield from client.create_pool("p", materialize=False)
        yield from client.write(pool, "obj", 0, nbytes=nbytes)
        t0 = cluster.sim.now
        yield from client.read(pool, "obj", 0, nbytes)
        return nbytes / (cluster.sim.now - t0)

    read_bw = drive(cluster, flow())
    device_read = 7.0 * GiB / 16
    assert read_bw == pytest.approx(ceph.params.read_efficiency * device_read, rel=0.1)


def test_duplicate_pool_rejected():
    cluster, ceph, client = build()
    from repro.errors import ExistsError

    def flow():
        yield from client.connect()
        yield from client.create_pool("p")
        yield from client.create_pool("p")

    with pytest.raises(ExistsError):
        drive(cluster, flow())
