"""FDB: schema, facade, and all three backends."""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ceph import CephCluster, RadosClient
from repro.daos import DaosClient, Pool
from repro.errors import InvalidArgumentError, NotFoundError
from repro.fdb import (
    FDB,
    FdbDaosBackend,
    FdbKey,
    FdbPosixBackend,
    FdbRadosBackend,
    key_sequence,
    make_key,
)
from repro.hardware import Cluster
from repro.lustre import LustreClient, LustreFilesystem
from repro.units import KiB, MiB


def drive(cluster, gen):
    proc = cluster.sim.process(gen)
    cluster.sim.run()
    return proc.result


# -- schema -------------------------------------------------------------------


def test_make_key_canonical_order():
    key = make_key(param=130, step=0, date=20240101, time="0000", stream="oper", class_="od")
    assert str(key) == "class=od,stream=oper,date=20240101,time=0000,step=0,param=130"


def test_key_missing_required_rejected():
    with pytest.raises(InvalidArgumentError):
        make_key(class_="od", stream="oper")


def test_key_unknown_attribute_rejected():
    with pytest.raises(InvalidArgumentError):
        make_key(class_="od", stream="oper", date=1, time=0, step=0, param=1, banana=1)


def test_key_index_group_prefix():
    key = make_key(
        class_="od", stream="enfo", expver="0001", date=20240101, time="0000",
        step=6, param=130,
    )
    assert key.index_group() == "class=od,stream=enfo,expver=0001,date=20240101,time=0000"


def test_key_sequence_unique_and_sized():
    keys = list(key_sequence(100, member=3))
    assert len(keys) == 100
    assert len(set(keys)) == 100
    other = set(key_sequence(100, member=4))
    assert not other & set(keys)  # members are disjoint


@pytest.mark.parametrize("value", ["130,levelist=1", "130=1", ""])
def test_make_key_rejects_values_that_break_the_index_string(value):
    # "param=130,levelist=1" would otherwise be the index string of two
    # distinct keys, and one field would overwrite the other
    with pytest.raises(InvalidArgumentError):
        make_key(class_="od", stream="oper", date=1, time=0, step=0, param=value)


def test_key_duplicate_attribute_rejected():
    with pytest.raises(InvalidArgumentError):
        make_key(class_="od", stream="oper", date=1, time=0, step=0, param=1, **{"class": "rd"})
    with pytest.raises(InvalidArgumentError):
        FdbKey((("class", "od"), ("class", "rd"), ("stream", "oper"), ("date", "1"),
                ("time", "0"), ("step", "0"), ("param", "1")))


def test_key_items_kept_in_schema_order():
    key = next(iter(key_sequence(1)))
    reordered = FdbKey(tuple(reversed(key.items)))
    assert reordered.items == key.items
    assert reordered == key
    assert hash(reordered) == hash(key)
    assert reordered.canonical() == key.canonical()


@contextmanager
def time_limit(seconds):
    """Fail, instead of hanging, if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("sweep", [dict(params=()), dict(levels=()), dict(params=(), levels=())])
def test_key_sequence_rejects_empty_sweep(sweep):
    with time_limit(5), pytest.raises(InvalidArgumentError):
        next(iter(key_sequence(1, **sweep)))
    assert list(key_sequence(0, **sweep)) == []


@settings(max_examples=60, deadline=None)
@given(
    n_fields=st.integers(0, 90),
    member=st.integers(-5, 10**6),
    date=st.integers(0, 99991231),
    params=st.lists(st.integers(-5, 999), min_size=1, max_size=5).map(tuple),
    levels=st.lists(st.integers(-5, 1000), min_size=1, max_size=4).map(tuple),
)
def test_key_sequence_matches_make_key(n_fields, member, date, params, levels):
    keys = list(key_sequence(n_fields, member=member, date=date, params=params, levels=levels))
    assert len(keys) == n_fields
    per_step = len(params) * len(levels)
    for i, key in enumerate(keys):
        ref = make_key(
            class_="od", stream="enfo", expver="0001", date=date, time="0000",
            domain="g", type="pf", levtype="pl", step=6 * (i // per_step),
            param=params[i % len(params)],
            levelist=f"{levels[(i // len(params)) % len(levels)]}.{member}",
        )
        assert key == ref
        assert key.items == ref.items
        assert key.canonical() == ref.canonical()
        assert key.index_group() == ref.index_group()
        assert str(key) == str(ref)
        assert hash(key) == hash(ref)


#: small value pools, so that generated keys often coincide
_key_attrs = st.fixed_dictionaries(
    {k: st.sampled_from(["0", "1", "od"]) for k in ("class", "stream", "date", "time", "step", "param")},
    optional={k: st.sampled_from(["0", "1", "pl"]) for k in ("expver", "domain", "type", "levtype", "levelist")},
)


@settings(max_examples=200, deadline=None)
@given(a=_key_attrs, b=_key_attrs, order=st.randoms(use_true_random=False))
def test_keys_equal_exactly_when_index_strings_equal(a, b, order):
    items = list(b.items())
    order.shuffle(items)
    ka, kb = make_key(**a), FdbKey(items)
    assert (ka == kb) == (ka.canonical() == kb.canonical())
    if ka == kb:
        assert hash(ka) == hash(kb)
        assert ka.index_group() == kb.index_group()


# -- backends -------------------------------------------------------------------


def daos_env():
    cluster = Cluster(n_servers=4, n_clients=1, seed=0)
    pool = Pool(cluster)
    client = DaosClient(cluster, pool, cluster.clients[0])
    return cluster, FdbDaosBackend(client, proc_id=0)


def lustre_env():
    cluster = Cluster(n_servers=4, n_clients=1, seed=0)
    fs = LustreFilesystem(cluster)
    client = LustreClient(fs, cluster.clients[0])
    backend = FdbPosixBackend(
        client, proc_id=0, buffer_size=256 * KiB,
        create_kwargs={"stripe_count": 8, "stripe_size": 8 * MiB},
    )
    return cluster, backend


def ceph_env():
    cluster = Cluster(n_servers=4, n_clients=1, seed=0)
    ceph = CephCluster(cluster)
    client = RadosClient(ceph, cluster.clients[0])
    return cluster, FdbRadosBackend(client, proc_id=0)


@pytest.mark.parametrize("env_builder", [daos_env, lustre_env, ceph_env])
def test_archive_retrieve_roundtrip(env_builder):
    cluster, backend = env_builder()
    fdb = FDB(backend)
    keys = list(key_sequence(8))
    payloads = {k: bytes([i]) * (64 * KiB) for i, k in enumerate(keys)}

    def flow():
        yield from fdb.open(writer=True)
        for k in keys:
            yield from fdb.archive(k, data=payloads[k])
        yield from fdb.flush()
        out = {}
        for k in keys:
            out[k] = yield from fdb.retrieve(k)
        yield from fdb.close()
        return out

    out = drive(cluster, flow())
    assert out == payloads


@pytest.mark.parametrize("env_builder", [daos_env, lustre_env, ceph_env])
def test_retrieve_unknown_key(env_builder):
    cluster, backend = env_builder()
    fdb = FDB(backend)

    def flow():
        yield from fdb.open(writer=True)
        yield from fdb.retrieve(next(iter(key_sequence(1, member=99))))

    with pytest.raises(NotFoundError):
        drive(cluster, flow())


def test_facade_guards():
    cluster, backend = daos_env()
    fdb = FDB(backend)
    with pytest.raises(InvalidArgumentError):
        next(fdb.archive(next(iter(key_sequence(1)))))  # session not open

    def flow():
        yield from fdb.open(writer=False)
        yield from fdb.archive(next(iter(key_sequence(1))), nbytes=10)

    with pytest.raises(InvalidArgumentError):
        drive(cluster, flow())


def test_daos_backend_ten_kv_ops_per_field():
    """Paper: ~10 KV operations per field archived."""
    b = FdbDaosBackend
    assert b.ROOT_PUTS + b.CATALOGUE_PUTS + b.INDEX_PUTS == 10
    assert b.ROOT_GETS + b.CATALOGUE_GETS + b.INDEX_GETS == 10


def test_daos_backend_counts_kv_traffic():
    cluster, backend = daos_env()
    fdb = FDB(backend)

    def flow():
        yield from fdb.open(writer=True)
        yield from fdb.archive(next(iter(key_sequence(1))), nbytes=MiB)
        return None

    drive(cluster, flow())
    # the shared + exclusive KVs each hold entries now
    assert len(backend.root_kv) >= 1
    assert len(backend.catalogue_kv) >= 1
    assert len(backend.index_kv) >= 8


def test_posix_backend_buffers_until_threshold():
    cluster, backend = lustre_env()
    fdb = FDB(backend)
    keys = list(key_sequence(4))

    def flow():
        yield from fdb.open(writer=True)
        # 3 x 64 KiB < 256 KiB buffer: nothing hits the data file yet
        for k in keys[:3]:
            yield from fdb.archive(k, data=b"f" * (64 * KiB))
        size_before = backend._data_fh.inode.size
        yield from fdb.archive(keys[3], data=b"f" * (64 * KiB))
        size_after = backend._data_fh.inode.size
        return size_before, size_after

    size_before, size_after = drive(cluster, flow())
    assert size_before == 0  # still buffered in client memory
    assert size_after == 4 * 64 * KiB  # one large flush wrote everything


def test_posix_backend_reads_reopen_files():
    """Every retrieve opens (and closes) index + data files: 2 opens,
    i.e. ~4 MDS requests per field."""
    cluster, backend = lustre_env()
    fdb = FDB(backend)
    keys = list(key_sequence(5))
    mds_link = backend.client.fs.mds.link

    def flow():
        yield from fdb.open(writer=True)
        for k in keys:
            yield from fdb.archive(k, data=b"x" * (64 * KiB))
        yield from fdb.flush()
        before = mds_link.busy_integral
        for k in keys:
            yield from fdb.retrieve(k)
        return mds_link.busy_integral - before

    mds_ops = drive(cluster, flow())
    assert mds_ops == pytest.approx(5 * 4, rel=0.01)  # 4 MDS requests/field


def test_rados_backend_object_per_field():
    cluster, backend = ceph_env()
    fdb = FDB(backend)
    keys = list(key_sequence(6))

    def flow():
        yield from fdb.open(writer=True)
        for k in keys:
            yield from fdb.archive(k, nbytes=MiB)
        return None

    drive(cluster, flow())
    data_objects = [n for n in backend.pool.object_sizes if n.startswith("fdb.0.")]
    assert len(data_objects) == 6


def test_rados_backend_objects_spread_over_osds():
    cluster, backend = ceph_env()
    fdb = FDB(backend)
    keys = list(key_sequence(64))

    def flow():
        yield from fdb.open(writer=True)
        for k in keys:
            yield from fdb.archive(k, nbytes=4 * KiB)
        return None

    drive(cluster, flow())
    primaries = {
        backend.pool.pgmap.primary(n).index
        for n in backend.pool.object_sizes
        if n.startswith("fdb.0.")
    }
    assert len(primaries) > 16  # 64 objects land on many of the 64 OSDs


def test_fdb_close_flushes_pending_writes():
    cluster, backend = lustre_env()
    fdb = FDB(backend)
    key = next(iter(key_sequence(1)))

    def flow():
        yield from fdb.open(writer=True)
        yield from fdb.archive(key, data=b"z" * (16 * KiB))
        yield from fdb.close()
        return backend._index[key.canonical()][1]

    assert drive(cluster, flow()) == 16 * KiB


def test_readonly_session_close_does_not_flush():
    cluster, backend = daos_env()
    fdb = FDB(backend)

    def flow():
        yield from fdb.open(writer=False)
        yield from fdb.close()
        return fdb._session_open

    assert drive(cluster, flow()) is False


def test_archive_requires_payload_info():
    cluster, backend = daos_env()
    fdb = FDB(backend)

    def flow():
        yield from fdb.open(writer=True)
        yield from fdb.archive(next(iter(key_sequence(1))))

    with pytest.raises(InvalidArgumentError):
        drive(cluster, flow())


def test_counters_track_operations():
    cluster, backend = daos_env()
    fdb = FDB(backend)
    keys = list(key_sequence(3))

    def flow():
        yield from fdb.open(writer=True)
        for k in keys:
            yield from fdb.archive(k, nbytes=1024)
        for k in keys[:2]:
            yield from fdb.retrieve(k)
        return fdb.archived, fdb.retrieved

    assert drive(cluster, flow()) == (3, 2)


def test_rados_aggregate_read_reuses_write_placement(monkeypatch):
    """The aggregate read phase charges each OSD exactly what re-hashing
    every object name would, and hashes only the index objects again."""
    from repro.ceph.placement import PgMap
    from repro.workloads.common import CephEnv, WorkloadConfig
    from repro.workloads.fdb_hammer import _FdbRadosRunner, run_fdb_hammer

    def run(rehash):
        log = []
        pg_of, bulk, batch_flow = PgMap.pg_of, RadosClient.bulk_transfer, _FdbRadosRunner.batch_flow

        def spy_pg_of(pgmap, name):
            log.append(name)
            return pg_of(pgmap, name)

        def spy_bulk(client, kind, per_osd, ops_by_osd=None, **kwargs):
            log.append((
                kind,
                [(osd.index, b) for osd, b in per_osd.items()],
                [(osd.index, n) for osd, n in ops_by_osd.items()],
            ))
            return bulk(client, kind, per_osd, ops_by_osd=ops_by_osd, **kwargs)

        def forgetful(runner, node, states, phase, ops):
            if phase == "read":
                for state in states:
                    state["placed"] = {}
            return batch_flow(runner, node, states, phase, ops)

        with monkeypatch.context() as m:
            m.setattr(PgMap, "pg_of", spy_pg_of)
            m.setattr(RadosClient, "bulk_transfer", spy_bulk)
            if rehash:
                m.setattr(_FdbRadosRunner, "batch_flow", forgetful)
            cfg = WorkloadConfig(n_client_nodes=2, ppn=2, ops_per_process=16, op_size=MiB,
                                 mode="aggregate")
            run_fdb_hammer(CephEnv(Cluster(n_servers=4, n_clients=2, seed=0)), cfg, "RADOS")
        return log

    def read_hashes(log):
        names, pending = [], []
        for entry in log:
            if isinstance(entry, tuple):
                if entry[0] == "read":
                    names += pending
                pending = []
            else:
                pending.append(entry)
        return names

    reused, rehashed = run(rehash=False), run(rehash=True)
    transfers = [e for e in reused if isinstance(e, tuple)]
    assert {kind for kind, _, _ in transfers} == {"write", "read"}
    assert transfers == [e for e in rehashed if isinstance(e, tuple)]
    hashed = read_hashes(reused)
    assert hashed and all(name.startswith("fdb.index.") for name in hashed)
    assert any(name.startswith("fdb.0.") for name in read_hashes(rehashed))
