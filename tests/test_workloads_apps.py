"""Field I/O, fdb-hammer, and raw-bandwidth probe workloads."""

import hashlib
import json

import pytest

from repro.ceph.rados import RadosClient
from repro.daos.client import DaosClient
from repro.errors import ConfigError
from repro.hardware import Cluster
from repro.lustre.client import LustreClient
from repro.units import GiB, Gbps, MiB
from repro.workloads.common import CephEnv, DaosEnv, LustreEnv, WorkloadConfig
from repro.workloads.fdb_hammer import run_fdb_hammer
from repro.workloads.fieldio import run_fieldio
from repro.workloads.ior import run_ior
from repro.workloads.rawio import measure_dd, measure_iperf


def cfg(**kwargs):
    defaults = dict(
        n_client_nodes=2, ppn=2, ops_per_process=8, op_size=MiB, mode="aggregate"
    )
    defaults.update(kwargs)
    return WorkloadConfig(**defaults)


# -- raw I/O probes (paper Sec. III-A) -----------------------------------------


def test_dd_reproduces_paper_device_numbers():
    cluster = Cluster(n_servers=1, n_clients=0, seed=0)
    result = measure_dd(cluster, blocks=5)
    assert result.write_bw == pytest.approx(3.86 * GiB, rel=0.01)
    assert result.read_bw == pytest.approx(7.0 * GiB, rel=0.01)


def test_iperf_reproduces_line_rate():
    cluster = Cluster(n_servers=1, n_clients=1, seed=0)
    bw = measure_iperf(cluster)
    assert bw == pytest.approx(50 * Gbps, rel=0.01)


# -- Field I/O --------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["exact", "aggregate"])
def test_fieldio_runs(mode):
    env = DaosEnv(Cluster(n_servers=4, n_clients=2, seed=0))
    rec = run_fieldio(env, cfg(mode=mode))
    assert rec.bandwidth("write") > 0
    assert rec.bandwidth("read") > 0
    assert rec.get("write").bytes == 2 * 2 * 8 * MiB


def test_fieldio_rejects_wrong_env():
    cluster = Cluster(n_servers=2, n_clients=2)
    with pytest.raises(ConfigError):
        run_fieldio(LustreEnv(cluster), cfg())


def test_fieldio_exact_writes_ten_kv_entries_per_field():
    env = DaosEnv(Cluster(n_servers=4, n_clients=1, seed=0))
    run_fieldio(env, cfg(n_client_nodes=1, ppn=1, ops_per_process=4, mode="exact"))
    cont = env.pool.get_container("fieldio")
    from repro.daos.kv import DaosKV

    kvs = [o for o in cont.objects.values() if isinstance(o, DaosKV)]
    total_entries = sum(len(kv) for kv in kvs)
    assert total_entries == 4 * 10  # 10 index entries per field


def test_fieldio_read_slower_than_fdb_read():
    """Paper Sec. III-B: Field I/O's per-read size check makes its read
    path scale worse than fdb-hammer's."""
    c = cfg(ppn=4, ops_per_process=16)
    env1 = DaosEnv(Cluster(n_servers=4, n_clients=2, seed=0))
    fieldio = run_fieldio(env1, c)
    env2 = DaosEnv(Cluster(n_servers=4, n_clients=2, seed=0))
    fdb = run_fdb_hammer(env2, c, "DAOS")
    assert fieldio.bandwidth("read") < fdb.bandwidth("read")


# -- fdb-hammer -----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["exact", "aggregate"])
def test_fdb_hammer_daos(mode):
    env = DaosEnv(Cluster(n_servers=4, n_clients=2, seed=0))
    rec = run_fdb_hammer(env, cfg(mode=mode), "DAOS")
    assert rec.bandwidth("write") > 0
    assert rec.bandwidth("read") > 0


@pytest.mark.parametrize("mode", ["exact", "aggregate"])
def test_fdb_hammer_lustre(mode):
    env = LustreEnv(Cluster(n_servers=4, n_clients=2, seed=0))
    rec = run_fdb_hammer(env, cfg(mode=mode), "LUSTRE")
    assert rec.bandwidth("write") > 0
    assert rec.bandwidth("read") > 0


@pytest.mark.parametrize("mode", ["exact", "aggregate"])
def test_fdb_hammer_rados(mode):
    env = CephEnv(Cluster(n_servers=4, n_clients=2, seed=0))
    rec = run_fdb_hammer(env, cfg(mode=mode), "RADOS")
    assert rec.bandwidth("write") > 0
    assert rec.bandwidth("read") > 0


_FDB_BACKEND_ENVS = {
    "DAOS": (DaosEnv, DaosClient),
    "LUSTRE": (LustreEnv, LustreClient),
    "RADOS": (CephEnv, RadosClient),
}

#: aggregate fdb-hammer with ``cfg()`` on 4 servers / 2 clients, seed 0:
#: the sha256 (first 16 hex digits) of every bulk transfer's arguments —
#: per-target bytes and per-engine/-OST/-OSD ops, keyed by name — and
#: the exact write/read bandwidths, as recorded when every rank still
#: built its key sweep in aggregate mode
_FDB_AGGREGATE_RECORD = {
    "DAOS": ("d7b82b642d122b90", 3138851586.049399, 3348451533.0484085),
    "LUSTRE": ("db0d39da8d7b137e", 7483969784.435085, 4798961840.409443),
    "RADOS": ("ae3efcdb7d02b1a4", 1281009576.6678402, 2327634526.5378003),
}


def _by_name(value):
    if isinstance(value, dict):
        return sorted((k.name, v) for k, v in value.items())
    return value


@pytest.mark.parametrize("backend", sorted(_FDB_BACKEND_ENVS))
def test_fdb_hammer_aggregate_builds_no_keys(backend, monkeypatch):
    """Aggregate batch flows are sized from counts: with the key sweep
    unavailable, every backend still charges the same bytes and ops to
    the same targets and measures the same bandwidths."""
    import repro.fdb.schema
    import repro.workloads.fdb_hammer

    def no_keys(*args, **kwargs):
        raise AssertionError("aggregate fdb-hammer built a key sweep")

    monkeypatch.setattr(repro.fdb.schema, "key_sequence", no_keys)
    monkeypatch.setattr(repro.workloads.fdb_hammer, "key_sequence", no_keys)
    env_cls, client_cls = _FDB_BACKEND_ENVS[backend]
    transfers = []
    bulk_transfer = client_cls.bulk_transfer

    def spy(client, *args, **kwargs):
        transfers.append([_by_name(a) for a in args]
                         + [[k, _by_name(v)] for k, v in sorted(kwargs.items())])
        return bulk_transfer(client, *args, **kwargs)

    monkeypatch.setattr(client_cls, "bulk_transfer", spy)
    env = env_cls(Cluster(n_servers=4, n_clients=2, seed=0))
    rec = run_fdb_hammer(env, cfg(), backend)
    digest = hashlib.sha256(json.dumps(transfers, sort_keys=True).encode()).hexdigest()[:16]
    assert (digest, rec.bandwidth("write"), rec.bandwidth("read")) == _FDB_AGGREGATE_RECORD[backend]
    if backend == "RADOS":
        c = cfg()
        sizes = env.ceph.pools["fdb"].object_sizes
        assert len(sizes) == c.total_processes * c.ops_per_process
        assert set(sizes.values()) == {c.op_size}


@pytest.mark.parametrize("backend", sorted(_FDB_BACKEND_ENVS))
def test_fdb_hammer_exact_archives_and_retrieves_every_key(backend, monkeypatch):
    from repro.fdb import FDB
    from repro.fdb.schema import key_sequence

    archived, retrieved = [], []
    archive, retrieve = FDB.archive, FDB.retrieve

    def spy_archive(fdb, key, *args, **kwargs):
        archived.append(key)
        return archive(fdb, key, *args, **kwargs)

    def spy_retrieve(fdb, key):
        retrieved.append(key)
        return retrieve(fdb, key)

    monkeypatch.setattr(FDB, "archive", spy_archive)
    monkeypatch.setattr(FDB, "retrieve", spy_retrieve)
    env_cls, _ = _FDB_BACKEND_ENVS[backend]
    c = cfg(mode="exact")
    rec = run_fdb_hammer(env_cls(Cluster(n_servers=4, n_clients=2, seed=0)), c, backend)
    every_key = [key for rank in range(c.total_processes)
                 for key in key_sequence(c.ops_per_process, member=rank)]
    assert sorted(map(str, archived)) == sorted(map(str, retrieved)) == sorted(map(str, every_key))
    assert rec.bandwidth("read") > 0


def test_fdb_hammer_unknown_backend():
    env = DaosEnv(Cluster(n_servers=2, n_clients=2))
    with pytest.raises(ConfigError):
        run_fdb_hammer(env, cfg(), "NFS")


def test_fdb_hammer_env_mismatch():
    env = DaosEnv(Cluster(n_servers=2, n_clients=2))
    with pytest.raises(ConfigError):
        run_fdb_hammer(env, cfg(), "RADOS")


def test_fdb_lustre_write_fast_read_mds_bound():
    """Paper Fig. 7 shape: buffered writes near IOR; reads MDS-limited."""
    c = cfg(n_client_nodes=2, ppn=16, ops_per_process=64)
    env = LustreEnv(Cluster(n_servers=2, n_clients=2, seed=0))
    fdb = run_fdb_hammer(env, c, "LUSTRE")
    env2 = LustreEnv(Cluster(n_servers=2, n_clients=2, seed=0))
    ior = run_ior(env2, c, "LUSTRE")
    # write within ~30% of IOR
    assert fdb.bandwidth("write") > 0.6 * ior.bandwidth("write")
    # read clearly below IOR's
    assert fdb.bandwidth("read") < 0.8 * ior.bandwidth("read")


def test_fdb_daos_beats_fdb_lustre_on_read():
    """Paper Fig. 9 shape: small-I/O reads favour DAOS over Lustre —
    once there are enough clients to push the single MDS to saturation
    (the paper used up to 32 client nodes)."""
    c = cfg(n_client_nodes=16, ppn=32, ops_per_process=64)
    daos = run_fdb_hammer(DaosEnv(Cluster(16, 16, seed=0)), c, "DAOS")
    lustre = run_fdb_hammer(LustreEnv(Cluster(16, 16, seed=0)), c, "LUSTRE")
    assert daos.bandwidth("read") > 1.3 * lustre.bandwidth("read")
    # and the Lustre read ceiling sits near the paper's ~40 GiB/s
    assert lustre.bandwidth("read") == pytest.approx(40 * GiB, rel=0.3)


def test_fdb_ceph_write_efficiency_ceiling():
    """Paper Fig. 8 shape: fdb on Ceph tops out near 2/3 of the
    write roofline."""
    c = cfg(n_client_nodes=2, ppn=32, ops_per_process=64, batches=1)
    env = CephEnv(Cluster(n_servers=2, n_clients=2, seed=0))
    rec = run_fdb_hammer(env, c, "RADOS")
    roofline = 2 * 3.86 * GiB
    w = rec.bandwidth("write")
    assert w <= 0.72 * roofline
    assert w >= 0.45 * roofline
