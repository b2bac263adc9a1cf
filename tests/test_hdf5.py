"""HDF5 models: POSIX format overhead and the DAOS VOL."""

import pytest

from repro.daos import DaosClient, Pool
from repro.dfs import Dfs
from repro.dfuse import DfuseMount, InterceptedMount
from repro.errors import InvalidArgumentError, NotFoundError
from repro.hardware import Cluster
from repro.hdf5 import Hdf5DaosVol, Hdf5PosixFile, Hdf5PosixParams
from repro.units import KiB, MiB


def build_posix(n_servers=4):
    cluster = Cluster(n_servers=n_servers, n_clients=1, seed=0)
    pool = Pool(cluster)
    client = DaosClient(cluster, pool, cluster.clients[0])
    cont = pool.create_container("h5", materialize=False)
    dfs = Dfs(client, cont, chunk_size=MiB)
    mount = DfuseMount(dfs, cluster.clients[0])
    return cluster, mount


def build_vol(n_servers=4):
    cluster = Cluster(n_servers=n_servers, n_clients=1, seed=0)
    pool = Pool(cluster)
    client = DaosClient(cluster, pool, cluster.clients[0])
    return cluster, Hdf5DaosVol(client)


def drive(cluster, gen):
    proc = cluster.sim.process(gen)
    cluster.sim.run()
    return proc.result


# -- POSIX model --------------------------------------------------------------


def test_posix_create_write_read_cycle():
    cluster, mount = build_posix()

    def flow():
        yield from mount.mount()
        h5 = Hdf5PosixFile(mount, "/out.h5")
        yield from h5.create()
        for i in range(4):
            yield from h5.write_op(i, 64 * KiB)
        yield from h5.close()
        h5r = Hdf5PosixFile(mount, "/out.h5")
        yield from h5r.open()
        data = yield from h5r.read_op(2, 64 * KiB)
        yield from h5r.close()
        return len(data)

    assert drive(cluster, flow()) == 64 * KiB


def test_posix_ops_cost_more_than_plain(op_size=256 * KiB):
    """The HDF5 format's metadata I/O makes each op slower than a raw
    write of the same size through the same mount."""
    cluster, mount = build_posix()

    def flow():
        yield from mount.mount()
        h5 = Hdf5PosixFile(mount, "/a.h5")
        yield from h5.create()
        t0 = cluster.sim.now
        yield from h5.write_op(0, op_size)
        t_h5 = cluster.sim.now - t0
        raw = yield from mount.creat("/raw")
        t1 = cluster.sim.now
        yield from mount.write(raw, 0, nbytes=op_size)
        t_raw = cluster.sim.now - t1
        return t_h5, t_raw

    t_h5, t_raw = drive(cluster, flow())
    assert t_h5 > 1.5 * t_raw


def test_posix_metadata_goes_through_fuse_even_with_il():
    """With the IL, data bypasses FUSE but HDF5 metadata still pays the
    kernel crossing — the structural reason HDF5-on-DFUSE+IL lags IOR."""
    cluster, mount = build_posix()
    il = InterceptedMount(mount)

    def flow():
        yield from mount.mount()
        h5 = Hdf5PosixFile(mount, "/il.h5", data_mount=il)
        yield from h5.create()
        t0 = cluster.sim.now
        yield from h5.write_op(0, 64 * KiB)
        t_with_il = cluster.sim.now - t0
        h5b = Hdf5PosixFile(mount, "/noil.h5")
        yield from h5b.create()
        t1 = cluster.sim.now
        yield from h5b.write_op(0, 64 * KiB)
        t_without = cluster.sim.now - t1
        return t_with_il, t_without

    t_with_il, t_without = drive(cluster, flow())
    assert t_with_il < t_without  # IL helps the data part
    params = Hdf5PosixParams()
    min_md_cost = params.md_writes_per_op * mount.params.kernel_crossing
    assert t_with_il > min_md_cost  # but metadata still pays FUSE


def test_posix_unopened_rejected():
    cluster, mount = build_posix()

    def flow():
        yield from mount.mount()
        h5 = Hdf5PosixFile(mount, "/x.h5")
        yield from h5.write_op(0, KiB)

    with pytest.raises(InvalidArgumentError):
        drive(cluster, flow())


def test_posix_md_offsets_stay_in_region():
    cluster, mount = build_posix()
    h5 = Hdf5PosixFile(mount, "/y.h5")
    offsets = [h5._next_md_offset() for _ in range(10_000)]
    assert min(offsets) >= h5.params.superblock_size
    assert max(offsets) < h5.params.md_region_size


# -- DAOS VOL -------------------------------------------------------------------


def test_vol_container_per_file_and_object_per_op():
    cluster, vol = build_vol()

    def flow():
        f = yield from vol.create_file("proc0.h5")
        for i in range(5):
            yield from vol.write_op(f, i, 64 * KiB)
        yield from vol.close_file(f)
        return f

    f = drive(cluster, flow())
    assert len(f.objects) == 5
    assert f.container.pool.n_containers == 1
    assert len(f.container.objects) == 5


def test_vol_read_back():
    cluster, vol = build_vol()

    def flow():
        f = yield from vol.create_file("p.h5")
        yield from vol.write_op(f, 0, 32 * KiB)
        data = yield from vol.read_op(f, 0, 32 * KiB)
        return len(data)

    assert drive(cluster, flow()) == 32 * KiB


def test_vol_missing_dataset():
    cluster, vol = build_vol()

    def flow():
        f = yield from vol.create_file("p.h5")
        yield from vol.read_op(f, 99, KiB)

    with pytest.raises(NotFoundError):
        drive(cluster, flow())


def test_vol_ops_funnel_through_pool_service():
    """Aggregate VOL write throughput is bounded by pool-service capacity
    even when data links have headroom (the paper's HDF5/libdaos ceiling)."""
    cluster = Cluster(n_servers=4, n_clients=2, seed=0)
    pool = Pool(cluster)
    # shrink the pool service so the ceiling shows with few ops
    cluster.net.set_capacity(pool.rsvc_link.name, 200.0)  # ops/s
    vols = [
        Hdf5DaosVol(DaosClient(cluster, pool, node)) for node in cluster.clients
    ]
    ops_per_proc = 30
    done = {}

    def writer(i):
        f = yield from vols[i].create_file(f"p{i}.h5")
        for k in range(ops_per_proc):
            yield from vols[i].write_op(f, k, 4 * KiB)
        done[i] = cluster.sim.now

    for i in range(2):
        cluster.sim.process(writer(i))
    cluster.sim.run()
    elapsed = max(done.values())
    achieved_creates = 2 * ops_per_proc / elapsed
    # each write op charges ~2 rsvc ops (create md + vol tax)
    assert achieved_creates <= 200.0 * 1.05
