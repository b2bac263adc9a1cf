"""IOR workload: all APIs, both modes, physics checks."""

import pytest

from repro.errors import ConfigError
from repro.hardware import Cluster
from repro.units import GiB, KiB, MiB
from repro.workloads.common import CephEnv, DaosEnv, LustreEnv, WorkloadConfig
from repro.workloads.ior import IOR_APIS, run_ior


def daos_env(n_servers=4, n_clients=2, seed=0):
    return DaosEnv(Cluster(n_servers=n_servers, n_clients=n_clients, seed=seed))


def small_cfg(**kwargs):
    defaults = dict(
        n_client_nodes=2, ppn=2, ops_per_process=8, op_size=MiB, mode="aggregate"
    )
    defaults.update(kwargs)
    return WorkloadConfig(**defaults)


DAOS_APIS = ("DAOS", "DFS", "POSIX", "POSIX+IL", "HDF5", "HDF5-DAOS")


@pytest.mark.parametrize("api", DAOS_APIS)
@pytest.mark.parametrize("mode", ["exact", "aggregate"])
def test_ior_daos_apis_run_both_modes(api, mode):
    env = daos_env()
    rec = run_ior(env, small_cfg(mode=mode), api)
    for phase in ("write", "read"):
        stats = rec.get(phase)
        assert stats is not None, f"{api}/{mode} missing {phase}"
        assert stats.bytes == 2 * 2 * 8 * MiB
        assert stats.bandwidth > 0


@pytest.mark.parametrize("mode", ["exact", "aggregate"])
def test_ior_lustre_runs(mode):
    cluster = Cluster(n_servers=4, n_clients=2, seed=0)
    env = LustreEnv(cluster)
    rec = run_ior(env, small_cfg(mode=mode), "LUSTRE")
    assert rec.bandwidth("write") > 0
    assert rec.bandwidth("read") > 0


@pytest.mark.parametrize("mode", ["exact", "aggregate"])
def test_ior_rados_runs(mode):
    cluster = Cluster(n_servers=4, n_clients=2, seed=0)
    env = CephEnv(cluster)
    rec = run_ior(env, small_cfg(mode=mode), "RADOS")
    assert rec.bandwidth("write") > 0
    assert rec.bandwidth("read") > 0


def test_unknown_api_rejected():
    with pytest.raises(ConfigError):
        run_ior(daos_env(), small_cfg(), "NFS")


def test_env_type_mismatch_rejected():
    cluster = Cluster(n_servers=2, n_clients=2)
    with pytest.raises(ConfigError):
        run_ior(LustreEnv(cluster), small_cfg(), "DAOS")


def test_rados_object_cap_enforced():
    cluster = Cluster(n_servers=2, n_clients=1, seed=0)
    env = CephEnv(cluster)
    cfg = small_cfg(n_client_nodes=1, ppn=1, ops_per_process=200, op_size=MiB)
    with pytest.raises(ConfigError, match="object-size cap"):
        run_ior(env, cfg, "RADOS")


def test_exact_and_aggregate_agree_daos_at_saturation():
    """The aggregate fast path must land near the exact per-op model when
    the system is saturated (the regime the paper's figures live in; at
    low concurrency exact mode resolves per-op collisions the aggregate
    lump necessarily smooths over)."""

    def bw(mode):
        env = daos_env(n_servers=1, n_clients=2, seed=1)
        cfg = small_cfg(mode=mode, ppn=8, ops_per_process=12, batches=2)
        rec = run_ior(env, cfg, "DAOS")
        return rec.bandwidth("write"), rec.bandwidth("read")

    w_exact, r_exact = bw("exact")
    w_agg, r_agg = bw("aggregate")
    assert w_agg == pytest.approx(w_exact, rel=0.25)
    assert r_agg == pytest.approx(r_exact, rel=0.25)


def test_more_processes_scale_bandwidth_until_roofline():
    env = daos_env(n_servers=4, n_clients=2, seed=0)
    rec1 = run_ior(env, small_cfg(ppn=1), "DAOS")
    env2 = daos_env(n_servers=4, n_clients=2, seed=0)
    rec8 = run_ior(env2, small_cfg(ppn=8), "DAOS")
    assert rec8.bandwidth("write") > rec1.bandwidth("write")


def test_write_bounded_by_roofline():
    env = daos_env(n_servers=2, n_clients=2, seed=0)
    cfg = small_cfg(ppn=16, ops_per_process=16)
    rec = run_ior(env, cfg, "DAOS")
    roofline = 2 * 3.86 * GiB
    assert rec.bandwidth("write") <= roofline
    assert rec.bandwidth("write") >= 0.7 * roofline  # close to it


def test_read_faster_than_write():
    env = daos_env(n_servers=2, n_clients=2, seed=0)
    rec = run_ior(env, small_cfg(ppn=16, ops_per_process=16), "DAOS")
    assert rec.bandwidth("read") > rec.bandwidth("write")


def test_dfuse_il_beats_dfuse_at_small_io():
    """Paper Fig. 2 shape: at 1 KiB, POSIX+IL reaches far higher IOPS."""

    def iops(api):
        env = daos_env(n_servers=4, n_clients=2, seed=0)
        cfg = small_cfg(ppn=8, ops_per_process=32, op_size=KiB, read_phase=False)
        rec = run_ior(env, cfg, api)
        return rec.iops("write")

    assert iops("POSIX+IL") > 1.3 * iops("POSIX")


def test_hdf5_slower_than_plain_posix_il():
    """Paper Fig. 3 shape: HDF5 on DFUSE+IL below plain IOR."""

    def bw(api):
        env = daos_env(n_servers=4, n_clients=2, seed=0)
        rec = run_ior(env, small_cfg(ppn=8, ops_per_process=16), api)
        return rec.bandwidth("write")

    assert bw("HDF5") < 0.75 * bw("POSIX+IL")


def test_hdf5_daos_containers_per_process():
    env = daos_env()
    cfg = small_cfg(mode="exact", ops_per_process=4)
    run_ior(env, cfg, "HDF5-DAOS")
    # one container per rank + no shared ior container
    assert env.pool.n_containers == cfg.total_processes


def test_recorder_can_be_supplied():
    from repro.sim.stats import PhaseRecorder

    env = daos_env()
    rec = PhaseRecorder()
    out = run_ior(env, small_cfg(), "DAOS", recorder=rec)
    assert out is rec


def test_write_only_and_read_only_phases():
    env = daos_env()
    rec = run_ior(env, small_cfg(read_phase=False), "DAOS")
    assert rec.get("read") is None
    # read-only runs still need data written first; use write+read then
    # compare a fresh write-only window
    assert rec.bandwidth("write") > 0


# -- shared-file layout (paper Sec. II-A: "a single shared file") ---------------


@pytest.mark.parametrize("api", ["DAOS", "DFS", "POSIX", "POSIX+IL"])
@pytest.mark.parametrize("mode", ["exact", "aggregate"])
def test_shared_file_mode_runs(api, mode):
    env = daos_env()
    cfg = small_cfg(mode=mode, shared_file=True)
    rec = run_ior(env, cfg, api)
    assert rec.get("write").bytes == 2 * 2 * 8 * MiB
    assert rec.bandwidth("read") > 0


def test_shared_file_single_object_created():
    env = daos_env()
    run_ior(env, small_cfg(mode="exact", shared_file=True), "DAOS")
    cont = env.pool.get_container("ior-daos")
    assert len(cont.objects) == 1  # one shared array for all ranks


def test_shared_file_segments_disjoint():
    """Each rank owns its own segment: total size = procs x blocksize."""
    env = daos_env()
    cfg = small_cfg(mode="exact", shared_file=True)
    run_ior(env, cfg, "DAOS")
    cont = env.pool.get_container("ior-daos")
    (arr,) = cont.objects.values()
    assert arr.size() == cfg.total_processes * cfg.bytes_per_process


@pytest.mark.parametrize("mode", ["exact", "aggregate"])
def test_shared_file_lustre(mode):
    cluster = Cluster(n_servers=4, n_clients=2, seed=0)
    env = LustreEnv(cluster)
    rec = run_ior(env, small_cfg(mode=mode, shared_file=True), "LUSTRE")
    assert rec.bandwidth("write") > 0
    inode = env.fs.mds.lookup("/ior.shared")
    assert inode.size > 0


def test_shared_file_unsupported_apis_rejected():
    env = daos_env()
    with pytest.raises(ConfigError, match="shared-file"):
        run_ior(env, small_cfg(shared_file=True), "HDF5-DAOS")
    cluster = Cluster(n_servers=2, n_clients=2, seed=0)
    with pytest.raises(ConfigError, match="shared-file"):
        run_ior(CephEnv(cluster), small_cfg(shared_file=True), "RADOS")


@pytest.mark.parametrize("mode", ["aggregate", "exact"])
@pytest.mark.parametrize("oclass, factor", [("SX", 1.0), ("RP_2", 2.0), ("EC_2P1", 1.5)])
def test_ior_daos_ssd_bytes_conserve_redundancy(oclass, factor, mode):
    """Backend SSD bytes equal the bytes written times the object
    class's redundancy factor: the SSD write links' busy integrals,
    scaled back by the protocol efficiency, account for every byte."""
    cluster = Cluster(n_servers=4, n_clients=2, seed=0)
    env = DaosEnv(cluster, jitter_sigma=0.0)
    cfg = small_cfg(
        ppn=4, mode=mode, jitter_sigma=0.0, object_class=oclass, read_phase=False
    )
    written = run_ior(env, cfg, "DAOS").get("write").bytes
    assert written == 2 * 4 * 8 * MiB
    ssd_bytes = sum(
        server.ssd_agg_w.busy_integral for server in cluster.servers
    ) * env.pool.params.protocol_efficiency
    assert ssd_bytes == pytest.approx(written * factor, rel=1e-12)
