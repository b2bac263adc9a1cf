"""Cross-module integration scenarios: full stacks exercised end to end
with real (materialised) data."""

from repro.daos import DaosClient, Pool
from repro.dfs import Dfs
from repro.dfuse import DfuseMount, InterceptedMount
from repro.fdb import FDB, FdbDaosBackend, key_sequence
from repro.hardware import Cluster
from repro.hdf5 import Hdf5PosixFile
from repro.units import KiB, MiB


def drive(cluster, gen):
    proc = cluster.sim.process(gen)
    cluster.sim.run()
    return proc.result


def test_full_posix_stack_data_integrity():
    """dfuse -> dfs -> daos arrays -> targets, with EC files, verifying
    every byte through the whole stack after a target failure."""
    cluster = Cluster(n_servers=4, n_clients=1, seed=5)
    pool = Pool(cluster)
    client = DaosClient(cluster, pool, cluster.clients[0])
    cont = pool.create_container("stack", materialize=True)
    dfs = Dfs(client, cont, file_class="EC_2P1", chunk_size=16 * KiB)
    mount = DfuseMount(dfs, cluster.clients[0])
    il = InterceptedMount(mount)
    payload = bytes((i * 31) % 256 for i in range(256 * KiB))

    def flow():
        yield from mount.mount()
        yield from mount.mkdir("/data")
        fh = yield from mount.creat("/data/blob.bin")
        yield from il.write(fh, 0, payload)
        yield from mount.close(fh)
        # kill one target under the file, then read through the IL
        victim = fh.array.groups[0][0]
        pool.fail_target(victim.global_index)
        fh2 = yield from mount.open("/data/blob.bin")
        data = yield from il.read(fh2, 0, len(payload))
        return data

    assert drive(cluster, flow()) == payload


def test_hdf5_file_on_dfuse_roundtrip_with_data():
    cluster = Cluster(n_servers=2, n_clients=1, seed=0)
    pool = Pool(cluster)
    client = DaosClient(cluster, pool, cluster.clients[0])
    cont = pool.create_container("h5", materialize=True)
    dfs = Dfs(client, cont, chunk_size=64 * KiB)
    mount = DfuseMount(dfs, cluster.clients[0])
    ops = {i: bytes([i]) * (32 * KiB) for i in range(4)}

    def flow():
        yield from mount.mount()
        h5 = Hdf5PosixFile(mount, "/sim.h5")
        yield from h5.create()
        for i, data in ops.items():
            yield from h5.write_op(i, len(data), data=data)
        yield from h5.close()
        h5r = Hdf5PosixFile(mount, "/sim.h5")
        yield from h5r.open()
        out = {}
        for i in ops:
            out[i] = yield from h5r.read_op(i, 32 * KiB)
        yield from h5r.close()
        return out

    assert drive(cluster, flow()) == ops


def test_many_fdb_processes_share_catalogue():
    """Several concurrent FDB sessions archive disjoint field sets into
    one container; each retrieves its own and one foreign field."""
    cluster = Cluster(n_servers=4, n_clients=2, seed=9)
    pool = Pool(cluster)
    n_procs = 4
    fields = 6
    payloads = {}
    fdbs = []
    for proc in range(n_procs):
        node = cluster.clients[proc % len(cluster.clients)]
        client = DaosClient(cluster, pool, node)
        fdbs.append(FDB(FdbDaosBackend(client, proc_id=proc)))
    done = []

    def writer(proc):
        fdb = fdbs[proc]
        yield from fdb.open(writer=True)
        for key in key_sequence(fields, member=proc):
            blob = bytes([proc * 16 + 1]) * (32 * KiB)
            payloads[key] = blob
            yield from fdb.archive(key, data=blob)
        yield from fdb.flush()
        done.append(proc)

    for proc in range(n_procs):
        cluster.sim.process(writer(proc))
    cluster.sim.run()
    assert sorted(done) == list(range(n_procs))

    def reader(proc):
        fdb = fdbs[proc]
        for key in key_sequence(fields, member=proc):
            data = yield from fdb.retrieve(key)
            assert data == payloads[key]

    procs = [cluster.sim.process(reader(p)) for p in range(n_procs)]
    cluster.sim.run()
    for proc in procs:
        proc.result  # re-raise any failure
    # the shared root KV saw entries from every process
    assert len(fdbs[0].backend.root_kv) >= 1


def test_materialized_exact_ior_verifies_data():
    """Exact-mode IOR over libdfs with a materialising container: the
    read phase really fetches what the write phase stored."""
    from repro.workloads.common import DaosEnv, WorkloadConfig
    from repro.workloads.ior import run_ior

    cluster = Cluster(n_servers=2, n_clients=1, seed=0)
    env = DaosEnv(cluster)
    cfg = WorkloadConfig(
        n_client_nodes=1, ppn=2, ops_per_process=4, op_size=64 * KiB, mode="exact"
    )
    rec = run_ior(env, cfg, "DAOS")
    assert rec.get("write").bytes == rec.get("read").bytes == 2 * 4 * 64 * KiB


def test_target_failure_during_timed_run():
    """Kill a target in the middle of a timed replicated workload: all
    in-flight and subsequent I/O completes against the surviving
    replicas, and the pool reports the failure."""
    from repro.daos import DaosClient, Pool

    cluster = Cluster(n_servers=4, n_clients=1, seed=2)
    pool = Pool(cluster)
    client = DaosClient(cluster, pool, cluster.clients[0])
    payload = b"\xab" * (64 * KiB)
    outcome = {}

    def writer():
        cont = yield from client.create_container("under-fire", materialize=True)
        arr = yield from client.create_array(cont, oc="RP_2", chunk_size=16 * KiB)
        for i in range(16):
            yield from client.array_write(arr, i * len(payload), payload)
        data, _ = arr.read(0, 16 * len(payload))
        outcome["intact"] = data == payload * 16
        outcome["end"] = cluster.sim.now
        outcome["arr"] = arr

    proc = cluster.sim.process(writer())

    def saboteur():
        yield cluster.sim.timeout(0.0005)  # mid-run
        # kill a target currently holding replica data
        arr = outcome.get("arr")
        victim = pool.ring[0]
        pool.fail_target(victim.global_index)
        outcome["killed_at"] = cluster.sim.now

    cluster.sim.process(saboteur())
    cluster.sim.run()
    proc.result
    assert outcome["intact"]
    assert pool.query()["targets_alive"] == pool.n_targets - 1


def test_degraded_network_slows_transfers():
    """Halving a server NIC mid-flight stretches an ongoing read."""
    from repro.daos import DaosClient, Pool

    cluster = Cluster(n_servers=1, n_clients=1, seed=0)
    pool = Pool(cluster)
    client = DaosClient(cluster, pool, cluster.clients[0])
    n = 64 * MiB
    times = {}

    def reader():
        cont = yield from client.create_container("net", materialize=False)
        arr = yield from client.create_array(cont, oc="SX")
        yield from client.array_write(arr, 0, nbytes=n)
        t0 = cluster.sim.now
        yield from client.array_read(arr, 0, n)
        times["healthy"] = cluster.sim.now - t0
        # degrade the server's egress to half and read again
        link = cluster.servers[0].nic_tx
        cluster.net.set_capacity(link.name, link.capacity / 2)
        t1 = cluster.sim.now
        yield from client.array_read(arr, 0, n)
        times["degraded"] = cluster.sim.now - t1

    proc = cluster.sim.process(reader())
    cluster.sim.run()
    proc.result
    assert times["degraded"] > 1.5 * times["healthy"]


def test_mixed_workload_concurrency_stress():
    """Many concurrent exact-mode actors of different kinds on one pool:
    array writers, KV indexers, DFS clients, and a saboteur/rebuilder —
    shaking out scheduler races. Everything must complete and verify."""
    from repro.daos import DaosClient, Pool
    from repro.daos.rebuild import run_rebuild

    cluster = Cluster(n_servers=4, n_clients=2, seed=13)
    pool = Pool(cluster)
    cont_holder = {}
    finished = []
    n_actors = 24

    def bootstrap():
        client = DaosClient(cluster, pool, cluster.clients[0])
        cont_holder["cont"] = yield from client.create_container(
            "stress", materialize=True
        )
        for i in range(n_actors):
            cluster.sim.process(actor(i), name=f"actor{i}")
        cluster.sim.process(saboteur())

    def actor(i):
        node = cluster.clients[i % 2]
        client = DaosClient(cluster, pool, node, name=f"stress{i}")
        cont = cont_holder["cont"]
        if i % 3 == 0:
            arr = yield from client.create_array(cont, oc="RP_2", chunk_size=4 * KiB)
            payload = bytes([i]) * (16 * KiB)
            yield from client.array_write(arr, 0, payload)
            data = yield from client.array_read(arr, 0, len(payload))
            assert data == payload
        elif i % 3 == 1:
            kv = yield from client.create_kv(cont, oc="RP_2")
            for k in range(8):
                yield from client.kv_put(kv, f"a{i}.{k}", bytes([k]) * 64)
            for k in range(8):
                value = yield from client.kv_get(kv, f"a{i}.{k}")
                assert value == bytes([k]) * 64
        else:
            from repro.dfs import Dfs

            dfs = Dfs(client, cont, file_class="RP_2", chunk_size=4 * KiB)
            if dfs.container.properties.get("dfs_root_oid") is None:
                pass  # mount() below creates or opens the shared root
            yield from dfs.mount()
            fh = yield from dfs.create(f"/stress-{i}")
            yield from dfs.write(fh, 0, bytes([i]) * 8192)
            got = yield from dfs.read(fh, 0, 8192)
            assert got == bytes([i]) * 8192
        finished.append(i)

    def saboteur():
        yield cluster.sim.timeout(0.002)
        victim = pool.ring[7]
        pool.fail_target(victim.global_index)
        report = yield from run_rebuild(pool, victim)
        cont_holder["report"] = report

    cluster.sim.process(bootstrap())
    cluster.sim.run()
    assert sorted(finished) == list(range(n_actors))
    assert "report" in cont_holder
