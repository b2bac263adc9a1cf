"""IOR with every backend the paper exercises.

Paper Section II-A: IOR's "concurrent processes create a file or object
each, wait for each other, and commence issuing a sequence of write or
read operations" — the reference configuration here is file-per-process,
``ops_per_process`` sequential operations of ``op_size`` each.

Supported APIs (the series of Figs. 1-6):

=============  ==============================================================
``DAOS``       libdaos Arrays (one Array per process)
``DFS``        libdfs files (direct library calls, no FUSE)
``POSIX``      POSIX through a DFUSE mount
``POSIX+IL``   POSIX through DFUSE with the interception library
``HDF5``       IOR's HDF5 backend on POSIX via DFUSE+IL (paper Fig. 3a/b)
``HDF5-DAOS``  IOR's HDF5 backend with the DAOS VOL adaptor (Fig. 3c/d)
``LUSTRE``     POSIX on a Lustre client
``RADOS``      librados objects on Ceph (one object per process, Sec III-F)
=============  ==============================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, Optional, Sequence, Tuple

import numpy as np

from repro.ceph.rados import CephPool
from repro.daos.array import DaosArray
from repro.daos.kv import DaosKV
from repro.daos.obj import first_appearance
from repro.daos.pool import Pool, Target
from repro.errors import ConfigError, NotFoundError
from repro.hdf5.daos_vol import Hdf5DaosVol, Hdf5VolParams
from repro.hdf5.posix import Hdf5PosixFile, Hdf5PosixParams
from repro.sim.stats import PhaseRecorder
from repro.units import MiB, left_sum
from repro.workloads.common import (
    CephEnv,
    DaosEnv,
    LustreEnv,
    PhasedRunner,
    WorkloadConfig,
    read_stream_cap,
)
from repro.workloads.mpi import Rank, RankWorld

__all__ = ["IOR_APIS", "run_ior"]

IOR_APIS = ("DAOS", "DFS", "POSIX", "POSIX+IL", "HDF5", "HDF5-DAOS", "LUSTRE", "RADOS")


def uniform_target_charges(pool: Pool, nbytes: float) -> Dict[Target, float]:
    """Spread bytes uniformly over all live targets (SX traffic)."""
    targets = pool.alive_targets()
    share = nbytes / len(targets)
    return {t: share for t in targets}


if TYPE_CHECKING:
    from numpy.typing import NDArray

    #: per-target charges as parallel (ring index, amount) arrays
    ChargeProfile = Tuple[NDArray[np.intp], NDArray[np.float64]]


def charge_profile(charges: Dict[Target, float]) -> ChargeProfile:
    """A per-target charge dict as parallel (ring index, amount) arrays,
    in the dict's order."""
    idx = np.fromiter((t.global_index for t in charges), dtype=np.intp, count=len(charges))
    return idx, np.fromiter(charges.values(), dtype=np.float64, count=len(charges))


def engine_profile(ops: Dict[Any, float]) -> ChargeProfile:
    """A per-engine op dict as parallel (engine index, ops) arrays, in
    the dict's order."""
    idx = np.fromiter((e.index for e in ops), dtype=np.intp, count=len(ops))
    return idx, np.fromiter(ops.values(), dtype=np.float64, count=len(ops))


def merge_charges(
    keys: Sequence[Any],
    profiles: Sequence[ChargeProfile],
    scale: float = 1.0,
) -> Dict[Any, float]:
    """Sum :func:`charge_profile` arrays, each amount times ``scale``,
    into one per-target charge dict.  ``keys`` maps indices to dict
    keys: the pool ring for :func:`charge_profile` arrays, the pool's
    engines for :func:`engine_profile` arrays.

    Bit-identical to the dict fold ``charges[t] = charges.get(t, 0.0) +
    a * scale`` over the profiles in turn: ``np.bincount`` adds each
    bin's weights in input order, starting from 0.0.  Keys come out in
    first-appearance order, as the fold inserts them, so a later
    ``left_sum(charges.values())`` adds in the same order too.  See
    docs/PERFORMANCE.md.
    """
    if not profiles:
        return {}
    idx = np.concatenate([p[0] for p in profiles])
    sums = np.bincount(idx, weights=np.concatenate([p[1] for p in profiles]) * scale)
    order = first_appearance(idx)
    return dict(zip([keys[i] for i in order.tolist()], sums[order].tolist()))


def array_charges(
    pool: Pool, arrays: Sequence[Any], kind: str, nbytes: int, scale: float = 1.0
) -> Dict[Target, float]:
    """The arrays' ``bulk_charges(kind, nbytes)``, each amount times
    ``scale``, merged in batch order: ring arithmetic on a healthy
    layout (:meth:`DaosArray.ring_charges`), the per-object walk
    otherwise."""
    rotated = DaosArray.ring_charges(arrays, kind, nbytes)
    if rotated is not None:
        return merge_charges(pool.ring, [rotated], scale)
    return merge_charges(
        pool.ring, [charge_profile(arr.bulk_charges(kind, nbytes)) for arr in arrays], scale
    )


def merge_kv_loads(
    pool: Pool,
    charges: Dict[Target, float],
    req: Dict[Any, float],
    loads: Sequence[Tuple[Any, float]],
    kind: str,
    value_size: int,
) -> Tuple[Dict[Target, float], Dict[Any, float]]:
    """``charges`` and ``req`` plus ``kv.bulk_op_loads(kind, n_ops,
    value_size)`` of every ``(kv, n_ops)`` in ``loads``, added in turn.

    Bit-identical to the dict folds ``charges[t] = charges.get(t, 0.0)
    + nb`` and ``req[e] = req.get(e, 0.0) + n`` over the loads, key
    order included, with one ``bincount`` per dict: ring arithmetic on
    a healthy layout (:meth:`DaosKV.ring_op_loads`), the per-object
    walk otherwise.
    """
    rotated = DaosKV.ring_op_loads(loads, kind, value_size)
    if rotated is not None:
        targets, engines = [rotated[0]], [rotated[1]]
    else:
        per_kv = [kv.bulk_op_loads(kind, n_ops, value_size) for kv, n_ops in loads]
        targets = [charge_profile(c) for c, _ in per_kv]
        engines = [engine_profile(e) for _, e in per_kv]
    return (
        merge_charges(pool.ring, [charge_profile(charges)] + targets),
        merge_charges(pool.engines, [engine_profile(req)] + engines),
    )


def engine_request_ops(charges: Dict[Target, float], total_ops: float) -> Dict[Any, float]:
    """Distribute request slots over engines proportional to byte share."""
    total = left_sum(charges.values())
    ops: Dict[Any, float] = {}
    if total <= 0:
        return ops
    for target, nbytes in charges.items():
        engine = target.engine
        ops[engine] = ops.get(engine, 0.0) + total_ops * (nbytes / total)
    return ops


class _IorRunner(PhasedRunner):
    """IOR-flavoured :class:`~repro.workloads.common.PhasedRunner`."""

    #: whether this API implements IOR's single-shared-file layout
    supports_shared = False

    def __init__(self, env: Any, cfg: WorkloadConfig, recorder: Any = None) -> None:
        super().__init__(env, cfg, recorder)
        if cfg.shared_file and not self.supports_shared:
            raise ConfigError(
                f"{type(self).__name__} does not support shared-file IOR"
            )


# ---------------------------------------------------------------- DAOS (libdaos)


class _DaosIor(_IorRunner):
    container_label = "ior-daos"
    supports_shared = True

    def __init__(self, env: Any, cfg: WorkloadConfig, recorder: Any = None) -> None:
        super().__init__(env, cfg, recorder)
        #: per-state segment base offset (shared-file mode)
        self._base: Dict[int, int] = {}
        self._shared_array: Any = None

    def _segment_base(self, rank: Rank) -> int:
        """IOR segmented layout: rank r owns [r*blocksize, (r+1)*blocksize)."""
        return rank.rank * self.cfg.bytes_per_process if self.cfg.shared_file else 0

    def _rank_array(self, rank: Rank) -> Any:
        cont = _once_container(self.env.pool, self.container_label)
        if self.cfg.shared_file:
            if self._shared_array is None:
                self._shared_array = cont.new_array(
                    self.cfg.object_class, chunk_size=self.cfg.op_size
                )
            return self._shared_array
        return cont.new_array(self.cfg.object_class, chunk_size=self.cfg.op_size)

    def setup(self, rank: Rank) -> Generator[Any, Any, Any]:
        client = self.env.client(rank.node)
        cont = _once_container(self.env.pool, self.container_label)
        arr = self._rank_array(rank)
        yield client._serial()
        yield from client._md_flow({cont.home_engine: 1.0}, name="ior-setup")
        state = (client, arr)
        self._base[id(state)] = self._segment_base(rank)
        return state

    def setup_group(self, node: Any, ranks: Any) -> Generator[Any, Any, Any]:
        """Batched creates: one md flow for the whole rank group."""
        client = self.env.client(node)
        cont = _once_container(self.env.pool, self.container_label)
        states = []
        for rank in ranks:
            state = (client, self._rank_array(rank))
            self._base[id(state)] = self._segment_base(rank)
            states.append(state)
        yield client._serial()
        yield from client._md_flow(
            {cont.home_engine: float(len(ranks))}, name="ior-setup"
        )
        return states

    def write_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        client, arr = state
        offset = self._base.get(id(state), 0) + i * self.cfg.op_size
        yield from client.array_write(arr, offset, nbytes=self.cfg.op_size)

    def read_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        client, arr = state
        offset = self._base.get(id(state), 0) + i * self.cfg.op_size
        yield from client.array_read(arr, offset, self.cfg.op_size)

    def serial_per_op(self, node: Any, phase: str) -> float:
        client = self.env.client(node)
        p = client.params
        return (p.rpc_rtt + p.client_io_overhead) * client.jitter

    def _array_of(self, state: Any) -> Any:
        return state[1]

    def _charges(self, states: Any, phase: str, ops: int) -> Dict[Target, float]:
        kind = "write" if phase == "write" else "read"
        # bulk_charges is linear in nbytes: unit charges, scaled per batch
        arrays = [self._array_of(state) for state in states]
        return array_charges(self.env.pool, arrays, kind, 1, float(ops * self.cfg.op_size))

    def batch_flow(self, node: Any, states: Any, phase: str, ops: int) -> Generator[Any, Any, None]:
        kind = "write" if phase == "write" else "read"
        client = self.env.client(node)
        charges = self._charges(states, phase, ops)
        req = engine_request_ops(charges, ops * len(states))
        cap = (read_stream_cap(self.cluster, len(states),
                       readahead=self.env.pool.params.readahead_depth)
       if kind == "read" else float("inf"))
        yield from client.bulk_transfer(kind, charges, req, demand_cap=cap, name=f"ior-{phase}")


def _once_container(pool: Pool, label: str, **props: Any) -> Any:
    """Create-or-get a shared container (functional; setup is outside the
    measured window, see module docstring)."""
    try:
        return pool.get_container(label)
    except NotFoundError:
        return pool.create_container(label, materialize=False, **props)


# ------------------------------------------------------------------ DFS (libdfs)


class _DfsIor(_DaosIor):
    def __init__(self, env: Any, cfg: WorkloadConfig, recorder: Any = None) -> None:
        super().__init__(env, cfg, recorder)
        self._dfs_by_node: Dict[int, object] = {}
        self.dfs_overhead = 3e-6  # libdfs wrapper cost over raw libdaos

    def _dfs(self, node: Any) -> Generator[Any, Any, Any]:
        dfs = self._dfs_by_node.get(node.index)
        if dfs is None:
            from repro.dfs.dfs import Dfs

            cont = _once_container(
                self.env.pool, "ior-dfs", file_class=self.cfg.object_class
            )
            dfs = Dfs(
                self.env.client(node), cont, file_class=self.cfg.object_class,
                chunk_size=self.cfg.op_size,
            )
            yield from dfs.mount()
            self._dfs_by_node[node.index] = dfs
        return dfs

    def setup(self, rank: Rank) -> Generator[Any, Any, Any]:
        dfs = yield from self._dfs(rank.node)
        path = "/ior.shared" if self.cfg.shared_file else f"/ior.{rank.rank}"
        if self.cfg.shared_file:
            exists = yield from dfs.exists(path)
            if exists:
                fh = yield from dfs.open(path)
            else:
                fh = yield from dfs.create(path)
        else:
            fh = yield from dfs.create(path)
        state = (dfs, fh)
        self._base[id(state)] = self._segment_base(rank)
        return state

    def write_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        dfs, fh = state
        offset = self._base.get(id(state), 0) + i * self.cfg.op_size
        yield from dfs.write(fh, offset, nbytes=self.cfg.op_size)

    def read_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        dfs, fh = state
        offset = self._base.get(id(state), 0) + i * self.cfg.op_size
        yield from dfs.read(fh, offset, self.cfg.op_size)

    def serial_per_op(self, node: Any, phase: str) -> float:
        return super().serial_per_op(node, phase) + self.dfs_overhead

    def _array_of(self, state: Any) -> Any:
        return state[1].array

    def setup_group(self, node: Any, ranks: Any) -> Generator[Any, Any, Any]:
        """Batched file creates: entries land in the root KV functionally,
        charged as one md flow (setup is outside the measured window)."""
        from repro.dfs.dfs import DfsFile
        from repro.dfs.entry import KIND_FILE, DirEntry

        dfs = yield from self._dfs(node)
        client = self.env.client(node)
        states = []
        for rank in ranks:
            if self.cfg.shared_file:
                path = "/ior.shared"
                if self._shared_array is None:
                    self._shared_array = dfs.container.new_array(
                        self.cfg.object_class, chunk_size=self.cfg.op_size
                    )
                    entry = DirEntry(
                        kind=KIND_FILE, oid=self._shared_array.oid,
                        chunk_size=self.cfg.op_size,
                    )
                    dfs.root.put(path.lstrip("/"), entry.pack())
                arr = self._shared_array
            else:
                path = f"/ior.{type(self).__name__}.{rank.rank}"
                arr = dfs.container.new_array(self.cfg.object_class, chunk_size=self.cfg.op_size)
                entry = DirEntry(kind=KIND_FILE, oid=arr.oid, chunk_size=self.cfg.op_size)
                dfs.root.put(path.lstrip("/"), entry.pack())
            state = self._group_state(dfs, node, path, arr)
            self._base[id(state)] = self._segment_base(rank)
            states.append(state)
        yield client._serial()
        engines = {dfs.container.home_engine: float(2 * len(ranks))}
        yield from client._md_flow(engines, name="dfs-setup")
        return states

    def _group_state(self, dfs: Any, node: Any, path: str, arr: Any) -> Any:
        from repro.dfs.dfs import DfsFile

        return (dfs, DfsFile(dfs, path, arr, 0o644))


# --------------------------------------------------------------- POSIX via DFUSE


class _PosixIor(_DfsIor):
    intercepted = False

    def _mount(self, node: Any) -> Any:
        mount = self.env.dfuse(node, file_class=self.cfg.object_class)
        if self.intercepted:
            return self.env.il(node, file_class=self.cfg.object_class)
        return mount

    def _dfs(self, node: Any) -> Generator[Any, Any, Any]:
        mount = self.env.dfuse(node, file_class=self.cfg.object_class)
        if mount.dfs.root is None:
            yield from mount.mount()
        return mount.dfs

    def _group_state(self, dfs: Any, node: Any, path: str, arr: Any) -> Any:
        from repro.dfs.dfs import DfsFile

        return (self._mount(node), DfsFile(dfs, path, arr, 0o644))

    def setup(self, rank: Rank) -> Generator[Any, Any, Any]:
        mount = self._mount(rank.node)
        if mount.dfs.root is None:
            yield from mount.mount()
        if self.cfg.shared_file:
            path = "/ior.shared"
            exists = yield from mount.dfs.exists(path)
            fh = yield from (mount.open(path) if exists else mount.creat(path))
        else:
            fh = yield from mount.creat(f"/ior.{self.__class__.__name__}.{rank.rank}")
        state = (mount, fh)
        self._base[id(state)] = self._segment_base(rank)
        return state

    def write_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        mount, fh = state
        offset = self._base.get(id(state), 0) + i * self.cfg.op_size
        yield from mount.write(fh, offset, nbytes=self.cfg.op_size)

    def read_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        mount, fh = state
        offset = self._base.get(id(state), 0) + i * self.cfg.op_size
        yield from mount.read(fh, offset, self.cfg.op_size)

    def serial_per_op(self, node: Any, phase: str) -> float:
        base = _DaosIor.serial_per_op(self, node, phase)
        params = self.env.dfuse_params
        if self.intercepted:
            return base + params.il_overhead
        return base + params.kernel_crossing

    def batch_flow(self, node: Any, states: Any, phase: str, ops: int) -> Generator[Any, Any, None]:
        kind = "write" if phase == "write" else "read"
        client = self.env.client(node)
        charges = self._charges(states, phase, ops)
        req = engine_request_ops(charges, ops * len(states))
        extra = None
        if not self.intercepted:
            fuse = self.env.dfuse(node)
            extra = {fuse.fuse_link: float(ops * len(states))}
        cap = (read_stream_cap(self.cluster, len(states),
                       readahead=self.env.pool.params.readahead_depth)
       if kind == "read" else float("inf"))
        yield from client.bulk_transfer(
            kind, charges, req, extra_loads=extra, demand_cap=cap, name=f"ior-{phase}"
        )


class _PosixIlIor(_PosixIor):
    intercepted = True


# ------------------------------------------------------------ HDF5 on POSIX (IL)


class _Hdf5PosixIor(_IorRunner):
    def __init__(self, env: Any, cfg: WorkloadConfig, recorder: Any = None) -> None:
        super().__init__(env, cfg, recorder)
        self.h5 = Hdf5PosixParams()

    def setup(self, rank: Rank) -> Generator[Any, Any, Any]:
        mount = self.env.dfuse(rank.node, file_class=self.cfg.object_class)
        il = self.env.il(rank.node, file_class=self.cfg.object_class)
        if mount.dfs.root is None:
            yield from mount.mount()
        h5file = Hdf5PosixFile(mount, f"/h5.{rank.rank}.h5", params=self.h5, data_mount=il)
        yield from h5file.create()
        return h5file

    def setup_group(self, node: Any, ranks: Any) -> Generator[Any, Any, Any]:
        """Batched H5Fcreate: files and superblocks registered
        functionally, charged as one md flow."""
        from repro.dfs.dfs import DfsFile
        from repro.dfs.entry import KIND_FILE, DirEntry

        mount = self.env.dfuse(node, file_class=self.cfg.object_class)
        il = self.env.il(node, file_class=self.cfg.object_class)
        if mount.dfs.root is None:
            yield from mount.mount()
        dfs = mount.dfs
        client = self.env.client(node)
        states = []
        for rank in ranks:
            path = f"/h5.{rank.rank}.h5"
            arr = dfs.container.new_array(self.cfg.object_class, chunk_size=self.cfg.op_size)
            entry = DirEntry(kind=KIND_FILE, oid=arr.oid, chunk_size=self.cfg.op_size)
            dfs.root.put(path.lstrip("/"), entry.pack())
            h5file = Hdf5PosixFile(mount, path, params=self.h5, data_mount=il)
            h5file.handle = DfsFile(dfs, path, arr, 0o644)
            arr.write(0, nbytes=self.h5.superblock_size)
            states.append(h5file)
        yield client._serial()
        engines = {dfs.container.home_engine: float(2 * len(ranks))}
        yield from client._md_flow(engines, name="h5-setup")
        return states

    def write_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        yield from state.write_op(i, self.cfg.op_size)

    def read_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        data = yield from state.read_op(i, self.cfg.op_size)
        del data

    def serial_per_op(self, node: Any, phase: str) -> float:
        client = self.env.client(node)
        p = client.params
        dparams = self.env.dfuse_params
        md_ops = self.h5.md_writes_per_op if phase == "write" else self.h5.md_reads_per_op
        data_leg = (p.rpc_rtt + p.client_io_overhead + dparams.il_overhead)
        md_leg = md_ops * (dparams.kernel_crossing + p.rpc_rtt + p.client_io_overhead)
        return (self.h5.format_overhead + data_leg + md_leg) * client.jitter

    def batch_flow(self, node: Any, states: Any, phase: str, ops: int) -> Generator[Any, Any, None]:
        kind = "write" if phase == "write" else "read"
        client = self.env.client(node)
        cfg = self.cfg
        md_per_op = self.h5.md_writes_per_op if phase == "write" else self.h5.md_reads_per_op
        data_bytes = ops * cfg.op_size
        md_bytes = ops * md_per_op * self.h5.md_io_size
        arrays = [h5file.handle.array for h5file in states]
        charges = array_charges(self.env.pool, arrays, kind, int(data_bytes + md_bytes))
        total_ops = ops * len(states) * (1 + md_per_op)
        req = engine_request_ops(charges, total_ops)
        fuse = self.env.dfuse(node)
        extra = {fuse.fuse_link: float(ops * len(states) * md_per_op)}
        cap = (read_stream_cap(self.cluster, len(states),
                       readahead=self.env.pool.params.readahead_depth)
       if kind == "read" else float("inf"))
        yield from client.bulk_transfer(
            kind, charges, req, extra_loads=extra, demand_cap=cap, name=f"h5-{phase}"
        )


# --------------------------------------------------------------- HDF5 on DAOS VOL


class _Hdf5DaosIor(_IorRunner):
    def __init__(self, env: Any, cfg: WorkloadConfig, recorder: Any = None) -> None:
        super().__init__(env, cfg, recorder)
        self.vol_params = Hdf5VolParams(object_class=cfg.object_class, chunk_size=cfg.op_size)

    def setup(self, rank: Rank) -> Generator[Any, Any, Any]:
        vol = Hdf5DaosVol(self.env.client(rank.node), params=self.vol_params)
        file = yield from vol.create_file(f"h5vol.{rank.rank}")
        return (vol, file)

    def setup_group(self, node: Any, ranks: Any) -> Generator[Any, Any, Any]:
        """Batched H5Fcreate: containers registered functionally, all
        create commits charged as one pool-service flow."""
        from repro.hdf5.daos_vol import Hdf5VolFile

        client = self.env.client(node)
        states = []
        for rank in ranks:
            vol = Hdf5DaosVol(client, params=self.vol_params)
            cont = self.env.pool.create_container(f"h5vol.{rank.rank}", materialize=False)
            states.append((vol, Hdf5VolFile(vol, f"h5vol.{rank.rank}", cont)))
        yield client._serial()
        rsvc = client.params.container_create_rsvc_ops * len(ranks)
        yield from client._md_flow({}, rsvc_ops=rsvc, name="h5vol-setup")
        return states

    def write_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        vol, file = state
        yield from vol.write_op(file, i, self.cfg.op_size)

    def read_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        vol, file = state
        yield from vol.read_op(file, i, self.cfg.op_size)

    def serial_per_op(self, node: Any, phase: str) -> float:
        client = self.env.client(node)
        p = client.params
        # format work + the object create/open round trip per dataset op
        return (
            self.vol_params.format_overhead
            + 2 * (p.rpc_rtt + p.client_io_overhead)
        ) * client.jitter

    def batch_flow(self, node: Any, states: Any, phase: str, ops: int) -> Generator[Any, Any, None]:
        kind = "write" if phase == "write" else "read"
        client = self.env.client(node)
        cfg = self.cfg
        nbytes = ops * len(states) * cfg.op_size
        charges = uniform_target_charges(self.env.pool, nbytes)
        req = engine_request_ops(charges, ops * len(states))
        # per-op container-table update on each file's home engine
        for _, file in states:
            home = file.container.home_engine
            req[home] = req.get(home, 0.0) + ops
        rsvc = ops * len(states) * self.vol_params.rsvc_ops_per_object
        cap = (read_stream_cap(self.cluster, len(states),
                       readahead=self.env.pool.params.readahead_depth)
       if kind == "read" else float("inf"))
        yield from client.bulk_transfer(
            kind, charges, req, rsvc_ops=rsvc, demand_cap=cap, name=f"h5vol-{phase}"
        )


# -------------------------------------------------------------------- Lustre POSIX


class _LustreIor(_IorRunner):
    supports_shared = True

    def __init__(self, env: Any, cfg: WorkloadConfig, recorder: Any = None,
                 stripe_count: Optional[int] = None, stripe_size: Optional[int] = None) -> None:
        super().__init__(env, cfg, recorder)
        self.stripe_count = stripe_count or min(16, env.fs.n_osts)
        self.stripe_size = stripe_size or cfg.op_size
        self._base: Dict[int, int] = {}
        self._shared_created = False

    def _segment_base(self, rank: Rank) -> int:
        return rank.rank * self.cfg.bytes_per_process if self.cfg.shared_file else 0

    def setup(self, rank: Rank) -> Generator[Any, Any, Any]:
        client = self.env.client(rank.node)
        if self.cfg.shared_file:
            if not self._shared_created:
                self._shared_created = True
                fh = yield from client.create(
                    "/ior.shared", stripe_count=self.stripe_count,
                    stripe_size=self.stripe_size,
                )
            else:
                fh = yield from client.open("/ior.shared")
        else:
            fh = yield from client.create(
                f"/ior.{rank.rank}", stripe_count=self.stripe_count,
                stripe_size=self.stripe_size,
            )
        state = (client, fh)
        self._base[id(state)] = self._segment_base(rank)
        return state

    def write_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        client, fh = state
        offset = self._base.get(id(state), 0) + i * self.cfg.op_size
        yield from client.write(
            fh, offset, nbytes=self.cfg.op_size, materialize=False
        )

    def read_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        client, fh = state
        offset = self._base.get(id(state), 0) + i * self.cfg.op_size
        yield from client.read(fh, offset, self.cfg.op_size)

    def serial_per_op(self, node: Any, phase: str) -> float:
        client = self.env.client(node)
        p = client.params
        return (p.rpc_rtt + p.client_io_overhead) * client.jitter

    def batch_flow(self, node: Any, states: Any, phase: str, ops: int) -> Generator[Any, Any, None]:
        kind = "write" if phase == "write" else "read"
        client = self.env.client(node)
        per_ost: Dict[Any, float] = {}
        for _, fh in states:
            share = ops * self.cfg.op_size / len(fh.osts)
            for ost in fh.osts:
                per_ost[ost] = per_ost.get(ost, 0.0) + share
            if kind == "write":
                fh.inode.size = max(fh.inode.size, self.cfg.bytes_per_process)
        cap = (read_stream_cap(self.cluster, len(states),
                               readahead=self.env.fs.params.readahead_depth)
               if kind == "read" else float("inf"))
        yield from client.bulk_transfer(kind, per_ost, demand_cap=cap, name=f"ior-{phase}")


# ------------------------------------------------------------------------- RADOS


class _RadosIor(_IorRunner):
    def __init__(self, env: Any, cfg: WorkloadConfig, recorder: Any = None, pg_num: int = 1024) -> None:
        super().__init__(env, cfg, recorder)
        if cfg.bytes_per_process > env.ceph.params.max_object_size:
            raise ConfigError(
                f"IOR on RADOS: {cfg.ops_per_process} x {cfg.op_size} B per "
                f"process exceeds the {env.ceph.params.max_object_size} B "
                "object-size cap; the paper ran 100 x 1 MiB"
            )
        self.pg_num = pg_num
        self._pool: Optional[CephPool] = None

    def _pool_once(self, client: Any) -> Generator[Any, Any, Any]:
        if self._pool is None:
            # functional registration is synchronous; the monitor round
            # trip (open_pool) is charged afterwards
            self._pool = CephPool(self.env.ceph, "ior", pg_num=self.pg_num, materialize=False)
        pool = yield from client.open_pool("ior")
        return pool

    def setup(self, rank: Rank) -> Generator[Any, Any, Any]:
        client = self.env.client(rank.node)
        if not client.connected:
            yield from client.connect()
        pool = yield from self._pool_once(client)
        return (client, pool, f"ior.obj.{rank.rank}")

    def write_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        client, pool, obj = state
        yield from client.write(pool, obj, i * self.cfg.op_size, nbytes=self.cfg.op_size)

    def read_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        client, pool, obj = state
        yield from client.read(pool, obj, i * self.cfg.op_size, self.cfg.op_size)

    def serial_per_op(self, node: Any, phase: str) -> float:
        client = self.env.client(node)
        p = client.params
        return (p.rpc_rtt + p.client_io_overhead) * client.jitter

    def batch_flow(self, node: Any, states: Any, phase: str, ops: int) -> Generator[Any, Any, None]:
        kind = "write" if phase == "write" else "read"
        client = self.env.client(node)
        per_osd: Dict[Any, float] = {}
        ops_by_osd: Dict[Any, float] = {}
        for _, pool, obj in states:
            primary = pool.pgmap.primary(obj)
            per_osd[primary] = per_osd.get(primary, 0.0) + ops * self.cfg.op_size
            ops_by_osd[primary] = ops_by_osd.get(primary, 0.0) + ops
            if kind == "write":
                pool.object_sizes[obj] = self.cfg.bytes_per_process
        params = self.env.ceph.params
        spec = self.cluster.servers[0].spec
        if kind == "write":  # librados writes are synchronous end-to-end
            cap = len(states) * spec.device_write_bw * params.write_efficiency
        else:
            cap = len(states) * spec.device_read_bw * params.read_efficiency
        yield from client.bulk_transfer(
            kind, per_osd, ops_by_osd=ops_by_osd, demand_cap=cap, name=f"ior-{phase}"
        )


_RUNNERS = {
    "DAOS": (_DaosIor, DaosEnv),
    "DFS": (_DfsIor, DaosEnv),
    "POSIX": (_PosixIor, DaosEnv),
    "POSIX+IL": (_PosixIlIor, DaosEnv),
    "HDF5": (_Hdf5PosixIor, DaosEnv),
    "HDF5-DAOS": (_Hdf5DaosIor, DaosEnv),
    "LUSTRE": (_LustreIor, LustreEnv),
    "RADOS": (_RadosIor, CephEnv),
}


def run_ior(
    env: Any,
    cfg: WorkloadConfig,
    api: str,
    recorder: Optional[PhaseRecorder] = None,
    **kwargs: Any,
) -> PhaseRecorder:
    """Execute one IOR run; returns the phase recorder with write/read
    stats per the paper's bandwidth definition."""
    try:
        runner_cls, env_cls = _RUNNERS[api]
    except KeyError:
        raise ConfigError(f"unknown IOR api {api!r}; choose from {IOR_APIS}") from None
    if not isinstance(env, env_cls):
        raise ConfigError(f"IOR api {api!r} needs a {env_cls.__name__}, got {type(env).__name__}")
    runner = runner_cls(env, cfg, recorder, **kwargs)
    return runner.run()
