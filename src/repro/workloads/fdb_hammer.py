"""fdb-hammer: the FDB benchmark, over DAOS, Lustre-POSIX, and Ceph.

Paper Section II-A: "fdb-hammer runs as a set of independent processes,
each archiving or retrieving (depending on the selected access mode) a
sequence of weather fields via FDB."  The backend access patterns are
implemented in :mod:`repro.fdb`; this module drives them with the
paper's run shape (fields-per-process, write phase then read phase) and
provides the aggregate fast path for the figure harness.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.fdb.daos_backend import FdbDaosBackend
from repro.fdb.fdb import FDB
from repro.fdb.posix_backend import INDEX_ENTRY_SIZE, FdbPosixBackend
from repro.fdb.rados_backend import FdbRadosBackend
from repro.fdb.schema import key_sequence
from repro.sim.stats import PhaseRecorder
from repro.units import Bytes, MiB
from repro.workloads.common import CephEnv, DaosEnv, LustreEnv, PhasedRunner, WorkloadConfig
from repro.workloads.ior import engine_request_ops, merge_kv_loads, uniform_target_charges
from repro.workloads.mpi import Rank

__all__ = ["FDB_BACKENDS", "run_fdb_hammer"]

FDB_BACKENDS = ("DAOS", "LUSTRE", "RADOS")

#: index locator payload size (matches the daos backend's packed record)
KV_VALUE_SIZE = 24


class _FdbRunnerBase(PhasedRunner):
    """Shared shape: per-rank FDB session.  Exact mode also holds the
    rank's key sweep, which only its per-op archive/retrieve read; the
    aggregate batch flows are sized from counts and name no key."""

    def make_backend(self, rank: Rank) -> Any:
        raise NotImplementedError

    def setup(self, rank: Rank) -> Generator[Any, Any, Any]:
        fdb = FDB(self.make_backend(rank))
        yield from fdb.open(writer=True)
        state: Dict[str, Any] = {"fdb": fdb}
        if self.cfg.mode == "exact":
            state["keys"] = list(key_sequence(self.cfg.ops_per_process, member=rank.rank))
        return state

    def write_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        yield from state["fdb"].archive(state["keys"][i], nbytes=self.cfg.op_size)

    def read_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        yield from state["fdb"].retrieve(state["keys"][i])

    def end_phase(self, state: Any, phase: str) -> Generator[Any, Any, None]:
        if phase == "write":
            yield from state["fdb"].flush()


# ---------------------------------------------------------------------- DAOS


class _FdbDaosRunner(_FdbRunnerBase):
    def __init__(self, env: DaosEnv, cfg: WorkloadConfig, recorder: Any = None,
                 array_class: str = "S1", kv_class: Optional[str] = None) -> None:
        # paper Sec. III-B: S1 Arrays and S1 KVs; the redundancy runs
        # (Fig. 6) override with EC_2P1 Arrays and RP_2 KVs
        super().__init__(env, cfg, recorder)
        self.array_class = array_class
        self.kv_class = kv_class or cfg.kv_object_class

    def make_backend(self, rank: Rank) -> FdbDaosBackend:
        return FdbDaosBackend(
            self.env.client(rank.node),
            proc_id=rank.rank,
            array_class=self.array_class,
            kv_class=self.kv_class,
            chunk_size=self.cfg.op_size,
            materialize=False,
        )

    def serial_per_op(self, node: Any, phase: str) -> float:
        client = self.env.client(node)
        p = client.params
        rtt = p.rpc_rtt + p.client_io_overhead
        kv_ops = 10  # paper: ~10 KV operations per field
        per_op = (1 + kv_ops) * rtt
        if phase == "write":
            per_op += rtt  # per-field array create
        # no size check on read: the locator carries the field size
        return per_op * client.jitter

    def batch_flow(self, node: Any, states: List[Any], phase: str, ops: int) -> Generator[Any, Any, None]:
        kind = "write" if phase == "write" else "read"
        client = self.env.client(node)
        cfg = self.cfg
        n_ranks = len(states)
        from repro.daos.objclass import ObjectClass

        amp = ObjectClass.parse(self.array_class).write_amplification if kind == "write" else 1.0
        data_bytes = ops * n_ranks * cfg.op_size * amp
        charges = uniform_target_charges(self.env.pool, data_bytes)
        req = engine_request_ops(charges, ops * n_ranks)
        B = FdbDaosBackend
        if phase == "write":
            kv_kind, root_ops, cat_ops, idx_ops = "put", B.ROOT_PUTS, B.CATALOGUE_PUTS, B.INDEX_PUTS
        else:
            kv_kind, root_ops, cat_ops, idx_ops = "get", B.ROOT_GETS, B.CATALOGUE_GETS, B.INDEX_GETS
        loads: List[Tuple[Any, float]] = []
        for state in states:
            backend: FdbDaosBackend = state["fdb"].backend
            loads += [
                (backend.root_kv, ops * root_ops),
                (backend.catalogue_kv, ops * cat_ops),
                (backend.index_kv, ops * idx_ops),
            ]
        charges, req = merge_kv_loads(self.env.pool, charges, req, loads, kv_kind, KV_VALUE_SIZE)
        if phase == "write":
            home = states[0]["fdb"].backend.container.home_engine
            req[home] = req.get(home, 0.0) + ops * n_ranks  # array creates
        yield from client.bulk_transfer(kind, charges, req, name=f"fdb-{phase}")


# ------------------------------------------------------------------- Lustre POSIX


class _FdbLustreRunner(_FdbRunnerBase):
    #: MDS requests per retrieved field: open(index)=2, open(data)=2
    MDS_OPS_PER_READ = 4.0

    def __init__(self, env: LustreEnv, cfg: WorkloadConfig, recorder: Any = None,
                 stripe_count: int = 8, stripe_size: Bytes = 8 * MiB,
                 buffer_size: Bytes = 8 * MiB) -> None:
        super().__init__(env, cfg, recorder)
        self.stripe_count = min(stripe_count, env.fs.n_osts)
        self.stripe_size = stripe_size
        self.buffer_size = buffer_size

    def make_backend(self, rank: Rank) -> FdbPosixBackend:
        return FdbPosixBackend(
            self.env.client(rank.node),
            proc_id=rank.rank,
            buffer_size=self.buffer_size,
            materialize=False,
            create_kwargs={
                "stripe_count": self.stripe_count,
                "stripe_size": self.stripe_size,
            },
        )

    def serial_per_op(self, node: Any, phase: str) -> float:
        client = self.env.client(node)
        p = client.params
        rtt = p.rpc_rtt + p.client_io_overhead
        if phase == "write":
            # buffered: only 1/fields_per_flush of ops pay a write RTT
            fields_per_flush = max(1, self.buffer_size // self.cfg.op_size)
            return (2 * rtt / fields_per_flush) * client.jitter
        # read: open index + read + open data + read + closes
        return (self.MDS_OPS_PER_READ + 2) * rtt * client.jitter

    def batch_flow(self, node: Any, states: List[Any], phase: str, ops: int) -> Generator[Any, Any, None]:
        kind = "write" if phase == "write" else "read"
        client = self.env.client(node)
        cfg = self.cfg
        per_ost: Dict[Any, float] = {}
        mds_ops = 0.0
        for state in states:
            backend: FdbPosixBackend = state["fdb"].backend
            data_bytes = ops * cfg.op_size
            index_bytes = ops * INDEX_ENTRY_SIZE
            osts = [self.env.fs.osts[i] for i in backend._data_fh.inode.ost_indices]
            share = (data_bytes + index_bytes) / len(osts)
            for ost in osts:
                per_ost[ost] = per_ost.get(ost, 0.0) + share
            if kind == "write":
                fields_per_flush = max(1, self.buffer_size // cfg.op_size)
                mds_ops += ops / fields_per_flush  # size updates per flush
                backend._data_fh.inode.size = cfg.bytes_per_process
            else:
                mds_ops += ops * self.MDS_OPS_PER_READ
        yield from client.bulk_transfer(kind, per_ost, mds_ops=mds_ops, name=f"fdb-{phase}")

    def setup(self, rank: Rank) -> Generator[Any, Any, Any]:
        state = yield from super().setup(rank)
        if self.cfg.mode == "aggregate":
            # the batch flows stand for every field this rank archives:
            # advance the data file and index as archiving them would
            backend: FdbPosixBackend = state["fdb"].backend
            n = self.cfg.ops_per_process
            backend._data_offset += n * self.cfg.op_size
            backend._index_count += n
        return state


# ------------------------------------------------------------------------ Ceph


class _FdbRadosRunner(_FdbRunnerBase):
    def __init__(self, env: CephEnv, cfg: WorkloadConfig, recorder: Any = None, pg_num: int = 1024) -> None:
        super().__init__(env, cfg, recorder)
        self.pg_num = pg_num

    def make_backend(self, rank: Rank) -> FdbRadosBackend:
        return FdbRadosBackend(
            self.env.client(rank.node),
            proc_id=rank.rank,
            pg_num=self.pg_num,
            materialize=False,
        )

    def serial_per_op(self, node: Any, phase: str) -> float:
        client = self.env.client(node)
        p = client.params
        rtt = p.rpc_rtt + p.client_io_overhead
        # object write/read + omap index op
        return 2 * rtt * client.jitter

    def batch_flow(self, node: Any, states: List[Any], phase: str, ops: int) -> Generator[Any, Any, None]:
        kind = "write" if phase == "write" else "read"
        client = self.env.client(node)
        cfg = self.cfg
        per_osd: Dict[Any, float] = {}
        ops_by_osd: Dict[Any, float] = {}
        for state in states:
            backend: FdbRadosBackend = state["fdb"].backend
            pool = backend.pool
            # object seq -> primary OSD, placed by the write phase; the
            # PG map never changes and the read phase names the same
            # objects, so reads reuse it instead of re-hashing names
            placed: Dict[int, Any] = state.setdefault("placed", {})
            if kind == "write":
                start = backend._counter
                backend._counter += ops
            else:
                start = state.get("read_cursor", 0)
                state["read_cursor"] = start + ops
            for seq in range(start, start + ops):
                if kind == "write":
                    name = backend._object_name(seq)
                    primary = placed[seq] = pool.pgmap.primary(name)
                    pool.object_sizes[name] = cfg.op_size
                elif seq in placed:
                    primary = placed[seq]
                else:
                    primary = pool.pgmap.primary(backend._object_name(seq))
                per_osd[primary] = per_osd.get(primary, 0.0) + cfg.op_size
                ops_by_osd[primary] = ops_by_osd.get(primary, 0.0) + 1.0
            # index omap traffic on the per-process index object
            idx_primary = pool.pgmap.primary(backend.index_object)
            per_osd[idx_primary] = per_osd.get(idx_primary, 0.0) + ops * KV_VALUE_SIZE
            ops_by_osd[idx_primary] = ops_by_osd.get(idx_primary, 0.0) + ops
        yield from client.bulk_transfer(
            kind, per_osd, ops_by_osd=ops_by_osd, name=f"fdb-{phase}"
        )


_RUNNERS = {
    "DAOS": (_FdbDaosRunner, DaosEnv),
    "LUSTRE": (_FdbLustreRunner, LustreEnv),
    "RADOS": (_FdbRadosRunner, CephEnv),
}


def run_fdb_hammer(
    env: Any,
    cfg: WorkloadConfig,
    backend: str,
    recorder: Optional[PhaseRecorder] = None,
    **kwargs: Any,
) -> PhaseRecorder:
    """Execute one fdb-hammer run over the chosen FDB backend."""
    try:
        runner_cls, env_cls = _RUNNERS[backend]
    except KeyError:
        raise ConfigError(
            f"unknown fdb backend {backend!r}; choose from {FDB_BACKENDS}"
        ) from None
    if not isinstance(env, env_cls):
        raise ConfigError(
            f"fdb backend {backend!r} needs a {env_cls.__name__}, got {type(env).__name__}"
        )
    return runner_cls(env, cfg, recorder, **kwargs).run()
