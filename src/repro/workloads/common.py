"""Shared workload configuration and store environments."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Generator, List, Optional

from repro.ceph.monitor import CephCluster
from repro.ceph.rados import RadosClient
from repro.daos.client import DaosClient
from repro.daos.pool import Pool
from repro.dfs.dfs import Dfs
from repro.dfuse.mount import DfuseMount, DfuseParams, InterceptedMount
from repro.errors import ConfigError, DataLossError
from repro.hardware.cluster import ClientNode, Cluster
from repro.lustre.client import LustreClient
from repro.lustre.fs import LustreFilesystem
from repro.units import Bytes, MiB

__all__ = ["WorkloadConfig", "DaosEnv", "LustreEnv", "CephEnv"]

_MODES = ("exact", "aggregate")


@dataclass(frozen=True)
class WorkloadConfig:
    """One benchmark execution's parameters.

    The paper's reference scale is ``ops_per_process=10_000`` 1 MiB
    operations; the default here is scaled down (DESIGN.md §6) because
    steady-state bandwidth depends on capacity ratios, not run length.
    ``batches`` splits each phase into that many lump-flow rounds in
    aggregate mode so late-arriving groups still contend realistically.
    """

    n_client_nodes: int
    ppn: int
    ops_per_process: int = 64
    op_size: Bytes = MiB
    mode: str = "aggregate"
    batches: int = 2
    read_phase: bool = True
    jitter_sigma: float = 0.02
    object_class: str = "SX"
    kv_object_class: str = "S1"
    #: IOR layout: False = file per process (the paper's configuration),
    #: True = one shared file with per-rank segments
    shared_file: bool = False
    #: client aggregation: each configured client node stands for this
    #: many identical nodes — one flow per rank group with cohort-scaled
    #: link weights instead of ``cohort`` separate event chains.
    #: Aggregate mode only; the store environment must be built with the
    #: same cohort (``DaosEnv(..., cohort=N)``).  See docs/PERFORMANCE.md
    #: for the exactness contract.
    cohort: int = 1

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.ops_per_process < 1 or self.op_size < 1:
            raise ConfigError("ops_per_process and op_size must be positive")
        if self.batches < 1 or self.batches > self.ops_per_process:
            raise ConfigError("batches must be in 1..ops_per_process")
        if self.cohort < 1:
            raise ConfigError(f"cohort must be >= 1, got {self.cohort}")
        if self.cohort > 1 and self.mode != "aggregate":
            raise ConfigError(
                "cohort aggregation requires mode='aggregate' (exact mode "
                "simulates every rank individually)"
            )

    def with_(self, **kwargs: Any) -> "WorkloadConfig":
        return replace(self, **kwargs)

    @property
    def total_processes(self) -> int:
        return self.n_client_nodes * self.ppn

    @property
    def modelled_processes(self) -> int:
        """Client processes the run *represents* (cohort members included)."""
        return self.n_client_nodes * self.ppn * self.cohort

    @property
    def bytes_per_process(self) -> int:
        return self.ops_per_process * self.op_size

    def ops_in_batch(self, batch: int) -> int:
        """Ops of one batch (the last batch absorbs the remainder)."""
        base = self.ops_per_process // self.batches
        if batch == self.batches - 1:
            return self.ops_per_process - base * (self.batches - 1)
        return base


def read_stream_cap(
    cluster: "Cluster", n_streams: int, efficiency: float = 1.0, readahead: int = 4
) -> float:
    """Per-node demand cap for ``n_streams`` sequential readers.

    A reader fetches from one device at a time (plus ``readahead``
    prefetched chunks on the next devices), so a single stream cannot
    exceed ``readahead`` devices' worth of read bandwidth no matter how
    idle the cluster is — which is why the paper's read curves keep
    rising with process count until the server side saturates.
    """
    return n_streams * readahead * cluster.servers[0].spec.device_read_bw * efficiency


class PhasedRunner:
    """Skeleton shared by every benchmark: per-rank setup, a barrier,
    then write and/or read phases — in ``exact`` (per-rank, per-op) or
    ``aggregate`` (per-node rank group, batched lump-flow) mode.

    Subclasses implement :meth:`setup`, :meth:`write_op`,
    :meth:`read_op`, :meth:`serial_per_op`, and :meth:`batch_flow`.
    """

    def __init__(self, env: Any, cfg: "WorkloadConfig", recorder: Any = None) -> None:
        from repro.sim.stats import PhaseRecorder
        from repro.workloads.mpi import RankWorld

        self.env = env
        self.cfg = cfg
        self.cluster = env.cluster
        self.sim = env.cluster.sim
        self.recorder = recorder or PhaseRecorder()
        self.world = RankWorld(env.cluster, cfg.n_client_nodes, cfg.ppn)
        if cfg.cohort > 1 and getattr(env, "cohort", 1) != cfg.cohort:
            raise ConfigError(
                f"cfg.cohort={cfg.cohort} but the environment was built "
                f"with cohort={getattr(env, 'cohort', 1)}; construct it "
                f"with the same cohort (cohorts are DAOS-only for now)"
            )
        parties = self.world.size if cfg.mode == "exact" else cfg.n_client_nodes
        self.phase_barrier = self.world.barrier(parties, name="phase")
        # Observability (dormant when the cluster carries none).
        self._obs = env.cluster.obs
        if self._obs is not None:
            reg = self._obs.registry
            self._m_ops = reg.counter(
                "workload.ops", unit="ops",
                description="benchmark operations completed (both phases)",
            )
            self._m_bytes = reg.counter("workload.bytes", unit="B")
            self._m_lat = {
                phase: reg.latency_histogram(
                    f"workload.lat.{phase}", unit="s",
                    description="per-op completion latency as the benchmark "
                                "saw it (exact mode)",
                )
                for phase in ("write", "read")
            }

    # -- per-benchmark hooks -------------------------------------------------
    def setup(self, rank: Any) -> Generator[Any, Any, Any]:
        raise NotImplementedError

    def write_op(self, state: Any, op_index: int) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def read_op(self, state: Any, op_index: int) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def serial_per_op(self, node: Any, phase: str) -> float:
        raise NotImplementedError

    def batch_flow(self, node: Any, states: Any, phase: str, ops: int) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def end_phase(self, state: Any, phase: str) -> Generator[Any, Any, None]:
        """Optional per-rank epilogue inside the phase window (e.g. an
        FDB flush); exact mode only."""
        return
        yield  # pragma: no cover

    def _mark_phase(self, phase: str) -> None:
        """Announce phase entry to a fault controller, if one is attached
        (phase-anchored fault events key off this; idempotent across
        ranks, which all arrive at the same simulated time)."""
        controller = getattr(self.cluster, "fault_controller", None)
        if controller is not None:
            controller.mark_phase(phase)

    # -- skeleton ------------------------------------------------------------------
    def phases(self) -> List[str]:
        return ["write", "read"] if self.cfg.read_phase else ["write"]

    def _rank_main(self, rank: Any) -> Generator[Any, Any, None]:
        cfg = self.cfg
        obs = self._obs
        tid = obs.node_tid(rank.node) if obs is not None else 0
        state = yield from self.setup(rank)
        yield self.phase_barrier.wait()
        for phase in self.phases():
            self._mark_phase(phase)
            op = self.write_op if phase == "write" else self.read_op
            span = None
            if obs is not None:
                span = obs.tracer.begin(
                    f"workload.{phase}", cat="workload", tid=tid,
                    args={"rank": rank.rank},
                )
            for i in range(cfg.ops_per_process):
                t0 = self.sim.now
                try:
                    yield from op(state, i)
                except DataLossError:
                    # redundancy exhausted for this extent: count it and
                    # keep going, like IOR reporting a failed transfer
                    self.recorder.record_lost(phase, t0, self.sim.now)
                    continue
                self.recorder.record(phase, t0, self.sim.now, cfg.op_size)
                if obs is not None:
                    self._m_ops.inc()
                    self._m_bytes.inc(cfg.op_size)
                    self._m_lat[phase].observe(self.sim.now - t0)
            t0 = self.sim.now
            yield from self.end_phase(state, phase)
            if self.sim.now > t0:
                self.recorder.record(phase, t0, self.sim.now, 0, ops=0)
            if span is not None:
                obs.tracer.finish(span)
            yield self.phase_barrier.wait()

    def setup_group(self, node: Any, ranks: Any) -> Generator[Any, Any, Any]:
        """Aggregate-mode setup hook; defaults to per-rank :meth:`setup`.
        Runners with expensive per-rank setup flows override this to
        batch the metadata traffic (setup is outside the measured
        bandwidth window either way)."""
        states: List[Any] = []
        for rank in ranks:
            state = yield from self.setup(rank)
            states.append(state)
        return states

    def _group_main(self, node: Any, ranks: Any) -> Generator[Any, Any, None]:
        cfg = self.cfg
        obs = self._obs
        tid = obs.node_tid(node) if obs is not None else 0
        # one rank group stands for `cohort` identical groups: the flow
        # weights are cohort-scaled inside the store client, so here only
        # the recorded bytes/ops need the multiplier
        members = len(ranks) * cfg.cohort
        states = yield from self.setup_group(node, ranks)
        yield self.phase_barrier.wait()
        for phase in self.phases():
            self._mark_phase(phase)
            span = None
            if obs is not None:
                span = obs.tracer.begin(
                    f"workload.{phase}", cat="workload", tid=tid,
                    args={"ranks": members},
                )
            for batch in range(cfg.batches):
                ops = cfg.ops_in_batch(batch)
                t0 = self.sim.now
                try:
                    yield self.sim.timeout(ops * self.serial_per_op(node, phase))
                    yield from self.batch_flow(node, states, phase, ops)
                except DataLossError:
                    self.recorder.record_lost(
                        phase, t0, self.sim.now, ops=members * ops
                    )
                    continue
                self.recorder.record(
                    phase, t0, self.sim.now, members * ops * cfg.op_size,
                    ops=members * ops,
                )
                if obs is not None:
                    self._m_ops.inc(members * ops)
                    self._m_bytes.inc(members * ops * cfg.op_size)
            if span is not None:
                obs.tracer.finish(span)
            yield self.phase_barrier.wait()

    def run(self) -> Any:
        if self.cfg.mode == "exact":
            self.world.run(self._rank_main)
        else:
            self.world.run_groups(self._group_main)
        return self.recorder


class DaosEnv:
    """DAOS deployment + per-node client/mount caches for workloads."""

    def __init__(
        self,
        cluster: Cluster,
        pool: Optional[Pool] = None,
        jitter_sigma: float = 0.02,
        dfuse_params: Optional[DfuseParams] = None,
        retry_policy: Any = None,
        cohort: int = 1,
    ) -> None:
        if cohort < 1:
            raise ConfigError(f"cohort must be >= 1, got {cohort}")
        self.cluster = cluster
        self.pool = pool or Pool(cluster)
        self.jitter_sigma = jitter_sigma
        self.dfuse_params = dfuse_params or DfuseParams()
        #: RetryPolicy handed to every client this env creates
        self.retry_policy = retry_policy
        #: every client this env creates stands for this many identical
        #: clients (see :class:`WorkloadConfig.cohort`)
        self.cohort = cohort
        self._clients: Dict[int, DaosClient] = {}
        self._dfuse: Dict[int, DfuseMount] = {}
        self._il: Dict[int, InterceptedMount] = {}
        self._posix_container: Any = None

    def client(self, node: ClientNode) -> DaosClient:
        c = self._clients.get(node.index)
        if c is None:
            c = DaosClient(
                self.cluster, self.pool, node,
                jitter_sigma=self.jitter_sigma,
                retry_policy=self.retry_policy,
                cohort=self.cohort,
            )
            self._clients[node.index] = c
        return c

    def posix_container(self, dir_class: str = "SX", file_class: str = "SX") -> Any:
        """The shared container DFUSE mounts expose (created lazily)."""
        if self._posix_container is None:
            self._posix_container = self.pool.create_container(
                "posix", materialize=False,
                dir_class=dir_class, file_class=file_class,
            )
        return self._posix_container

    def dfuse(self, node: ClientNode, file_class: str = "SX") -> DfuseMount:
        m = self._dfuse.get(node.index)
        if m is None:
            cont = self.posix_container(file_class=file_class)
            dfs = Dfs(
                self.client(node),
                cont,
                dir_class=cont.properties.get("dir_class", "SX"),
                file_class=file_class,
            )
            m = DfuseMount(dfs, node, params=self.dfuse_params)
            self._dfuse[node.index] = m
        return m

    def il(self, node: ClientNode, file_class: str = "SX") -> InterceptedMount:
        w = self._il.get(node.index)
        if w is None:
            w = InterceptedMount(self.dfuse(node, file_class=file_class))
            self._il[node.index] = w
        return w


class LustreEnv:
    """Lustre deployment + per-node client cache."""

    def __init__(
        self,
        cluster: Cluster,
        fs: Optional[LustreFilesystem] = None,
        jitter_sigma: float = 0.02,
        retry_policy: Any = None,
    ) -> None:
        self.cluster = cluster
        self.fs = fs or LustreFilesystem(cluster)
        self.jitter_sigma = jitter_sigma
        #: RetryPolicy handed to every client this env creates
        self.retry_policy = retry_policy
        self._clients: Dict[int, LustreClient] = {}

    def client(self, node: ClientNode) -> LustreClient:
        c = self._clients.get(node.index)
        if c is None:
            c = LustreClient(
                self.fs, node, jitter_sigma=self.jitter_sigma,
                retry_policy=self.retry_policy,
            )
            self._clients[node.index] = c
        return c


class CephEnv:
    """Ceph deployment + per-node librados client cache."""

    def __init__(
        self,
        cluster: Cluster,
        ceph: Optional[CephCluster] = None,
        jitter_sigma: float = 0.02,
        retry_policy: Any = None,
    ) -> None:
        self.cluster = cluster
        self.ceph = ceph or CephCluster(cluster)
        self.jitter_sigma = jitter_sigma
        #: RetryPolicy handed to every client this env creates
        self.retry_policy = retry_policy
        self._clients: Dict[int, RadosClient] = {}

    def client(self, node: ClientNode) -> RadosClient:
        c = self._clients.get(node.index)
        if c is None:
            c = RadosClient(
                self.ceph, node, jitter_sigma=self.jitter_sigma,
                retry_policy=self.retry_policy,
            )
            self._clients[node.index] = c
        return c
