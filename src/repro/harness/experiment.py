"""One experiment point: deployment + benchmark + repetitions.

The paper's methodology (Section II): "Each and every test was repeated
3 times, and the average and standard deviation of the measured
bandwidths are shown in the figures."  :func:`run_point` builds a fresh
cluster per repetition (seeded differently, so placement hashes and
overhead jitter vary), runs the workload, and aggregates with
:func:`repro.sim.stats.mean_std`.

Seeding scheme
--------------
Every repetition's cluster seed is :func:`point_seed`, a stable 63-bit
integer derived by SHA-256 from the *content* of the point —
``(spec_token(spec), rep, base_seed)`` — rather than from the position
of the run in some sweep.  Consequences the rest of the harness relies
on:

- **no collisions by construction**: the retired ``base_seed * 1000 +
  rep`` scheme collided as soon as ``rep >= 1000`` or two base seeds
  were 1 apart in units of 1000; hash-derived seeds only collide if
  SHA-256 does;
- **executor independence**: a point's seed does not depend on which
  process runs it, in what order, or alongside which other points, so
  serial, process-per-point, and cached executions are bit-identical;
- **spec sensitivity**: changing any field of the spec decorrelates the
  random stream, so figure points never share placement jitter just
  because they were enumerated at the same sweep index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.faults import FaultController, parse_fault_plan
from repro.hardware.cluster import Cluster
from repro.sim.stats import PhaseRecorder, mean_std
from repro.units import MiB, left_sum
from repro.workloads.common import CephEnv, DaosEnv, LustreEnv, WorkloadConfig
from repro.workloads.fdb_hammer import run_fdb_hammer
from repro.workloads.fieldio import run_fieldio
from repro.workloads.ior import run_ior
from repro.workloads.rawio import measure_dd, measure_iperf

__all__ = [
    "MODEL_VERSION",
    "PROFILE_WINDOWS",
    "PointSpec",
    "PointResult",
    "point_seed",
    "run_point",
    "spec_token",
]

#: Version tag of the simulation model's semantics.  Bump whenever a
#: change alters modelled numbers (seeding scheme, flow-network rates,
#: overhead constants, ...) so the on-disk result cache invalidates
#: stale entries instead of serving results from an older model.
MODEL_VERSION = "4"

_STORES = ("daos", "lustre", "ceph")
_WORKLOADS = ("ior", "fieldio", "fdb", "rawio")
_RAWIO_PROBES = ("dd", "iperf")

#: windows of the time-resolved bandwidth profile fault runs retain
PROFILE_WINDOWS = 16


@dataclass(frozen=True)
class PointSpec:
    """Full description of one data point in a figure."""

    workload: str  # "ior" | "fieldio" | "fdb"
    store: str  # "daos" | "lustre" | "ceph"
    api: str = ""  # IOR api or fdb backend name (empty for fieldio)
    n_servers: int = 16
    n_client_nodes: int = 16
    ppn: int = 16
    ops_per_process: int = 64
    op_size: int = MiB
    object_class: str = "SX"
    kv_object_class: str = "S1"
    batches: int = 2
    mode: str = "aggregate"
    #: runner-specific kwargs (stripe_count, pg_num, ...), as sorted items
    extra: Tuple[Tuple[str, object], ...] = ()
    #: fault-plan spec string (see ``docs/FAULTS.md``); "" = no faults.
    #: Stored in canonical form so equal plans hash equally.
    faults: str = ""
    #: client aggregation: each configured client node stands for this
    #: many identical nodes (DAOS aggregate mode only; see
    #: docs/PERFORMANCE.md).  1 = plain per-node simulation.
    cohort: int = 1

    def __post_init__(self) -> None:
        if self.cohort < 1:
            raise ConfigError(f"cohort must be >= 1, got {self.cohort}")
        if self.cohort > 1 and self.store != "daos":
            raise ConfigError(
                f"cohort aggregation is DAOS-only, got store {self.store!r}"
            )
        if self.store not in _STORES:
            raise ConfigError(f"unknown store {self.store!r}")
        if self.workload not in _WORKLOADS:
            raise ConfigError(f"unknown workload {self.workload!r}")
        if self.workload == "rawio" and self.api not in _RAWIO_PROBES:
            raise ConfigError(
                f"rawio probe must be one of {_RAWIO_PROBES}, got {self.api!r}"
            )
        if self.faults:
            if self.workload == "rawio":
                raise ConfigError("rawio probes do not support fault injection")
            # validate eagerly and canonicalise (round-trip the parser)
            object.__setattr__(self, "faults", parse_fault_plan(self.faults).spec())

    def with_(self, **kwargs) -> "PointSpec":
        return replace(self, **kwargs)

    @property
    def extra_kwargs(self) -> Dict[str, object]:
        return dict(self.extra)

    @property
    def total_processes(self) -> int:
        return self.n_client_nodes * self.ppn

    @property
    def modelled_processes(self) -> int:
        """Client processes the point *represents* (cohort included)."""
        return self.n_client_nodes * self.ppn * self.cohort


@dataclass
class PointResult:
    """Aggregated measurements of one point (bytes/s and ops/s).

    Fault-bearing points additionally carry per-phase time-resolved
    bandwidth profiles — :data:`PROFILE_WINDOWS` ``(time, mean B/s,
    std B/s)`` triples, aggregated window-by-window across reps — and
    the mean/std count of operations lost to exhausted redundancy.
    Fault-free points leave them empty (schema defaults).

    ``record`` is the point's telemetry: the finalized
    :meth:`~repro.obs.Observability.dump` of the private Observability
    an observed build ran it under (see
    :func:`repro.harness.executor.execute_plans`).  It is not a modelled
    number, so it takes no part in equality, ``repr`` or the cache
    encoding, and a cached result never carries one.
    """

    spec: PointSpec
    write_bw: Tuple[float, float]  # (mean, std)
    read_bw: Tuple[float, float]
    write_iops: Tuple[float, float]
    read_iops: Tuple[float, float]
    reps: int
    write_windows: Tuple[Tuple[float, float, float], ...] = ()
    read_windows: Tuple[Tuple[float, float, float], ...] = ()
    lost_ops: Tuple[float, float] = (0.0, 0.0)
    record: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    def bw(self, phase: str) -> float:
        return (self.write_bw if phase == "write" else self.read_bw)[0]

    def iops(self, phase: str) -> float:
        return (self.write_iops if phase == "write" else self.read_iops)[0]

    def windows(self, phase: str) -> Tuple[Tuple[float, float, float], ...]:
        return self.write_windows if phase == "write" else self.read_windows


def spec_token(spec: PointSpec) -> str:
    """Canonical, process-independent text encoding of a spec.

    Field order is the dataclass definition order (stable in source),
    values are ``repr``s of plain ints/strings/tuples, so the token is
    identical across interpreter runs and worker processes (it never
    depends on ``PYTHONHASHSEED``).  Both the seed derivation and the
    result cache key hash this token.

    Later-added fields are skipped at their default (``faults`` at
    ``""``, ``cohort`` at ``1``), so pre-existing points keep the token
    — and therefore the seed and every modelled number — they had
    before the field existed.  Injectivity holds: a non-default value
    always appears, prefixed by its unique field name.
    """
    skip_at_default = {"faults": "", "cohort": 1}
    parts = [
        f"{f.name}={getattr(spec, f.name)!r}"
        for f in fields(spec)
        if getattr(spec, f.name) != skip_at_default.get(f.name, object())
    ]
    return "PointSpec(" + ", ".join(parts) + ")"


def point_seed(spec: PointSpec, rep: int, base_seed: int = 0) -> int:
    """Stable 63-bit seed for one repetition of one point.

    Derived by SHA-256 over ``(spec_token(spec), rep, base_seed)`` —
    see the module docstring for the properties this guarantees.
    """
    payload = f"{spec_token(spec)}|rep={rep}|base={base_seed}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # non-negative 63-bit


def _build_env(spec: PointSpec, seed: int):
    cluster = Cluster(
        n_servers=spec.n_servers, n_clients=spec.n_client_nodes, seed=seed
    )
    if spec.store == "daos":
        return DaosEnv(cluster, cohort=spec.cohort)
    if spec.store == "lustre":
        return LustreEnv(cluster)
    return CephEnv(cluster)


def _run_rawio(spec: PointSpec, seed: int) -> Tuple[float, float, float, float]:
    """Hardware probes (paper Sec. III-A) as plannable points."""
    cluster = Cluster(
        n_servers=spec.n_servers, n_clients=spec.n_client_nodes, seed=seed
    )
    extra = spec.extra_kwargs
    if spec.api == "dd":
        dd = measure_dd(cluster, **extra)
        phases = (dd.write_bw, dd.read_bw)
    else:
        bw = measure_iperf(cluster, **extra)
        phases = (bw, bw)
    if cluster.obs is not None:
        cluster.obs.finalize_run(cluster)
    return phases[0], phases[1], 0.0, 0.0


def _run_once(spec: PointSpec, seed: int):
    """One seeded simulation; returns ``(write B/s, read B/s, write
    op/s, read op/s, {phase: bandwidth profile}, lost op count)``.

    Profiles are only computed (and records only retained) when the
    spec carries a fault plan; fault-free points pay nothing for them.
    """
    if spec.workload == "rawio":
        w, r, wi, ri = _run_rawio(spec, seed)
        return w, r, wi, ri, {}, 0
    env = _build_env(spec, seed)
    if spec.faults:
        FaultController(env, parse_fault_plan(spec.faults))
    cfg = WorkloadConfig(
        n_client_nodes=spec.n_client_nodes,
        ppn=spec.ppn,
        ops_per_process=spec.ops_per_process,
        op_size=spec.op_size,
        mode=spec.mode,
        batches=spec.batches,
        object_class=spec.object_class,
        kv_object_class=spec.kv_object_class,
        cohort=spec.cohort,
    )
    recorder = PhaseRecorder(keep_records=bool(spec.faults))
    if spec.workload == "ior":
        recorder = run_ior(env, cfg, spec.api, recorder=recorder, **spec.extra_kwargs)
    elif spec.workload == "fieldio":
        recorder = run_fieldio(env, cfg, recorder=recorder)
    else:
        recorder = run_fdb_hammer(
            env, cfg, spec.api, recorder=recorder, **spec.extra_kwargs
        )
    if env.cluster.obs is not None:
        env.cluster.obs.finalize_run(env.cluster)
    profiles = {}
    lost = 0
    if spec.faults:
        for phase in ("write", "read"):
            profile = recorder.bandwidth_profile(phase, PROFILE_WINDOWS)
            if profile:
                profiles[phase] = profile
            lost += recorder.lost_ops(phase)
    return (
        recorder.bandwidth("write"),
        recorder.bandwidth("read"),
        recorder.iops("write"),
        recorder.iops("read"),
        profiles,
        lost,
    )


def run_point(spec: PointSpec, reps: int = 3, base_seed: int = 0) -> PointResult:
    """Run ``reps`` repetitions and aggregate (paper methodology).

    Repetition ``rep`` is seeded with ``point_seed(spec, rep,
    base_seed)``, so the result is a pure function of ``(spec, reps,
    base_seed)`` — independent of process, executor, and run order.
    That is what lets
    :class:`repro.harness.resilience.ResilientParallelExecutor` run each
    point in a forked child of its own, and rerun a point whose child
    crashed, without changing a bit.

    Under an active :class:`repro.obs.Observability` (see
    ``repro.obs.activated``) every repetition binds to it as one trace
    pid.
    """
    if reps < 1:
        raise ConfigError(f"need >= 1 repetition, got {reps}")
    w_bw, r_bw, w_io, r_io = [], [], [], []
    profile_runs: Dict[str, list] = {"write": [], "read": []}
    lost_counts = []
    for rep in range(reps):
        w, r, wi, ri, profiles, lost = _run_once(
            spec, seed=point_seed(spec, rep, base_seed)
        )
        w_bw.append(w)
        r_bw.append(r)
        w_io.append(wi)
        r_io.append(ri)
        lost_counts.append(float(lost))
        for phase, profile in profiles.items():
            profile_runs[phase].append(profile)
    return PointResult(
        spec=spec,
        write_bw=mean_std(w_bw),
        read_bw=mean_std(r_bw),
        write_iops=mean_std(w_io),
        read_iops=mean_std(r_io),
        reps=reps,
        write_windows=_aggregate_windows(profile_runs["write"]),
        read_windows=_aggregate_windows(profile_runs["read"]),
        lost_ops=mean_std(lost_counts) if spec.faults else (0.0, 0.0),
    )


def _aggregate_windows(runs: list) -> Tuple[Tuple[float, float, float], ...]:
    """Window-by-window aggregation of per-rep bandwidth profiles into
    ``(mean time, mean B/s, std B/s)`` triples (reps differ slightly in
    phase extent, so times are averaged like the bandwidths)."""
    if not runs:
        return ()
    n_windows = min(len(profile) for profile in runs)
    out = []
    for w in range(n_windows):
        t_mean = left_sum(profile[w][0] for profile in runs) / len(runs)
        bw_mean, bw_std = mean_std([profile[w][1] for profile in runs])
        out.append((t_mean, bw_mean, bw_std))
    return tuple(out)
