"""Outside-in per-layer tracing for the benchmark's traced runs.

The benchmark measures the program from outside: it wraps the public
entry points of each ``repro`` layer (listed in :data:`LAYERS`) while a
traced pass runs, and restores the originals afterwards.  No file under
``src/`` knows about it.

Every call of a wrapped entry point opens a span (name, start, end,
parent span, point id).  A generator entry point -- a simulated process
step such as ``DaosClient.array_write`` -- is timed per resume: each
``send``/``throw`` into it is one span, so the time a generator spends
suspended in the event calendar is never charged to it, and time spent
in a nested ``yield from`` of another wrapped generator goes to the
innermost span.  A layer's self time is the duration of its spans minus
the part their child spans cover.  Spans are kept in memory (up to a
cap) and written out when the benchmark ends.

Engine counts (events, recomputes, queue peak) come from the
simulator's own passive :class:`repro.obs.ProfileRecorder`, attached to
every cluster the traced pass builds.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Layer", "LAYERS", "Tracer", "installed", "layer_metrics", "per_layer_metrics"]


@dataclass(frozen=True)
class Layer:
    """One traced layer: the entry points whose spans make up its time.

    ``targets`` are ``"module:Qualname"`` strings: a module-level
    function (``"repro.fdb.schema:make_key"``), one method
    (``"repro.daos.array:DaosArray.write"``), or a whole class
    (``"repro.dfs.dfs:Dfs"``), meaning its constructor and each of its
    public methods.
    ``moves`` names the end-to-end metric the layer should move and
    ``loaded``/``idle`` the workloads on which it should be busy or not.
    """

    name: str
    targets: Tuple[str, ...]
    moves: str
    loaded: str
    idle: str = ""


#: the traced layers; the benchmark's per-layer metrics are
#: ``<name>.calls`` and ``<name>.self_s`` for each of them
LAYERS: Tuple[Layer, ...] = (
    Layer("harness.plan", ("repro.harness.figures:plan_figure",),
          "setup_s, wall_s", "all"),
    Layer("harness.assemble", ("repro.harness.plan:RunPlan.assemble",),
          "wall_s", "all"),
    Layer("harness.run_point", ("repro.harness.experiment:run_point",),
          "wall_s", "all"),
    Layer("hardware.cluster", (
        "repro.hardware.cluster:Cluster.__init__",
        "repro.workloads.common:DaosEnv.__init__",
        "repro.workloads.common:LustreEnv.__init__",
        "repro.workloads.common:CephEnv.__init__",
    ), "wall_s", "daos-bulk"),
    Layer("sim.run", ("repro.sim.core:Simulator.run",),
          "wall_s", "exact-faults, kv-metadata", "daos-bulk"),
    Layer("flownet.transfer", (
        "repro.sim.flownet:FlowNetwork.transfer",
        "repro.sim.flownet:FlowNetwork.cancel",
        "repro.sim.flownet:FlowNetwork.set_capacity",
    ), "wall_s", "kv-metadata (vector), exact-faults (scalar)", "daos-bulk"),
    Layer("daos.bulk_charges", ("repro.daos.array:DaosArray.bulk_charges",),
          "wall_s", "daos-bulk", "exact-faults"),
    Layer("daos.kv_loads", ("repro.daos.kv:DaosKV.bulk_op_loads",),
          "wall_s", "kv-metadata", "daos-bulk"),
    Layer("daos.placement", (
        "repro.daos.placement:place_groups",
        "repro.daos.placement:jump_consistent_hash",
    ), "wall_s", "daos-bulk"),
    Layer("daos.client", (
        "repro.daos.client:DaosClient.bulk_transfer",
        "repro.daos.client:DaosClient.array_write",
        "repro.daos.client:DaosClient.array_read",
        "repro.daos.client:DaosClient.kv_put",
        "repro.daos.client:DaosClient.kv_get",
    ), "wall_s", "exact-faults"),
    Layer("daos.array_data", (
        "repro.daos.array:DaosArray.write",
        "repro.daos.array:DaosArray.read",
    ), "wall_s", "exact-faults", "daos-bulk"),
    Layer("daos.rebuild", (
        "repro.daos.rebuild:plan_rebuild",
        "repro.daos.rebuild:run_rebuild",
        "repro.faults.retry:run_with_retry",
    ), "wall_s, fail_ratio", "exact-faults"),
    Layer("dfs", ("repro.dfs.dfs:Dfs",), "wall_s", "daos-bulk"),
    Layer("dfuse", (
        "repro.dfuse.mount:DfuseMount",
        "repro.dfuse.mount:InterceptedMount",
    ), "wall_s", "daos-bulk"),
    Layer("hdf5", (
        "repro.hdf5.daos_vol:Hdf5DaosVol",
        "repro.hdf5.posix:Hdf5PosixFile",
    ), "wall_s", "daos-bulk"),
    Layer("fdb.keys", (
        "repro.fdb.schema:make_key",
        "repro.fdb.schema:key_sequence",
    ), "wall_s", "kv-metadata"),
    Layer("lustre.mds", (
        "repro.lustre.mds:MetadataServer",
        "repro.lustre.client:LustreClient.mds_request",
    ), "wall_s", "kv-metadata"),
    Layer("lustre.transfer", ("repro.lustre.client:LustreClient.bulk_transfer",),
          "wall_s", "kv-metadata"),
    Layer("ceph.placement", (
        "repro.ceph.placement:PgMap.pg_of",
        "repro.ceph.placement:PgMap.acting_set",
        "repro.ceph.placement:PgMap.primary",
    ), "wall_s", "kv-metadata"),
    Layer("ceph.transfer", ("repro.ceph.rados:RadosClient.bulk_transfer",),
          "wall_s", "kv-metadata"),
    Layer("workloads.runner", (
        "repro.workloads.ior:run_ior",
        "repro.workloads.fieldio:run_fieldio",
        "repro.workloads.fdb_hammer:run_fdb_hammer",
        "repro.workloads.common:PhasedRunner",
    ), "wall_s", "daos-bulk, kv-metadata"),
)

#: the runner hooks every ``PhasedRunner`` subclass may override
RUNNER_HOOKS = ("setup", "setup_group", "batch_flow", "write_op", "read_op")

#: counts the traced run reports besides the per-layer ``.calls``
COUNT_METRICS = (
    "sim.events",
    "sim.queue_peak",
    "flownet.recomputes",
    "daos.ops_retried",
    "daos.failovers",
    "workload.lost_ops",
)


class Tracer:
    """Span stack plus per-layer call counts and self times."""

    def __init__(self, span_cap: int = 200_000) -> None:
        self.span_cap = span_cap
        #: layer -> [calls, self seconds, span seconds]
        self.stats: Dict[str, List[float]] = {}
        #: (span id, layer, start, end, parent id, point id), first
        #: ``span_cap`` spans opened
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.point = -1
        self._next_id = 0
        # open frames: [layer, start, child seconds, span id, parent id]
        self._stack: List[List[Any]] = []

    def cell(self, layer: str) -> List[float]:
        return self.stats.setdefault(layer, [0, 0.0, 0.0])

    def enter(self, layer: str) -> None:
        sid = self._next_id
        self._next_id = sid + 1
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        stack.append([layer, time.perf_counter(), 0.0, sid, parent])

    def exit(self) -> None:
        end = time.perf_counter()
        layer, start, child, sid, parent = self._stack.pop()
        duration = end - start
        cell = self.stats[layer]
        cell[1] += duration - child
        cell[2] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if sid < self.span_cap:
            self.spans.append((sid, layer, start, end, parent, self.point))

    @property
    def spans_dropped(self) -> int:
        return max(0, self._next_id - self.span_cap)

    def resumed(self, layer: str, gen: Any) -> Any:
        """Wrap generator ``gen`` so that each resume is one span."""
        wrapper = self._resume(layer, gen)
        # the kernel names a process after its generator
        wrapper.__name__ = gen.__name__
        wrapper.__qualname__ = gen.__qualname__
        return wrapper

    def _resume(self, layer: str, gen: Any) -> Any:
        value: Any = None
        thrown: Optional[BaseException] = None
        while True:
            self.enter(layer)
            try:
                if thrown is None:
                    item = gen.send(value)
                else:
                    exc, thrown = thrown, None
                    item = gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit()
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the wrapped generator
                value, thrown = None, exc

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A stand-in for ``fn`` that records its calls under ``layer``."""
        cell = self.cell(layer)
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args: Any, **kwargs: Any) -> Any:
                cell[0] += 1
                return self.resumed(layer, fn(*args, **kwargs))

            return _named(traced_gen, fn)

        def traced(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if isinstance(result, types.GeneratorType):
                return self.resumed(layer, result)
            return result

        return _named(traced, fn)


def _named(wrapper: Callable[..., Any], fn: Callable[..., Any]) -> Callable[..., Any]:
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__module__ = fn.__module__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _public_methods(cls: type) -> List[str]:
    """The constructor and public methods a class defines itself."""
    return [
        name for name, value in vars(cls).items()
        if (name == "__init__" or not name.startswith("_")) and inspect.isfunction(value)
    ]


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _resolve(target: str) -> List[Tuple[Any, str]]:
    """``(owner, attribute)`` pairs a target string names."""
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return [(getattr(module, cls_name), attr)]
    obj = getattr(module, qualname)
    if not isinstance(obj, type):
        return [(module, qualname)]
    if qualname == "PhasedRunner":
        # the runner hooks live on the per-benchmark subclasses
        return [
            (cls, hook)
            for cls in _subclasses(obj)
            for hook in RUNNER_HOOKS
            if hook in vars(cls)
        ]
    return [(obj, name) for name in _public_methods(obj)]


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind_function(self, original: Any, replacement: Any) -> None:
        """Replace a module-level function in every ``repro`` module that
        imported it by name."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _Counters:
    """Per-point retry/failover counts read off the DAOS clients a
    point created (the clients' own counters, summed once the point
    is done so no cluster outlives its point)."""

    def __init__(self) -> None:
        self.retried = 0
        self.failovers = 0
        self.clients: List[Any] = []

    def harvest(self) -> None:
        for client in self.clients:
            self.retried += client.retries
            self.failovers += client.failed_over
        self.clients.clear()


@dataclass
class TraceSession:
    """What one traced pass recorded."""

    tracer: Tracer
    profile: Any
    counters: _Counters


def installed(tracer: Tracer) -> "_Installed":
    """Context manager: wrap every entry point of :data:`LAYERS` for
    the duration and attach ``tracer``'s engine profile to each cluster
    built meanwhile."""
    return _Installed(tracer)


class _Installed:
    def __init__(self, tracer: Tracer) -> None:
        from repro.obs import ProfileRecorder

        self.session = TraceSession(tracer, ProfileRecorder(), _Counters())
        self._patches = _Patches()

    def __enter__(self) -> TraceSession:
        tracer = self.session.tracer
        patches = self._patches
        try:
            for layer in LAYERS:
                for target in layer.targets:
                    for owner, attr in _resolve(target):
                        original = getattr(owner, attr)
                        wrapped = tracer.wrap(layer.name, original)
                        if isinstance(owner, types.ModuleType):
                            patches.rebind_function(original, wrapped)
                        else:
                            patches.set(owner, attr, wrapped)
            self._install_hooks()
        except BaseException:
            patches.undo()
            raise
        return self.session

    def _install_hooks(self) -> None:
        from repro.daos.client import DaosClient
        from repro.harness import experiment
        from repro.hardware.cluster import Cluster

        session = self.session
        patches = self._patches
        cluster_init = Cluster.__init__

        def init_cluster(cluster: Any, *args: Any, **kwargs: Any) -> None:
            cluster_init(cluster, *args, **kwargs)
            if cluster.sim.profile is None:
                cluster.sim.profile = session.profile

        patches.set(Cluster, "__init__", _named(init_cluster, cluster_init))

        client_init = DaosClient.__init__

        def init_client(client: Any, *args: Any, **kwargs: Any) -> None:
            client_init(client, *args, **kwargs)
            session.counters.clients.append(client)

        patches.set(DaosClient, "__init__", _named(init_client, client_init))

        run_point = experiment.run_point  # already the traced stand-in

        def point(*args: Any, **kwargs: Any) -> Any:
            session.tracer.point += 1
            try:
                return run_point(*args, **kwargs)
            finally:
                session.counters.harvest()

        patches.rebind_function(run_point, _named(point, run_point))

    def __exit__(self, *exc: Any) -> None:
        self._patches.undo()


def layer_metrics(session: TraceSession) -> Dict[str, float]:
    """The traced pass's per-layer figures, by metric name."""
    tracer, profile, counters = session.tracer, session.profile, session.counters
    out: Dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s, _ = tracer.cell(layer.name)
        out[f"{layer.name}.calls"] = int(calls)
        out[f"{layer.name}.self_s"] = float(self_s)
    run_s = tracer.cell("sim.run")[2]
    out["sim.events"] = profile.events_dispatched
    out["sim.events_per_s"] = profile.events_dispatched / run_s if run_s > 0 else 0.0
    out["sim.queue_peak"] = profile.queue_depth_peak
    recomputes = profile.recomputes
    out["flownet.recomputes"] = recomputes
    out["flownet.recompute_s"] = profile.recompute_wall
    out["flownet.flows_per_recompute"] = (
        profile.recompute_flows / recomputes if recomputes else 0.0
    )
    out["flownet.full_ratio"] = profile.recomputes_full / recomputes if recomputes else 0.0
    out["daos.ops_retried"] = counters.retried
    out["daos.failovers"] = counters.failovers
    return out


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    out: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer.name}.calls", "count", "lower"))
        out.append((f"{layer.name}.self_s", "s", "lower"))
    out += [
        ("sim.events", "count", "lower"),
        ("sim.events_per_s", "1/s", "higher"),
        ("sim.queue_peak", "count", "lower"),
        ("flownet.recomputes", "count", "lower"),
        ("flownet.recompute_s", "s", "lower"),
        ("flownet.flows_per_recompute", "count", "lower"),
        ("flownet.full_ratio", "ratio", "lower"),
        ("daos.ops_retried", "count", "lower"),
        ("daos.failovers", "count", "lower"),
        ("workload.lost_ops", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out
