"""FaultController: a simulator process executing a :class:`FaultPlan`.

One controller serves one workload environment (``DaosEnv`` /
``LustreEnv`` / ``CephEnv`` — dispatched structurally on the ``pool`` /
``fs`` / ``ceph`` attribute, so there is no import cycle with the
workload layer; the DAOS rebuild is imported where it is spawned, so
importing this package imports no store).  Each event runs as its own
process: wait for the anchor phase (if any), sleep to the injection
time, drive the failure primitive, optionally spawn a throttled DAOS
rebuild as background traffic, and optionally undo the fault after its
recovery delay.

Observability (dormant unless the cluster carries an ``Observability``):
``faults.injected`` / ``faults.recovered`` counters, a
``faults.rebuild_active`` gauge (auto-sampled into timelines as the
rebuild-traffic channel), and a ``fault.<kind>`` span covering each
fault's outage window.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Union

from repro.errors import ConfigError
from repro.faults.plan import PARTITION_FACTOR, FaultEvent, FaultPlan, parse_fault_plan
from repro.obs.ledger import NULL_LEDGER

if TYPE_CHECKING:
    from repro.daos.rebuild import RebuildReport

__all__ = ["FaultController"]


class FaultController:
    """Schedules and executes the events of a fault plan."""

    def __init__(self, env: Any, plan: Union[FaultPlan, str]) -> None:
        if isinstance(plan, str):
            plan = parse_fault_plan(plan)
        self.env = env
        self.plan = plan
        self.cluster = env.cluster
        self.sim = env.cluster.sim
        self.net = env.cluster.net
        self.injected = 0
        self.recovered = 0
        self.reports: List[RebuildReport] = []
        self._phase_signals: Dict[str, Any] = {}
        self._link_caps: Dict[str, float] = {}
        self._rebuilds_running = 0
        # the workload layer reaches the controller through the cluster
        self.cluster.fault_controller = self
        # Observability (dormant when the cluster carries none).
        self._ledger = NULL_LEDGER
        self._obs = env.cluster.obs
        if self._obs is not None:
            if self._obs.ledger is not None:
                self._ledger = self._obs.ledger
            reg = self._obs.registry
            self._m_injected = reg.counter(
                "faults.injected", unit="faults",
                description="fault events executed by the controller",
            )
            self._m_recovered = reg.counter("faults.recovered", unit="faults")
            self._g_rebuild = reg.gauge(
                "faults.rebuild_active", unit="rebuilds",
                description="background rebuild passes in flight",
            )
        for i, event in enumerate(self.plan.events):
            self.sim.process(self._event_main(event), name=f"fault.{i}.{event.kind}")

    # -- hooks for the workload layer ---------------------------------------
    def mark_phase(self, name: str) -> None:
        """Anchor ``phase+offset`` events: every rank calls this as it
        enters a phase (all ranks at the same simulated time, so the
        first call wins and the rest are no-ops)."""
        sig = self._phase_signal(name)
        if not sig.fired:
            sig.succeed()

    @property
    def objects_lost(self) -> List[str]:
        """Objects reported unrecoverable across all rebuild passes."""
        return [oid for report in self.reports for oid in report.objects_lost]

    # -- internals -----------------------------------------------------------
    def _phase_signal(self, name: str) -> Any:
        sig = self._phase_signals.get(name)
        if sig is None:
            sig = self.sim.signal(name=f"fault-phase.{name}")
            self._phase_signals[name] = sig
        return sig

    def _event_main(self, event: FaultEvent) -> Generator[Any, Any, None]:
        if event.phase is not None:
            yield self._phase_signal(event.phase)
        if event.at > 0:
            yield self.sim.timeout(event.at)
        span = None
        if self._obs is not None:
            span = self._obs.tracer.begin(
                f"fault.{event.kind}", cat="fault",
                args={"arg": event.arg, "recover": event.recover or 0.0},
            )
            self._m_injected.inc()
        self.injected += 1
        self._inject(event)
        if event.recover is not None:
            yield self.sim.timeout(event.recover)
            self._recover(event)
            self.recovered += 1
            if self._obs is not None:
                self._m_recovered.inc()
        if span is not None:
            self._obs.tracer.finish(span)

    def _inject(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == "target":
            self._set_unit(event.index, alive=False, rebuild=event)
        elif kind == "server":
            node = self._server(event.index)
            self._set_node(node, alive=False, rebuild=event)
        elif kind == "ssd":
            self._ssd_units(event.arg, alive=False, rebuild=event)
        elif kind == "link":
            link = self._link(event.arg)
            self._link_caps.setdefault(event.arg, link.capacity)
            factor = event.factor if event.factor > 0 else PARTITION_FACTOR
            self.net.set_capacity(event.arg, self._link_caps[event.arg] * factor)

    def _recover(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == "target":
            self._set_unit(event.index, alive=True)
        elif kind == "server":
            self._set_node(self._server(event.index), alive=True)
        elif kind == "ssd":
            self._ssd_units(event.arg, alive=True)
        elif kind == "link":
            self.net.set_capacity(event.arg, self._link_caps[event.arg])

    # -- backend dispatch ----------------------------------------------------
    def _storage_units(self) -> List[Any]:
        """The backend's failable units, in global-index order."""
        env = self.env
        if hasattr(env, "pool"):
            return list(env.pool.ring)
        if hasattr(env, "fs"):
            return list(env.fs.osts)
        if hasattr(env, "ceph"):
            return list(env.ceph.osds)
        raise ConfigError(f"environment {type(env).__name__} has no storage units")

    def _set_unit(self, index: int, alive: bool, rebuild: Optional[FaultEvent] = None) -> None:
        units = self._storage_units()
        if not 0 <= index < len(units):
            raise ConfigError(
                f"storage unit index {index} out of range 0..{len(units) - 1}"
            )
        unit = units[index]
        if alive:
            if hasattr(self.env, "pool"):
                self.env.pool.restore_target(index)
            else:
                unit.restore()
        else:
            if hasattr(self.env, "pool"):
                self.env.pool.fail_target(index)
            else:
                unit.fail()
            if rebuild is not None and rebuild.rebuild:
                self._spawn_rebuild([unit], rebuild.share)

    def _set_node(self, node: Any, alive: bool, rebuild: Optional[FaultEvent] = None) -> None:
        failed: List[Any] = []
        pool = getattr(self.env, "pool", None)
        for unit in self._storage_units():
            unit_node = unit.engine.node if pool is not None else unit.node
            if unit_node is not node:
                continue
            if alive:
                if pool is not None:
                    pool.restore_target(unit.global_index)
                else:
                    unit.restore()
            else:
                if pool is not None:
                    pool.fail_target(unit.global_index)
                else:
                    unit.fail()
                failed.append(unit)
        if failed and rebuild is not None and rebuild.rebuild:
            self._spawn_rebuild(failed, rebuild.share)

    def _ssd_units(self, arg: str, alive: bool, rebuild: Optional[FaultEvent] = None) -> None:
        device = self._device(arg)
        if alive:
            device.restore()
        else:
            device.fail()
        pool = getattr(self.env, "pool", None)
        failed: List[Any] = []
        for index, unit in enumerate(self._storage_units()):
            if unit.device is not device:
                continue
            if alive:
                if pool is not None:
                    pool.restore_target(index)
                else:
                    unit.restore()
            else:
                if pool is not None:
                    pool.fail_target(index)
                else:
                    unit.fail()
                failed.append(unit)
        if failed and rebuild is not None and rebuild.rebuild:
            self._spawn_rebuild(failed, rebuild.share)

    def _spawn_rebuild(self, targets: List[Any], share: float) -> None:
        pool = getattr(self.env, "pool", None)
        if pool is None:
            return  # only DAOS has server-driven rebuild
        self.sim.process(
            self._rebuild_main(pool, targets, share),
            name=f"fault.rebuild.{targets[0].name}",
        )

    def _rebuild_main(self, pool: Any, targets: List[Any], share: float) -> Generator[Any, Any, None]:
        # the store clients import repro.faults.retry, so a module-level
        # import of the DAOS package here would be circular
        from repro.daos.rebuild import run_rebuild

        self._rebuilds_running += 1
        if self._obs is not None:
            self._g_rebuild.set(self._rebuilds_running)
        self._ledger.rebuild_begin(self.sim.now)
        try:
            for target in targets:
                report = yield from run_rebuild(pool, target, bandwidth_share=share)
                self.reports.append(report)
        finally:
            self._ledger.rebuild_end(self.sim.now)
            self._rebuilds_running -= 1
            if self._obs is not None:
                self._g_rebuild.set(self._rebuilds_running)

    # -- argument resolution -------------------------------------------------
    def _server(self, index: int) -> Any:
        servers = self.cluster.servers
        if not 0 <= index < len(servers):
            raise ConfigError(
                f"server index {index} out of range 0..{len(servers) - 1}"
            )
        return servers[index]

    def _device(self, arg: str) -> Any:
        node_part, _, dev_part = arg.partition(".")
        try:
            node_index = int(node_part.removeprefix("srv"))
            dev_index = int(dev_part.removeprefix("ssd"))
        except ValueError:
            raise ConfigError(
                f"ssd fault argument must look like 'srv0.ssd2': {arg!r}"
            ) from None
        node = self._server(node_index)
        if not 0 <= dev_index < len(node.devices):
            raise ConfigError(
                f"device index {dev_index} out of range 0..{len(node.devices) - 1}"
            )
        return node.devices[dev_index]

    def _link(self, name: str) -> Any:
        from repro.errors import SimulationError

        try:
            return self.net.link(name)
        except SimulationError:
            raise ConfigError(f"unknown link {name!r} in fault plan") from None
