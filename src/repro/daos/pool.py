"""DAOS pool: engines, targets, the target ring, and the pool service.

Deployment model (paper Section II-B): one engine per server VM, 16
targets per engine — one per NVMe device — with object/KV metadata in
DRAM.  The pool service (RSVC) runs on a small fixed set of engines and
serves pool/container-level metadata; its capacity therefore does not
scale with the pool, which matters for workloads that funnel per-op
metadata through it (the HDF5 DAOS adaptor).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.daos.params import DaosParams
from repro.errors import ConfigError, NotFoundError
from repro.daos.placement import interleave_ring
from repro.hardware.cluster import Cluster, ServerNode
from repro.hardware.ssd import SsdDevice
from repro.sim.flownet import Link

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = ["Target", "Engine", "Pool"]


class Target:
    """One DAOS target: a VOS instance bound to one NVMe device.

    Holds the functional shard stores.  ``kv_shards`` maps
    ``(container_id, oid, shard_index)`` to a dict of key->value;
    ``array_shards`` maps the same tuple to a dict of chunk_index->bytes.
    """

    def __init__(self, engine: "Engine", local_index: int, device: SsdDevice):
        self.engine = engine
        #: the server node hosting the engine (and the device)
        self.node = engine.node
        self.local_index = local_index
        self.device = device
        self.global_index: int = -1  # assigned by the pool
        self.alive = True
        self.kv_shards: Dict[Tuple, Dict] = {}
        self.array_shards: Dict[Tuple, Dict[int, bytes]] = {}

    @property
    def name(self) -> str:
        return f"{self.engine.name}.tgt{self.local_index}"

    def fail(self) -> None:
        """Take the target down; its shards become unreachable (and are
        dropped, as on a lost device)."""
        self.alive = False
        for shard in self.array_shards.values():
            for key, value in shard.items():
                if isinstance(key, tuple) and key and key[0] == "__sizes__":
                    self.device.release(value)
        self.kv_shards.clear()
        self.array_shards.clear()

    @property
    def used_bytes(self) -> int:
        """Media bytes attributed to this target's shards."""
        total = 0
        for shard in self.array_shards.values():
            for key, value in shard.items():
                if isinstance(key, tuple) and key and key[0] == "__sizes__":
                    total += value
        return total

    def restore(self) -> None:
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.alive else "DOWN"
        return f"<Target {self.name} {state}>"


class Engine:
    """One DAOS engine (per server node): 16 targets + a metadata service."""

    def __init__(self, pool: "Pool", node: ServerNode, index: int):
        self.pool = pool
        self.node = node
        self.index = index
        self.name = f"{pool.label}.eng{index}"
        self.md_link: Link = pool.cluster.net.add_link(
            f"{self.name}.md", pool.params.md_capacity_per_engine
        )
        self.targets: List[Target] = [
            Target(self, d, device) for d, device in enumerate(node.devices)
        ]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Engine {self.name} targets={len(self.targets)}>"


class Pool:
    """A DAOS pool spanning the given server nodes (default: all)."""

    def __init__(
        self,
        cluster: Cluster,
        label: str = "pool0",
        params: Optional[DaosParams] = None,
        server_nodes: Optional[List[ServerNode]] = None,
    ):
        nodes = server_nodes if server_nodes is not None else cluster.servers
        if not nodes:
            raise ConfigError("a pool needs at least one server node")
        self.cluster = cluster
        self.label = label
        self.params = params or DaosParams()
        self.engines: List[Engine] = [Engine(self, n, i) for i, n in enumerate(nodes)]
        #: node-interleaved ring: consecutive entries sit on distinct nodes
        self.ring: List[Target] = interleave_ring([e.targets for e in self.engines])
        for idx, target in enumerate(self.ring):
            target.global_index = idx
        #: the ring twice over, so a window that wraps is one slice
        self._ring2: List[Target] = self.ring + self.ring
        #: per ring slot, the index of the engine serving it
        self.slot_engine: NDArray[np.intp] = np.array(
            [t.engine.index for t in self.ring], dtype=np.intp
        )
        #: pool service (RSVC): fixed capacity regardless of pool size
        self.rsvc_link: Link = cluster.net.add_link(
            f"{label}.rsvc", self.params.pool_service_capacity
        )
        self._containers: Dict[str, "Container"] = {}
        self._next_container_id = 0
        #: bumped on every pool-map change (target fail/restore, rebuild
        #: shard relocation)
        self.map_version = 0

    # -- topology ------------------------------------------------------------
    @property
    def n_targets(self) -> int:
        return len(self.ring)

    @property
    def targets(self) -> List[Target]:
        return list(self.ring)

    def alive_targets(self) -> List[Target]:
        return [t for t in self.ring if t.alive]

    def alive_mask(self) -> NDArray[np.bool_]:
        """Per ring slot, whether its target is up.  Read from the
        targets themselves, so a target failed without a pool-map bump
        counts as down too."""
        return np.fromiter((t.alive for t in self.ring), dtype=bool, count=len(self.ring))

    def ring_groups(self, start: int, n_groups: int, width: int) -> List[List[Target]]:
        """``n_groups`` consecutive windows of ``width`` ring targets from
        slot ``start``, wrapping; every window is a fresh list, so an
        object may edit its layout in place (rebuild does)."""
        ring2 = self._ring2
        return [ring2[s : s + width] for s in range(start, start + n_groups * width, width)]

    # -- containers (functional; timing lives in DaosClient) -----------------
    def create_container(self, label: str, **properties) -> "Container":
        from repro.daos.container import Container

        if label in self._containers:
            from repro.errors import ExistsError

            raise ExistsError(f"container {label!r} already exists in {self.label}")
        cont = Container(self, label, self._next_container_id, properties)
        self._next_container_id += 1
        self._containers[label] = cont
        return cont

    def get_container(self, label: str) -> "Container":
        try:
            return self._containers[label]
        except KeyError:
            raise NotFoundError(f"container {label!r} not found in {self.label}") from None

    def destroy_container(self, label: str) -> None:
        cont = self.get_container(label)
        cont.wipe()
        del self._containers[label]

    @property
    def n_containers(self) -> int:
        return len(self._containers)

    # -- space accounting --------------------------------------------------------
    def query(self) -> dict:
        """Pool space report (the functional side of ``daos pool query``)."""
        capacity = sum(t.device.capacity_bytes for t in self.ring)
        used = sum(t.device.used_bytes for t in self.ring if t.alive)
        return {
            "targets_total": self.n_targets,
            "targets_alive": len(self.alive_targets()),
            "capacity_bytes": capacity,
            "used_bytes": used,
            "free_bytes": capacity - used,
            "containers": self.n_containers,
        }

    # -- failure injection -----------------------------------------------------
    def fail_target(self, global_index: int) -> Target:
        target = self.ring[global_index]
        target.fail()
        self.map_version += 1
        return target

    def restore_target(self, global_index: int) -> Target:
        target = self.ring[global_index]
        target.restore()
        self.map_version += 1
        return target

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Pool {self.label} engines={len(self.engines)} targets={self.n_targets}>"
        )
