"""Cluster builder: nodes, NIC links, SSD links, fabric parameters.

A :class:`Cluster` owns a simulator, a flow network, and two node lists.
Storage systems are deployed *onto* server nodes; benchmark rank groups
run *on* client nodes.  The GCP fabric is full-bisection at node NIC
speed (the paper verified line rate with iperf), so the model has no core
bottleneck link — only per-node NIC TX/RX links and per-device SSD
channels, plus an aggregate SSD link per server so that fully-striped
("SX") traffic can be routed with one link instead of sixteen.

The aggregate link is exact, not an approximation, for traffic that
spreads uniformly over a node's devices: its capacity equals the sum of
the device channels.  Traffic that targets a *specific* device (an "S1"
object, a Ceph primary OSD) uses both its device link and the node
aggregate, which makes the two granularities mutually consistent in the
max-min allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import repro.obs
from repro.errors import ConfigError
from repro.hardware.specs import (
    CLIENT_N2_HIGHCPU_32,
    SERVER_N2_CUSTOM_36,
    ClientSpec,
    ServerSpec,
)
from repro.hardware.ssd import SsdDevice
from repro.sim.core import Simulator
from repro.sim.flownet import FlowNetwork, Link
from repro.sim.randomness import RngStreams

__all__ = ["Cluster", "ServerNode", "ClientNode", "FabricParams"]


@dataclass(frozen=True)
class FabricParams:
    """Network fabric constants shared by all deployments."""

    #: one-way client<->server latency (seconds); GCP same-zone VM-to-VM
    rtt_half: float = 25e-6

    @property
    def rtt(self) -> float:
        return 2 * self.rtt_half


class ServerNode:
    """A storage server VM: NIC links, 16 SSD devices, and an aggregate
    SSD link per direction for uniformly striped traffic."""

    def __init__(self, cluster: "Cluster", index: int, spec: ServerSpec):
        self.cluster = cluster
        self.index = index
        self.spec = spec
        net = cluster.net
        name = f"srv{index}"
        self.name = name
        self.nic_tx: Link = net.add_link(f"{name}.nic.tx", spec.nic_bw)
        self.nic_rx: Link = net.add_link(f"{name}.nic.rx", spec.nic_bw)
        self.devices: list[SsdDevice] = [
            SsdDevice(
                net,
                f"{name}.ssd{d}",
                spec.device_capacity,
                spec.device_write_bw,
                spec.device_read_bw,
            )
            for d in range(spec.nvme_devices)
        ]
        self.ssd_agg_w: Link = net.add_link(f"{name}.ssdagg.w", spec.nvme_write_bw)
        self.ssd_agg_r: Link = net.add_link(f"{name}.ssdagg.r", spec.nvme_read_bw)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ServerNode {self.name} {self.spec.name}>"


class ClientNode:
    """A benchmark client VM: NIC links and a core count used to validate
    process pinning (the paper pins ranks across all available cores)."""

    def __init__(self, cluster: "Cluster", index: int, spec: ClientSpec):
        self.cluster = cluster
        self.index = index
        self.spec = spec
        net = cluster.net
        name = f"cli{index}"
        self.name = name
        self.nic_tx: Link = net.add_link(f"{name}.nic.tx", spec.nic_bw)
        self.nic_rx: Link = net.add_link(f"{name}.nic.rx", spec.nic_bw)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ClientNode {self.name} {self.spec.name}>"


class Cluster:
    """Simulated testbed: simulator + flow network + nodes + RNG streams."""

    def __init__(
        self,
        n_servers: int,
        n_clients: int,
        server_spec: ServerSpec = SERVER_N2_CUSTOM_36,
        client_spec: ClientSpec = CLIENT_N2_HIGHCPU_32,
        fabric: FabricParams = FabricParams(),
        seed: int = 0,
    ):
        if n_servers < 1:
            raise ConfigError(f"cluster needs >= 1 server node, got {n_servers}")
        if n_clients < 0:
            raise ConfigError(f"negative client count: {n_clients}")
        self.sim = Simulator()
        self.net = FlowNetwork(self.sim)
        self.fabric = fabric
        self.rng = RngStreams(seed=seed)
        # Observability is ambient: activate one with
        # ``repro.obs.activated(...)`` around the cluster build.  With
        # none active every layer's instrumentation stays dormant.
        self.obs = obs = repro.obs.current()
        if obs is not None:
            obs.bind(self)
        self.servers: list[ServerNode] = [
            ServerNode(self, i, server_spec) for i in range(n_servers)
        ]
        self.clients: list[ClientNode] = [
            ClientNode(self, i, client_spec) for i in range(n_clients)
        ]
        #: set by repro.faults.FaultController; workloads announce phase
        #: starts through it so plans can anchor events to phases
        self.fault_controller = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Cluster servers={len(self.servers)} clients={len(self.clients)}>"
