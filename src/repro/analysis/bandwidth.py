"""Rooflines and efficiency, as the paper computes them (Sec. III-A/B)."""

from __future__ import annotations

from repro.errors import InvalidArgumentError
from repro.hardware.specs import CLIENT_N2_HIGHCPU_32, SERVER_N2_CUSTOM_36, ServerSpec

__all__ = ["write_roofline", "read_roofline", "efficiency"]


def write_roofline(n_servers: int, spec: ServerSpec = SERVER_N2_CUSTOM_36) -> float:
    """Best aggregate write bandwidth (bytes/s): per server, the min of
    SSD aggregate write and NIC ingest — "every additional DAOS server
    instance could at best provide an additional 3.86 GiB/s for write"."""
    if n_servers < 1:
        raise InvalidArgumentError(f"n_servers must be >= 1, got {n_servers}")
    return n_servers * min(spec.nvme_write_bw, spec.nic_bw)


def read_roofline(
    n_servers: int,
    n_client_nodes: int = 10**9,
    spec: ServerSpec = SERVER_N2_CUSTOM_36,
    client_nic_bw: float = CLIENT_N2_HIGHCPU_32.nic_bw,
) -> float:
    """Best aggregate read bandwidth: per server the min of SSD read and
    NIC egress (6.25 GiB/s on this hardware), capped by the client-side
    NIC total when clients are few."""
    if n_servers < 1:
        raise InvalidArgumentError(f"n_servers must be >= 1, got {n_servers}")
    server_side = n_servers * min(spec.nvme_read_bw, spec.nic_bw)
    return min(server_side, n_client_nodes * client_nic_bw)


def efficiency(measured: float, roofline: float) -> float:
    """Fraction of the hardware optimum achieved (the paper's 'close to
    ideal' judgements, as a number)."""
    if roofline <= 0:
        raise InvalidArgumentError("roofline must be positive")
    return measured / roofline
