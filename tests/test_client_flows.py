"""Per-op flows of the three timed store clients, pinned link by link.

Each scenario drives one small cluster (2 servers x 2 NVMe devices, one
client) through an exact-mode write and read, and records every flow
the network starts as ``(name, size, [link names], weights,
demand_cap)``.  The expected lists spell out docs/MODEL.md §3 in full:

- a DAOS or Lustre write charges client NIC TX, then each server's NIC
  RX and node-aggregate SSD write link, ``bytes / protocol_efficiency``;
- a DAOS or Lustre read charges client NIC RX, each serving device's
  read link divided by the read-ahead depth, then each server's NIC TX
  and node-aggregate SSD read link;
- a Ceph op charges the per-device write or read link at
  ``write_efficiency``/``read_efficiency`` and one request slot on the
  OSD's op link, interleaved per OSD, before the server terms.

Usage order is part of the pin: it fixes each flow's order in the flow
network and hence its float sums.  Weights are literal floats, compared
bit for bit.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Tuple

from repro.ceph import CephCluster, RadosClient
from repro.daos import DaosClient, Pool
from repro.hardware import Cluster
from repro.hardware.specs import SERVER_N2_CUSTOM_36
from repro.lustre import LustreClient, LustreFilesystem
from repro.units import KiB

INF = float("inf")
PAYLOAD = bytes(range(256)) * 32  # 8 KiB: two 4 KiB chunks or stripes

Captured = Tuple[str, float, List[str], List[float], float]


def _cluster() -> Cluster:
    spec = dataclasses.replace(SERVER_N2_CUSTOM_36, nvme_devices=2)
    return Cluster(n_servers=2, n_clients=1, server_spec=spec, seed=0)


def _record(cluster: Cluster) -> List[Captured]:
    flows: List[Captured] = []

    def log(flow: Any) -> None:
        flows.append((
            flow.name, flow.size, [link.name for link in flow.links],
            flow.weights.tolist(), flow.demand_cap,
        ))

    cluster.net.on_transfer.append(log)
    return flows


def _drive(cluster: Cluster, gen: Any) -> Any:
    proc = cluster.sim.process(gen)
    cluster.sim.run()
    return proc.result


# -- DAOS ----------------------------------------------------------------------

# request slots (one per target RPC) and pool-service ops ride the flow
# after the §3 data terms
DAOS_SETUP = [
    ("daos@cli0.connect", 1.0, ["pool0.rsvc"], [1.0], INF),
    ("daos@cli0.cont-create", 3.0, ["pool0.rsvc"], [1.0], INF),
    ("daos@cli0.arr-create", 1.0, ["pool0.eng1.md"], [1.0], INF),
]

DAOS_SX = DAOS_SETUP + [
    # write: client NIC TX, then per server NIC RX + aggregate SSD write,
    # then one request slot per engine touched
    ("daos@cli0.arr-write", 8192.0,
     ["cli0.nic.tx", "srv1.nic.rx", "srv1.ssdagg.w", "srv0.nic.rx",
      "srv0.ssdagg.w", "pool0.eng1.md", "pool0.eng0.md"],
     [1.0638297872340425, 0.5319148936170213, 0.5319148936170213,
      0.5319148936170213, 0.5319148936170213, 0.0001220703125,
      0.0001220703125], INF),
    # read: client NIC RX, each serving device / read-ahead depth 4, then
    # per server NIC TX + aggregate SSD read, then the request slots
    ("daos@cli0.arr-read", 8192.0,
     ["cli0.nic.rx", "srv1.ssd0.r", "srv0.ssd1.r", "srv1.nic.tx",
      "srv1.ssdagg.r", "srv0.nic.tx", "srv0.ssdagg.r", "pool0.eng1.md",
      "pool0.eng0.md"],
     [1.0638297872340425, 0.13297872340425532, 0.13297872340425532,
      0.5319148936170213, 0.5319148936170213, 0.5319148936170213,
      0.5319148936170213, 0.0001220703125, 0.0001220703125], INF),
]

DAOS_RP2_DEAD_MEMBER = DAOS_SETUP + [
    # 4 KiB lands on both replicas: 8 KiB on the wire, one per server
    ("daos@cli0.arr-write", 8192.0,
     ["cli0.nic.tx", "srv1.nic.rx", "srv1.ssdagg.w", "srv0.nic.rx",
      "srv0.ssdagg.w", "pool0.eng1.md", "pool0.eng0.md"],
     [1.0638297872340425, 0.5319148936170213, 0.5319148936170213,
      0.5319148936170213, 0.5319148936170213, 0.0001220703125,
      0.0001220703125], INF),
    # the primary is dead: the surviving replica's device, server and
    # engine serve the whole read
    ("daos@cli0.arr-read", 4096.0,
     ["cli0.nic.rx", "srv0.ssd1.r", "srv0.nic.tx", "srv0.ssdagg.r",
      "pool0.eng0.md"],
     [1.0638297872340425, 0.26595744680851063, 1.0638297872340425,
      1.0638297872340425, 0.000244140625], INF),
]


def _daos_scenario(oc: str, kill_primary: bool) -> List[Captured]:
    cluster = _cluster()
    pool = Pool(cluster)
    client = DaosClient(cluster, pool, cluster.clients[0])
    flows = _record(cluster)
    nbytes = len(PAYLOAD) if oc == "SX" else len(PAYLOAD) // 2

    def scenario() -> Any:
        yield from client.connect()
        cont = yield from client.create_container("c")
        arr = yield from client.create_array(cont, oc, chunk_size=4 * KiB)
        yield from client.array_write(arr, 0, PAYLOAD[:nbytes])
        if kill_primary:
            pool.fail_target(arr.groups[0][0].global_index)
        return (yield from client.array_read(arr, 0, nbytes))

    assert _drive(cluster, scenario()) == PAYLOAD[:nbytes]
    assert client.failed_over == int(kill_primary)
    return flows


def test_daos_sx_write_and_read_flows():
    assert _daos_scenario("SX", kill_primary=False) == DAOS_SX


def test_daos_rp2_read_with_dead_member_fails_over():
    assert _daos_scenario("RP_2G1", kill_primary=True) == DAOS_RP2_DEAD_MEMBER


# -- Lustre --------------------------------------------------------------------

LUSTRE = [
    ("mds-req", 2.0, ["lustre0.mds"], [1.0], INF),
    # 4 stripes of 2 KiB over both servers' OSTs
    ("lustre-write", 8192.0,
     ["cli0.nic.tx", "srv0.nic.rx", "srv0.ssdagg.w", "srv1.nic.rx",
      "srv1.ssdagg.w"],
     [1.0638297872340425, 0.5319148936170213, 0.5319148936170213,
      0.5319148936170213, 0.5319148936170213], INF),
    ("lustre-read", 8192.0,
     ["cli0.nic.rx", "srv0.ssd0.r", "srv0.ssd1.r", "srv1.ssd0.r",
      "srv1.ssd1.r", "srv0.nic.tx", "srv0.ssdagg.r", "srv1.nic.tx",
      "srv1.ssdagg.r"],
     [1.0638297872340425, 0.06648936170212766, 0.06648936170212766,
      0.06648936170212766, 0.06648936170212766, 0.5319148936170213,
      0.5319148936170213, 0.5319148936170213, 0.5319148936170213], INF),
]


def test_lustre_write_and_read_flows():
    cluster = _cluster()
    fs = LustreFilesystem(cluster)
    client = LustreClient(fs, cluster.clients[0])
    flows = _record(cluster)

    def scenario() -> Any:
        fh = yield from client.create("/f", stripe_count=4, stripe_size=2 * KiB)
        yield from client.write(fh, 0, PAYLOAD)
        return (yield from client.read(fh, 0, len(PAYLOAD)))

    assert _drive(cluster, scenario()) == PAYLOAD
    assert flows == LUSTRE


# -- Ceph ----------------------------------------------------------------------

CEPH_SETUP = [
    ("mon-req", 2.0, ["ceph0.mon"], [1.0], INF),
    ("mon-req", 3.0, ["ceph0.mon"], [1.0], INF),
]

CEPH_REPLICATED = CEPH_SETUP + [
    # size 2: each replica's device write link and op slot, then the
    # servers' NIC RX and aggregate SSD write
    ("rados-write", 16384.0,
     ["cli0.nic.tx", "srv1.ssd0.w", "osd.srv1.0.ops", "srv0.ssd0.w",
      "osd.srv0.0.ops", "srv1.nic.rx", "srv1.ssdagg.w", "srv0.nic.rx",
      "srv0.ssdagg.w"],
     [1.0638297872340425, 0.7575757575757576, 6.103515625e-05,
      0.7575757575757576, 6.103515625e-05, 0.5319148936170213,
      0.7575757575757576, 0.5319148936170213, 0.7575757575757576], INF),
    # the primary alone serves the read
    ("rados-read", 8192.0,
     ["cli0.nic.rx", "srv1.ssd0.r", "osd.srv1.0.ops", "srv1.nic.tx",
      "srv1.ssdagg.r"],
     [1.0638297872340425, 1.4285714285714286, 0.0001220703125,
      1.0638297872340425, 1.4285714285714286], INF),
]

CEPH_EC = CEPH_SETUP + [
    # 2+1: one 4 KiB chunk on each of three OSDs
    ("rados-ec-write", 12288.0,
     ["cli0.nic.tx", "srv1.ssd0.w", "osd.srv1.0.ops", "srv1.ssd1.w",
      "osd.srv1.1.ops", "srv0.ssd0.w", "osd.srv0.0.ops", "srv1.nic.rx",
      "srv1.ssdagg.w", "srv0.nic.rx", "srv0.ssdagg.w"],
     [1.0638297872340428, 0.5050505050505051, 8.138020833333333e-05,
      0.5050505050505051, 8.138020833333333e-05, 0.5050505050505051,
      8.138020833333333e-05, 0.7092198581560284, 1.0101010101010102,
      0.3546099290780142, 0.5050505050505051], INF),
    # the read gathers the two data chunks
    ("rados-ec-read", 8192.0,
     ["cli0.nic.rx", "srv1.ssd0.r", "osd.srv1.0.ops", "srv1.ssd1.r",
      "osd.srv1.1.ops", "srv1.nic.tx", "srv1.ssdagg.r"],
     [1.0638297872340425, 0.7142857142857143, 0.0001220703125,
      0.7142857142857143, 0.0001220703125, 1.0638297872340425,
      1.4285714285714286], INF),
]


def _ceph_scenario(**pool_args: int) -> List[Captured]:
    cluster = _cluster()
    ceph = CephCluster(cluster)
    client = RadosClient(ceph, cluster.clients[0])
    flows = _record(cluster)

    def scenario() -> Any:
        yield from client.connect()
        pool = yield from client.create_pool("p", pg_num=8, **pool_args)
        yield from client.write_full(pool, "obj", PAYLOAD)
        return (yield from client.read(pool, "obj", 0, len(PAYLOAD)))

    assert _drive(cluster, scenario()) == PAYLOAD
    return flows


def test_ceph_replicated_write_and_read_flows():
    assert _ceph_scenario(size=2) == CEPH_REPLICATED


def test_ceph_ec_write_and_read_flows():
    assert _ceph_scenario(ec_k=2, ec_m=1) == CEPH_EC
