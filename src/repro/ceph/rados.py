"""librados: pools and the timed object client."""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.ceph.monitor import CephCluster
from repro.ceph.osd import Osd
from repro.ceph.placement import PgMap
from repro.errors import InvalidArgumentError, NotFoundError, UnavailableError
from repro.faults.retry import RetryPolicy
from repro.hardware.client import StoreClient
from repro.hardware.cluster import ClientNode
from repro.obs.ledger import NULL_CONTEXT
from repro.sim.flownet import Link
from repro.units import Bytes, left_sum, zeros

__all__ = ["CephPool", "RadosClient"]


class CephPool:
    """A RADOS pool: PG map + object registry (object data lives on OSDs).

    Pools are replicated (``size`` copies) or erasure-coded (``ec_k`` data
    + ``ec_m`` coding chunks).  EC pools are the one way a Ceph object's
    bytes spread over multiple OSDs — the paper's point that "Ceph cannot
    shard objects across OSDs unless enabling erasure-code or
    replication" (Section III-F).
    """

    def __init__(
        self,
        ceph: CephCluster,
        name: str,
        pg_num: Optional[int] = None,
        size: int = 1,
        ec_k: int = 0,
        ec_m: int = 0,
        materialize: bool = True,
    ):
        if (ec_k == 0) != (ec_m == 0):
            raise InvalidArgumentError("EC pools need both ec_k and ec_m")
        if ec_k and size != 1:
            raise InvalidArgumentError("a pool is either replicated or EC, not both")
        self.ceph = ceph
        self.name = name
        self.pg_num = pg_num or ceph.params.default_pg_num
        self.size = size
        self.ec_k = ec_k
        self.ec_m = ec_m
        self.materialize = materialize
        width = (ec_k + ec_m) if ec_k else size
        self.pgmap = PgMap(name, self.pg_num, ceph.osds, size=width)
        #: object name -> logical size (the authoritative existence record)
        self.object_sizes: Dict[str, int] = {}
        ceph.register_pool(self)

    @property
    def is_ec(self) -> bool:
        return self.ec_k > 0

    @property
    def write_amplification(self) -> float:
        if self.is_ec:
            return (self.ec_k + self.ec_m) / self.ec_k
        return float(self.size)

    def acting_set(self, object_name: str) -> List[Osd]:
        return self.pgmap.acting_set(object_name)

    def __repr__(self) -> str:  # pragma: no cover
        scheme = f"EC {self.ec_k}+{self.ec_m}" if self.is_ec else f"size={self.size}"
        return f"<CephPool {self.name} pgs={self.pg_num} {scheme}>"


class RadosClient(StoreClient):
    """A librados client on one client node; all methods are timed
    simulation coroutines."""

    layer = "ceph"
    bytes_metrics = ("ceph.osd.bytes_written", "ceph.osd.bytes_read")
    latency_metrics = {
        "write": "per-op object write latency (replicated and EC)",
        "read": "per-op object read latency (replicated and EC)",
    }
    failover_help = "replicated reads served by a non-primary replica"

    def __init__(
        self,
        ceph: CephCluster,
        node: ClientNode,
        jitter_sigma: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        super().__init__(
            ceph.cluster, node, f"rados.{node.name}", ceph.params,
            jitter_sigma, retry_policy,
        )
        self.ceph = ceph
        self.connected = False
        if self._obs is not None:
            reg = self._obs.registry
            self._m_mon = reg.counter(
                "ceph.mon.ops", unit="ops",
                description="requests charged on the monitor",
            )
            self._m_osd_ops = reg.counter(
                "ceph.osd.ops", unit="ops",
                description="request slots consumed across OSDs",
            )

    # -- plumbing ------------------------------------------------------------
    def _mon_request(self, ops: float = 1.0) -> Generator:
        if self._obs is not None:
            self._m_mon.inc(ops)
        return self._request(self.ceph.monitor.link, ops, "mon-req")

    def _require_connected(self) -> None:
        if not self.connected:
            raise InvalidArgumentError("client not connected; call connect()")

    def bulk_transfer(
        self,
        kind: str,
        per_osd: Dict[Osd, int],
        ops_by_osd: Optional[Dict[Osd, float]] = None,
        demand_cap: float = float("inf"),
        name: str = "bulk",
    ) -> Generator:
        """One aggregated flow for a batch of object operations; per-OSD
        request-slot consumption is passed explicitly."""
        yield from self._data_flow(
            kind, per_osd, name, ops_by_osd=ops_by_osd, demand_cap=demand_cap
        )

    def _data_flow(
        self,
        kind: str,
        per_osd: Dict[Osd, int],
        name: str,
        ops_per_osd: float = 1.0,
        ops_by_osd: Optional[Dict[Osd, float]] = None,
        demand_cap: float = float("inf"),
        op_ctx=NULL_CONTEXT,
    ) -> Generator:
        """The OSD flow, inside a ``ceph.<op>`` span when observed.

        A plain function returning the flow's generator, so an
        unobserved op adds no generator level of its own."""
        if self._obs is None:
            return self._osd_flow(
                kind, per_osd, name, ops_per_osd, ops_by_osd, demand_cap, op_ctx
            )
        nbytes = left_sum(per_osd.values())
        if nbytes > 0:
            if ops_by_osd is not None:
                self._m_osd_ops.inc(left_sum(ops_by_osd.values()))
            else:
                self._m_osd_ops.inc(ops_per_osd * len(per_osd))
        op = name[len("rados-"):] if name.startswith("rados-") else name
        return self._observed(
            kind, nbytes, op, {"bytes": nbytes}, self._osd_flow,
            kind, per_osd, name, ops_per_osd, ops_by_osd, demand_cap, op_ctx,
        )

    def _osd_flow(
        self,
        kind: str,
        per_osd: Dict[Osd, int],
        name: str,
        ops_per_osd: float,
        ops_by_osd: Optional[Dict[Osd, float]],
        demand_cap: float,
        op_ctx,
    ) -> Generator:
        """Ceph's own take on docs/MODEL.md §3.

        The OSD data path (journaling, checksums, PG locking) charges
        each OSD's own device link for writes as well as reads, and both
        the device and the node aggregate at ``write_efficiency`` or
        ``read_efficiency``; the NICs run at ``protocol_efficiency``.
        Each OSD's request slots (``op_link``) follow its device term,
        so the terms interleave per OSD and the shared
        :meth:`_data_loads` does not apply.
        """
        total = left_sum(per_osd.values())
        if total <= 0:
            return self._flow(total, [], name)  # nothing to move
        loads: Dict[Link, float] = {}

        def add(link: Link, amount: float) -> None:
            loads[link] = loads.get(link, 0.0) + amount

        proto = self.params.protocol_efficiency
        deveff = (
            self.params.write_efficiency if kind == "write" else self.params.read_efficiency
        )
        if kind == "write":
            add(self.node.nic_tx, total / proto)
        else:
            add(self.node.nic_rx, total / proto)
        per_node: Dict[int, float] = {}
        for osd, nbytes in per_osd.items():
            per_node[osd.node.index] = per_node.get(osd.node.index, 0.0) + nbytes
            dev = osd.device.write_link if kind == "write" else osd.device.read_link
            add(dev, nbytes / deveff)
            if ops_by_osd is not None:
                ops = ops_by_osd.get(osd, 0.0)
                if ops > 0:
                    add(osd.op_link, ops)
            else:
                add(osd.op_link, ops_per_osd)
        for node_index, nbytes in per_node.items():
            node = self.cluster.servers[node_index]
            if kind == "write":
                add(node.nic_rx, nbytes / proto)
                add(node.ssd_agg_w, nbytes / deveff)
            else:
                add(node.nic_tx, nbytes / proto)
                add(node.ssd_agg_r, nbytes / deveff)
        usages = [(link, load / total) for link, load in loads.items()]
        return self._flow(total, usages, name, demand_cap, op_ctx)

    # -- cluster / pool management ------------------------------------------------
    def connect(self) -> Generator:
        """Fetch the cluster and OSD maps from the monitor."""
        yield from self._mon_request(2.0)
        self.connected = True

    def create_pool(
        self,
        name: str,
        pg_num: Optional[int] = None,
        size: int = 1,
        ec_k: int = 0,
        ec_m: int = 0,
        materialize: bool = True,
    ) -> Generator:
        self._require_connected()
        yield from self._mon_request(3.0)  # pool create + pg peering kickoff
        return CephPool(
            self.ceph, name, pg_num=pg_num, size=size,
            ec_k=ec_k, ec_m=ec_m, materialize=materialize,
        )

    def open_pool(self, name: str) -> Generator:
        self._require_connected()
        yield from self._mon_request(1.0)
        return self.ceph.get_pool(name)

    # -- object data path -------------------------------------------------------------
    def _check_write_bounds(self, pool: CephPool, obj: str, end: int) -> None:
        if end > self.params.max_object_size:
            raise InvalidArgumentError(
                f"object {obj!r} would grow to {end} B, above the configured "
                f"maximum of {self.params.max_object_size} B"
            )

    def write(
        self,
        pool: CephPool,
        obj: str,
        offset: int,
        data: Optional[bytes] = None,
        nbytes: Optional[int] = None,
    ) -> Generator:
        """Write into an object (created on first write).

        Replicated pools fan the write out to the acting set; the client
        sends once, the primary forwards (charged on server NICs).
        """
        self._require_connected()
        if data is not None:
            nbytes = len(data)
        if nbytes is None:
            raise InvalidArgumentError("write needs data or nbytes")
        if offset < 0:
            raise InvalidArgumentError(f"negative offset: {offset}")
        self._check_write_bounds(pool, obj, offset + nbytes)
        with self._ledger.op("ceph.lat.write", self.sim) as opx:
            start = self.sim.now
            yield self._serial()
            opx.note("serial")
            if pool.is_ec:
                yield from self._ec_write(pool, obj, offset, data, nbytes, op_ctx=opx)
                if self._obs is not None:
                    self._m_lat["write"].observe(self.sim.now - start)
                return
            acting = pool.acting_set(obj)
            per_osd: Dict[Osd, int] = {osd: nbytes for osd in acting}
            for osd in acting:
                record = osd.obj((pool.name, obj))
                if pool.materialize and data is not None:
                    buf = record["data"]
                    if len(buf) < offset + nbytes:
                        buf.extend(b"\0" * (offset + nbytes - len(buf)))
                    buf[offset : offset + nbytes] = data
                record["size"] = max(record["size"], offset + nbytes)
            pool.object_sizes[obj] = max(pool.object_sizes.get(obj, 0), offset + nbytes)
            yield from self._data_flow("write", per_osd, "rados-write", op_ctx=opx)
            if self._obs is not None:
                self._m_lat["write"].observe(self.sim.now - start)

    def _ec_write(self, pool: CephPool, obj: str, offset: Bytes, data, nbytes: Bytes,
                  op_ctx=NULL_CONTEXT) -> Generator:
        """EC pools accept only full-object writes (real librados rejects
        arbitrary overwrites on erasure-coded pools)."""
        if offset != 0:
            raise InvalidArgumentError(
                f"EC pool {pool.name!r}: partial overwrites are not supported"
            )
        from repro.daos import erasure

        k, m = pool.ec_k, pool.ec_m
        acting = pool.acting_set(obj)
        chunk = (nbytes + k - 1) // k
        per_osd: Dict[Osd, int] = {osd: chunk for osd in acting}
        if pool.materialize and data is not None:
            data_chunks = [bytes(data[i * chunk : (i + 1) * chunk]) for i in range(k)]
            coding = erasure.encode(data_chunks, m)
            pieces = data_chunks + coding
        else:
            pieces = [b""] * (k + m)
        for osd, piece in zip(acting, pieces):
            record = osd.obj((pool.name, obj))
            record["data"] = bytearray(piece)
            record["size"] = chunk
        pool.object_sizes[obj] = nbytes
        yield from self._data_flow("write", per_osd, "rados-ec-write", op_ctx=op_ctx)

    def write_full(self, pool: CephPool, obj: str, data: bytes) -> Generator:
        yield from self.write(pool, obj, 0, data=data)

    def read(self, pool: CephPool, obj: str, offset: Bytes, nbytes: Bytes) -> Generator:
        """Read from the primary OSD; returns bytes (zeros when the pool
        is non-materialising).

        Runs under the client's :class:`~repro.faults.retry.RetryPolicy`:
        a replicated read whose acting set is entirely down raises
        :class:`~repro.errors.UnavailableError` and is re-attempted with
        seeded backoff against the *current* OSD map (so a recovered
        replica serves the retry); a dead primary with a surviving
        replica fails over immediately.  The default policy has no
        timeout, so fault-free runs see the exact same event sequence
        and RNG draws as before the retry layer.  ``DataLossError``
        (too many EC chunks lost) is not retryable.
        """
        self._require_connected()

        def op(opx) -> Generator:
            yield self._serial()
            opx.note("serial")
            if obj not in pool.object_sizes:
                raise NotFoundError(f"object {obj!r} not found in pool {pool.name!r}")
            size = pool.object_sizes[obj]
            readable = max(0, min(nbytes, size - offset))
            if readable == 0:
                # the latency histogram skips this path too: drop the
                # context so ledger and registry counts stay equal
                opx.discard()
                return b""
            if pool.is_ec:
                data = yield from self._ec_read(pool, obj, offset, readable, op_ctx=opx)
                return data
            primary = pool.pgmap.primary(obj)
            if not getattr(primary, "alive", True):
                # primary down: fail over to the first surviving replica
                # (every member of the acting set holds a full copy)
                survivors = [
                    osd for osd in pool.acting_set(obj)
                    if getattr(osd, "alive", True)
                ]
                if not survivors:
                    raise UnavailableError(
                        f"object {obj!r}: acting set fully down in pool "
                        f"{pool.name!r}"
                    )
                primary = survivors[0]
                opx.flag("failed_over")
                self._count_failover()
            yield from self._data_flow("read", {primary: readable}, "rados-read",
                                       op_ctx=opx)
            record = primary.objects.get((pool.name, obj))
            if pool.materialize and record is not None:
                piece = bytes(record["data"][offset : offset + readable])
                return piece.ljust(readable, b"\0")
            return zeros(readable)

        return (yield from self._with_retry(op, "read"))

    def _ec_read(self, pool: CephPool, obj: str, offset: int, readable: int,
                 op_ctx=NULL_CONTEXT) -> Generator:
        """Gather k chunks (reconstructing through coding chunks if OSDs
        are down) and reassemble the requested range."""
        from repro.daos import erasure
        from repro.errors import DataLossError

        k, m = pool.ec_k, pool.ec_m
        acting = pool.acting_set(obj)
        size = pool.object_sizes[obj]
        chunk = (size + k - 1) // k
        # prefer the k data OSDs; fall back to coding chunks when needed
        available = {
            i: osd for i, osd in enumerate(acting)
            if getattr(osd, "alive", True) and (pool.name, obj) in osd.objects
        } if pool.materialize else {i: osd for i, osd in enumerate(acting)}
        serving = sorted(available)[: k] if len(available) >= k else None
        if serving is None:
            raise DataLossError(f"EC object {obj!r}: too many chunks unavailable")
        per_osd = {available[i]: chunk for i in serving}
        if not all(i < k for i in serving):
            # coding chunks stand in for lost data chunks: the gather
            # flow ahead is parity reconstruction, not a plain read
            op_ctx.mark_degraded()
        yield from self._data_flow("read", per_osd, "rados-ec-read", op_ctx=op_ctx)
        if not pool.materialize:
            return zeros(readable)
        cells = {
            i: bytes(available[i].objects[(pool.name, obj)]["data"]) for i in serving
        }
        if all(i < k for i in serving):
            data_chunks = [cells[i] for i in range(k)]
        else:
            data_chunks = erasure.reconstruct(cells, k, m, cell_length=chunk)
        blob = b"".join(c.ljust(chunk, b"\0") for c in data_chunks)[:size]
        return blob[offset : offset + readable]

    def stat(self, pool: CephPool, obj: str) -> Generator:
        self._require_connected()
        yield self._serial()
        if obj not in pool.object_sizes:
            raise NotFoundError(f"object {obj!r} not found in pool {pool.name!r}")
        primary = pool.pgmap.primary(obj)
        yield from self._data_flow("read", {primary: 1}, "rados-stat")
        return pool.object_sizes[obj]

    def remove(self, pool: CephPool, obj: str) -> Generator:
        self._require_connected()
        yield self._serial()
        if obj not in pool.object_sizes:
            raise NotFoundError(f"object {obj!r} not found in pool {pool.name!r}")
        acting = pool.acting_set(obj)
        yield from self._data_flow("write", {osd: 1 for osd in acting}, "rados-rm")
        for osd in acting:
            osd.drop((pool.name, obj))
        del pool.object_sizes[obj]

    # -- omap (the KV-ish facility fdb's Ceph backend indexes with) ---------------
    def omap_set(self, pool: CephPool, obj: str, entries: Dict[str, bytes]) -> Generator:
        self._require_connected()
        yield self._serial()
        acting = pool.acting_set(obj)
        nbytes = sum(len(k) + len(v) for k, v in entries.items())
        per_osd = {osd: max(nbytes, 1) for osd in acting}
        for osd in acting:
            osd.obj((pool.name, obj))["omap"].update(
                {k: bytes(v) for k, v in entries.items()}
            )
        pool.object_sizes.setdefault(obj, 0)
        yield from self._data_flow("write", per_osd, "rados-omap-set")

    def omap_get(self, pool: CephPool, obj: str, key: str) -> Generator:
        self._require_connected()
        yield self._serial()
        if obj not in pool.object_sizes:
            raise NotFoundError(f"object {obj!r} not found in pool {pool.name!r}")
        primary = pool.pgmap.primary(obj)
        record = primary.objects.get((pool.name, obj))
        if record is None or key not in record["omap"]:
            raise NotFoundError(f"omap key {key!r} not found on {obj!r}")
        value = record["omap"][key]
        yield from self._data_flow("read", {primary: max(len(value), 1)}, "rados-omap-get")
        return value
