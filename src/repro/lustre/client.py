"""Timed Lustre client: POSIX operations against the MDS and OSTs."""

from __future__ import annotations

import numpy as np

from typing import Dict, Generator, List, Optional, Tuple

from repro.errors import DegradedError, InvalidArgumentError
from repro.faults.retry import RetryPolicy, run_with_retry
from repro.hardware.cluster import ClientNode
from repro.lustre.fs import LustreFilesystem
from repro.obs.ledger import NULL_CONTEXT, NULL_LEDGER
from repro.lustre.mds import Inode
from repro.lustre.ost import Ost
from repro.sim.core import Interrupt
from repro.sim.flownet import Link
from repro.units import Bytes, zeros

__all__ = ["LustreClient", "LustreFile"]


class LustreFile:
    """An open file handle: inode + resolved OST list."""

    def __init__(self, inode: Inode, osts: List[Ost]):
        self.inode = inode
        self.osts = osts
        self.open = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<LustreFile {self.inode.path!r} stripes={len(self.osts)}>"


class LustreClient:
    """One Lustre client on one client node; all methods are timed
    simulation coroutines."""

    def __init__(
        self,
        fs: LustreFilesystem,
        node: ClientNode,
        jitter_sigma: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.fs = fs
        self.node = node
        self.name = f"lustre.{node.name}"
        self.cluster = fs.cluster
        self.sim = fs.cluster.sim
        self.net = fs.cluster.net
        self.params = fs.params
        self.retry = retry_policy or RetryPolicy()
        self._retry_rng: Optional[np.random.Generator] = None
        self.retries = 0
        self.jitter = fs.cluster.rng.lognormal_factor(
            f"lustre.{node.name}.jitter", jitter_sigma
        )
        self._op_rng = fs.cluster.rng.stream(f"lustre.{node.name}.op-jitter")
        self.op_jitter_sigma = 0.1
        # Observability (dormant when the cluster carries none); the op
        # ledger is a null object unless one is active.
        self._ledger = NULL_LEDGER
        self._obs = fs.cluster.obs
        if self._obs is not None:
            if self._obs.ledger is not None:
                self._ledger = self._obs.ledger
            reg = self._obs.registry
            self._tid = self._obs.node_tid(node)
            self._m_mds = reg.counter(
                "lustre.mds.ops", unit="ops",
                description="requests charged on the metadata server",
            )
            self._m_bytes_w = reg.counter("lustre.bytes.written", unit="B")
            self._m_bytes_r = reg.counter("lustre.bytes.read", unit="B")
            self._m_retried = reg.counter(
                "lustre.ops.retried", unit="ops",
                description="operations re-attempted after UnavailableError/timeout",
            )
            self._m_lat_w = reg.latency_histogram(
                "lustre.lat.write", unit="s",
                description="per-op write latency (serial charge + stripe flow)",
            )
            self._m_lat_r = reg.latency_histogram(
                "lustre.lat.read", unit="s",
                description="per-op read latency (serial charge + stripe flow)",
            )

    # -- plumbing -------------------------------------------------------------
    def _serial(self):
        dt = (self.params.rpc_rtt + self.params.client_io_overhead) * self.jitter
        if self.op_jitter_sigma > 0:
            dt *= float(np.exp(self._op_rng.normal(0.0, self.op_jitter_sigma)))
        return self.sim.timeout(dt)

    def _backoff_rng(self) -> np.random.Generator:
        if self._retry_rng is None:
            self._retry_rng = self.cluster.rng.stream(
                f"lustre.{self.node.name}.retry"
            )
        return self._retry_rng

    def mds_request(self, ops: float = 1.0) -> Generator:
        """Charge ``ops`` requests on the (single) MDS."""
        if self._obs is not None:
            self._m_mds.inc(ops)
        yield self._serial()
        flow = self.net.transfer(ops, [(self.fs.mds.link, 1.0)], name="mds-req")
        yield flow.done

    def bulk_transfer(
        self,
        kind: str,
        per_ost: Dict[Ost, int],
        mds_ops: float = 0.0,
        demand_cap: float = float("inf"),
        name: str = "bulk",
    ) -> Generator:
        """One aggregated flow for a batch of operations (no serial
        charge); MDS work rides the same flow so metadata-bound batches
        are throttled by the MDS link."""
        extra = {self.fs.mds.link: mds_ops} if mds_ops > 0 else None
        yield from self._data_flow(
            kind, per_ost, name, extra_loads=extra, demand_cap=demand_cap
        )

    def _data_flow(
        self,
        kind: str,
        per_ost: Dict[Ost, int],
        name: str,
        extra_loads: Optional[Dict[Link, float]] = None,
        demand_cap: float = float("inf"),
        touch_ost: bool = True,
        touch_net: bool = True,
        op_ctx=NULL_CONTEXT,
    ) -> Generator:
        if self._obs is None:
            yield from self._data_flow_raw(
                kind, per_ost, name, extra_loads, demand_cap, touch_ost,
                touch_net, op_ctx
            )
            return
        nbytes = float(sum(per_ost.values()))
        if nbytes > 0:
            (self._m_bytes_w if kind == "write" else self._m_bytes_r).inc(nbytes)
        op = name[len("lustre-"):] if name.startswith("lustre-") else name
        with self._obs.tracer.span(
            f"lustre.{op}", cat="lustre", tid=self._tid, args={"bytes": nbytes}
        ):
            yield from self._data_flow_raw(
                kind, per_ost, name, extra_loads, demand_cap, touch_ost,
                touch_net, op_ctx
            )

    def _data_flow_raw(
        self,
        kind: str,
        per_ost: Dict[Ost, int],
        name: str,
        extra_loads: Optional[Dict[Link, float]] = None,
        demand_cap: float = float("inf"),
        touch_ost: bool = True,
        touch_net: bool = True,
        op_ctx=NULL_CONTEXT,
    ) -> Generator:
        total = float(sum(per_ost.values()))
        if total <= 0:
            total = float(sum((extra_loads or {}).values()))
            if total <= 0:
                return
            usages = [(link, load / total) for link, load in extra_loads.items()]
            flow = self.net.transfer(total, usages, name=name)
            try:
                yield flow.done
            except Interrupt:
                # op timed out (retry path): release the flow's link shares
                self.net.cancel(flow)
                raise
            op_ctx.note_transfer(flow)
            return
        eff = self.params.protocol_efficiency
        loads: Dict[Link, float] = {}

        def add(link: Link, amount: float) -> None:
            loads[link] = loads.get(link, 0.0) + amount

        if touch_net:
            if kind == "write":
                add(self.node.nic_tx, total / eff)
            else:
                add(self.node.nic_rx, total / eff)
        per_node: Dict[int, float] = {}
        for ost, nbytes in per_ost.items():
            if not ost.alive:
                raise DegradedError(f"OST {ost.name} is degraded")
            per_node[ost.node.index] = per_node.get(ost.node.index, 0.0) + nbytes
            # OSS writeback caches decouple writes from individual device
            # channels (node-aggregate still charged below); reads are
            # synchronous and hit the specific OST device.
            if touch_ost and kind == "read":
                add(ost.device.read_link, nbytes / eff / self.params.readahead_depth)
        for node_index, nbytes in per_node.items():
            node = self.cluster.servers[node_index]
            if kind == "write":
                if touch_net:
                    add(node.nic_rx, nbytes / eff)
                if touch_ost:
                    add(node.ssd_agg_w, nbytes / eff)
            else:
                if touch_net:
                    add(node.nic_tx, nbytes / eff)
                if touch_ost:
                    add(node.ssd_agg_r, nbytes / eff)
        for link, amount in (extra_loads or {}).items():
            add(link, amount)
        usages = [(link, load / total) for link, load in loads.items()]
        flow = self.net.transfer(total, usages, demand_cap=demand_cap, name=name)
        try:
            yield flow.done
        except Interrupt:
            # op timed out (retry path): release the flow's link shares
            self.net.cancel(flow)
            raise
        op_ctx.note_transfer(flow)

    def _stripe_map(
        self, handle: LustreFile, offset: Bytes, nbytes: Bytes
    ) -> List[Tuple[Ost, int, int, int, int]]:
        """Split a byte range into (ost, stripe_obj_index, chunk_idx,
        in_chunk_offset, length) pieces following the round-robin layout."""
        inode = handle.inode
        ssize = inode.stripe_size
        out: List[Tuple[Ost, int, int, int, int]] = []
        pos = offset
        end = offset + nbytes
        while pos < end:
            chunk_idx = pos // ssize
            stripe = chunk_idx % inode.stripe_count
            in_chunk = pos - chunk_idx * ssize
            length = min(ssize - in_chunk, end - pos)
            out.append((handle.osts[stripe], stripe, chunk_idx, in_chunk, length))
            pos += length
        return out

    # -- POSIX-style API -------------------------------------------------------
    def mkdir(self, path: str, mode: int = 0o755) -> Generator:
        # functional registration before the first yield: concurrent
        # creates of the same path fail fast instead of racing
        self.fs.mds.create(path, True, mode, 1, self.params.default_stripe_size, [])
        yield from self.mds_request(2.0)  # lookup parent + create

    def create(
        self,
        path: str,
        mode: int = 0o644,
        stripe_count: Optional[int] = None,
        stripe_size: Optional[int] = None,
    ) -> Generator:
        """Create + open a file with the given striping (lfs setstripe)."""
        scount = stripe_count or self.params.default_stripe_count
        ssize = stripe_size or self.params.default_stripe_size
        ost_indices = self.fs.choose_osts(path, scount)
        inode = self.fs.mds.create(path, False, mode, scount, ssize, ost_indices)
        yield from self.mds_request(2.0)  # lookup + create w/ layout
        return LustreFile(inode, [self.fs.osts[i] for i in ost_indices])

    def open(self, path: str) -> Generator:
        yield from self.mds_request(2.0)  # lookup + open intent
        inode = self.fs.mds.lookup(path)
        if inode.is_dir:
            raise InvalidArgumentError(f"{path!r} is a directory")
        return LustreFile(inode, [self.fs.osts[i] for i in inode.ost_indices])

    def close(self, handle: LustreFile) -> Generator:
        handle.open = False
        return
        yield  # pragma: no cover

    def stat(self, path: str) -> Generator:
        """getattr: MDS request plus OST glimpse for the file size."""
        yield from self.mds_request(1.0)
        inode = self.fs.mds.lookup(path)
        if not inode.is_dir:
            yield from self.mds_request(1.0)  # OST glimpse RPC (charged as md)
        return inode.size, inode.mode

    def write(
        self,
        handle: LustreFile,
        offset: int,
        data: Optional[bytes] = None,
        nbytes: Optional[int] = None,
        materialize: bool = True,
    ) -> Generator:
        if not handle.open:
            raise InvalidArgumentError("write on closed handle")
        if data is not None:
            nbytes = len(data)
        if nbytes is None:
            raise InvalidArgumentError("write needs data or nbytes")
        if nbytes == 0:
            return
        with self._ledger.op("lustre.lat.write", self.sim) as opx:
            start = self.sim.now
            yield self._serial()
            opx.note("serial")
            per_ost: Dict[Ost, int] = {}
            pos = 0
            for ost, stripe, chunk_idx, in_chunk, length in self._stripe_map(
                handle, offset, nbytes
            ):
                per_ost[ost] = per_ost.get(ost, 0) + length
                if materialize and data is not None:
                    obj = ost.store((handle.inode.inode_id, stripe))
                    chunk = obj.get(chunk_idx)
                    if not isinstance(chunk, bytearray):
                        chunk = bytearray(chunk or b"")
                    if len(chunk) < in_chunk + length:
                        chunk.extend(b"\0" * (in_chunk + length - len(chunk)))
                    chunk[in_chunk : in_chunk + length] = data[pos : pos + length]
                    obj[chunk_idx] = chunk
                pos += length
            handle.inode.size = max(handle.inode.size, offset + nbytes)
            yield from self._data_flow("write", per_ost, "lustre-write", op_ctx=opx)
            if self._obs is not None:
                self._m_lat_w.observe(self.sim.now - start)

    def read(self, handle: LustreFile, offset: Bytes, nbytes: Bytes) -> Generator:
        """Read; returns bytes (zeros for holes / non-materialised data).

        Runs under the client's :class:`~repro.faults.retry.RetryPolicy`:
        with ``op_timeout`` set, a stuck read is aborted (its flow
        cancelled) and re-attempted with seeded exponential backoff from
        the ``<client>.retry`` RNG stream.  The default policy has no
        timeout, so fault-free runs see the exact same event sequence
        and RNG draws as before the retry layer.  ``DegradedError`` (a
        dead OST) is not retryable and propagates immediately.
        """
        if not handle.open:
            raise InvalidArgumentError("read on closed handle")
        if nbytes == 0:
            return b""

        def op(opx) -> Generator:
            yield self._serial()
            opx.note("serial")
            out: Optional[bytearray] = None
            per_ost: Dict[Ost, int] = {}
            pos = 0
            for ost, stripe, chunk_idx, in_chunk, length in self._stripe_map(
                handle, offset, nbytes
            ):
                readable = max(0, min(length, handle.inode.size - (offset + pos)))
                if readable > 0:
                    per_ost[ost] = per_ost.get(ost, 0) + readable
                    obj = ost.lookup((handle.inode.inode_id, stripe))
                    if obj is not None and chunk_idx in obj:
                        piece = obj[chunk_idx][in_chunk : in_chunk + readable]
                        if out is None:
                            out = bytearray(nbytes)
                        out[pos : pos + len(piece)] = piece
                pos += length
            yield from self._data_flow("read", per_ost, "lustre-read", op_ctx=opx)
            return zeros(nbytes) if out is None else bytes(out)

        hist = self._m_lat_r if self._obs is not None else None
        return (yield from run_with_retry(self, op, "read", "lustre.lat.read", hist))

    def unlink(self, path: str) -> Generator:
        yield from self.mds_request(2.0)
        inode = self.fs.mds.unlink(path)
        for stripe, ost_index in enumerate(inode.ost_indices):
            self.fs.osts[ost_index].drop((inode.inode_id, stripe))

    def readdir(self, path: str) -> Generator:
        yield from self.mds_request(1.0)
        return self.fs.mds.readdir(path)
