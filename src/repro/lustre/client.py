"""Timed Lustre client: POSIX operations against the MDS and OSTs."""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.errors import DegradedError, InvalidArgumentError
from repro.faults.retry import RetryPolicy
from repro.hardware.client import StoreClient
from repro.hardware.cluster import ClientNode
from repro.lustre.fs import LustreFilesystem
from repro.lustre.mds import Inode
from repro.lustre.ost import Ost
from repro.obs.ledger import NULL_CONTEXT
from repro.sim.flownet import Link
from repro.units import Bytes, left_sum, zeros

__all__ = ["LustreClient", "LustreFile"]


class LustreFile:
    """An open file handle: inode + resolved OST list."""

    def __init__(self, inode: Inode, osts: List[Ost]):
        self.inode = inode
        self.osts = osts
        self.open = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<LustreFile {self.inode.path!r} stripes={len(self.osts)}>"


class LustreClient(StoreClient):
    """One Lustre client on one client node; all methods are timed
    simulation coroutines."""

    layer = "lustre"
    bytes_metrics = ("lustre.bytes.written", "lustre.bytes.read")
    latency_metrics = {
        "write": "per-op write latency (serial charge + stripe flow)",
        "read": "per-op read latency (serial charge + stripe flow)",
    }

    def __init__(
        self,
        fs: LustreFilesystem,
        node: ClientNode,
        jitter_sigma: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        super().__init__(
            fs.cluster, node, f"lustre.{node.name}", fs.params,
            jitter_sigma, retry_policy,
        )
        self.fs = fs
        if self._obs is not None:
            self._m_mds = self._obs.registry.counter(
                "lustre.mds.ops", unit="ops",
                description="requests charged on the metadata server",
            )

    # -- plumbing -------------------------------------------------------------
    def mds_request(self, ops: float = 1.0) -> Generator:
        """Charge ``ops`` requests on the (single) MDS."""
        if self._obs is not None:
            self._m_mds.inc(ops)
        return self._request(self.fs.mds.link, ops, "mds-req")

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
        op_ctx=NULL_CONTEXT,
    ) -> Generator:
        """The stripe flow, inside a ``lustre.<op>`` span when observed.

        A plain function returning the flow's generator, so an
        unobserved op adds no generator level of its own."""
        if self._obs is None:
            return self._stripe_flow(kind, per_ost, name, extra_loads, demand_cap, op_ctx)
        nbytes = left_sum(per_ost.values())
        op = name[len("lustre-"):] if name.startswith("lustre-") else name
        return self._observed(
            kind, nbytes, op, {"bytes": nbytes}, self._stripe_flow,
            kind, per_ost, name, extra_loads, demand_cap, op_ctx,
        )

    def _stripe_flow(
        self,
        kind: str,
        per_ost: Dict[Ost, int],
        name: str,
        extra_loads: Optional[Dict[Link, float]],
        demand_cap: float,
        op_ctx,
    ) -> Generator:
        """docs/MODEL.md §3 loads on the OSTs' servers (OSS writeback
        caches decouple writes from the device; reads hit the specific
        OST device), plus ``extra_loads``.  A batch that moves no bytes
        is sized by its extra (MDS) load alone."""
        total = left_sum(per_ost.values())
        if total > 0:
            for ost in per_ost:
                if not ost.alive:
                    raise DegradedError(f"OST {ost.name} is degraded")
            loads = self._data_loads(kind, per_ost)
            for link, amount in (extra_loads or {}).items():
                loads[link] = loads.get(link, 0.0) + amount
        else:
            loads = extra_loads or {}
            total = left_sum(loads.values())
        usages = [(link, load / total) for link, load in loads.items()] if total > 0 else []
        return self._flow(total, usages, name, demand_cap, op_ctx)

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
                self._m_lat["write"].observe(self.sim.now - start)

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

        return (yield from self._with_retry(op, "read"))

    def unlink(self, path: str) -> Generator:
        yield from self.mds_request(2.0)
        inode = self.fs.mds.unlink(path)
        for stripe, ost_index in enumerate(inode.ost_indices):
            self.fs.osts[ost_index].drop((inode.inode_id, stripe))

    def readdir(self, path: str) -> Generator:
        yield from self.mds_request(1.0)
        return self.fs.mds.readdir(path)
