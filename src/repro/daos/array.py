"""DAOS Array objects: bulk 1-D byte arrays.

Paper Section I: Arrays are "intended for bulk storage of large
one-dimensional data arrays".  The model stores data in fixed-size
*chunks* distributed round-robin over the object's shard groups:

- plain classes (``S1``/``SX``): a group is one target, which stores the
  whole chunk;
- replication (``RP_r``): every group member stores the whole chunk;
- erasure coding (``EC_kPp``): the chunk splits into k cells; each data
  member stores one cell and each parity member stores a Reed-Solomon
  parity cell, so a group write moves (k+p)/k x the logical bytes — the
  1.5x of EC 2+1 the paper measures.

Reads route around dead targets: replicas fail over, EC groups
reconstruct from any k surviving cells.  Holes read back as zeros.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.daos import erasure
from repro.daos.container import Container
from repro.daos.obj import DaosObject, ring_batch
from repro.daos.objclass import ObjectClass
from repro.daos.oid import ObjectId
from repro.daos.pool import Target
from repro.errors import DataLossError, InvalidArgumentError
from repro.units import Bytes, MiB, zeros

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = ["DaosArray"]


class DaosArray(DaosObject):
    """A sparse, sharded byte array."""

    kind = "array"

    def __init__(
        self,
        container: Container,
        oid: ObjectId,
        oc: ObjectClass,
        chunk_size: Bytes = MiB,
    ):
        if chunk_size < 1:
            raise InvalidArgumentError(f"chunk size must be positive: {chunk_size}")
        if oc.is_ec and chunk_size % oc.ec_k != 0:
            raise InvalidArgumentError(
                f"chunk size {chunk_size} not divisible by EC k={oc.ec_k}"
            )
        super().__init__(container, oid, oc)
        self.chunk_size = int(chunk_size)
        self._size = 0
        #: reads served by a non-primary replica or through EC
        #: reconstruction since creation (clients diff this to count
        #: ``daos.ops.failed_over``)
        self.failovers = 0
        #: per chunk index, the number of valid bytes written in it
        self._extents: Dict[int, int] = {}

    # -- geometry helpers ------------------------------------------------------
    def _chunk_range(self, offset: Bytes, nbytes: Bytes) -> range:
        first = offset // self.chunk_size
        last = (offset + nbytes - 1) // self.chunk_size
        return range(first, last + 1)

    def _group_of_chunk(self, chunk_idx: int) -> int:
        return chunk_idx % self.n_groups

    @property
    def cell_size(self) -> int:
        return self.chunk_size // self.oc.ec_k if self.oc.is_ec else self.chunk_size

    def size(self) -> int:
        """Current array size (max written extent)."""
        return self._size

    # -- chunk storage ------------------------------------------------------------
    def _load_chunk(self, chunk_idx: int) -> Optional[bytearray]:
        """Assemble a materialised chunk's current bytes (None if never
        written)."""
        extent = self._extents.get(chunk_idx)
        if extent is None:
            return None
        gi = self._group_of_chunk(chunk_idx)
        group = self.groups[gi]
        held: Dict[int, bytes] = {}
        for member in self.live_members(group, "chunk %d", chunk_idx):
            shard = group[member].array_shards.get(self.shard_key(gi, member))
            if shard is not None and chunk_idx in shard:
                held[member] = shard[chunk_idx]
        buf = bytearray(self.chunk_size)
        if self.oc.is_ec:
            data_cells = self._resolve_cells(held, self.oc.ec_k, self.oc.ec_p, chunk_idx)
            for j, cell in enumerate(data_cells):
                buf[j * self.cell_size : j * self.cell_size + len(cell)] = cell
        elif held:
            data = next(iter(held.values()))  # the first live replica holding it
            buf[: len(data)] = data
        else:
            raise DataLossError(f"chunk {chunk_idx} of {self.oid}: no live replica")
        # Bytes past the valid extent (e.g. after a truncate) are holes.
        if extent < len(buf):
            buf[extent:] = bytes(len(buf) - extent)
        return buf

    def _resolve_cells(self, cells: Dict[int, bytes], k: int, p: int, chunk_idx: int):
        """Return the k data cells, reconstructing through parity if needed."""
        if all(j in cells for j in range(k)):
            return [cells[j] for j in range(k)]
        if len(cells) < k:
            raise DataLossError(
                f"chunk {chunk_idx} of {self.oid}: only {len(cells)} of {k} cells live"
            )
        return erasure.reconstruct(cells, k, p, cell_length=self.cell_size)

    @staticmethod
    def _put_shard_chunk(target: Target, skey: tuple, chunk_idx: int, payload: bytes, accounted: int) -> None:
        """Store one chunk piece on a target, keeping the device's space
        accounting in sync (``accounted`` is the media footprint, which
        for non-materialised stores differs from ``len(payload)``)."""
        shard = target.array_shards.setdefault(skey, {})
        old = shard.get(chunk_idx)
        old_size = shard.get(("__sizes__", chunk_idx), len(old) if old is not None else 0)
        delta = accounted - old_size
        if delta > 0:
            target.device.allocate(delta)
        elif delta < 0:
            target.device.release(-delta)
        shard[chunk_idx] = payload
        shard[("__sizes__", chunk_idx)] = accounted

    def _store_chunk(self, chunk_idx: int, buf: Optional[bytearray], extent: int) -> List[Target]:
        """Write a chunk to the members of its group's write plan;
        returns their targets.

        ``buf`` is the chunk's bytes, or None for a non-materialising
        container: shards then keep empty payloads, while quorum checks
        and space accounting run exactly as for real bytes.
        """
        gi = self._group_of_chunk(chunk_idx)
        group = self.groups[gi]
        members = self.plan(group, "write", "chunk %d", chunk_idx)
        if self.oc.is_ec:
            k, p = self.oc.ec_k, self.oc.ec_p
            size = cell = self.cell_size
            if buf is None:
                pieces = [b""] * (k + p)
            else:
                pieces = [bytes(buf[j * cell : (j + 1) * cell]) for j in range(k)]
                pieces += erasure.encode(pieces, p)
        else:
            size = extent
            pieces = [b"" if buf is None else bytes(buf[:extent])] * len(group)
        for member in members:
            self._put_shard_chunk(
                group[member], self.shard_key(gi, member), chunk_idx, pieces[member], size
            )
        return [group[member] for member in members]

    # -- public functional API (timing added by DaosClient) ----------------------
    def write(
        self, offset: int, data: Optional[bytes] = None, nbytes: Optional[int] = None
    ) -> Dict[Target, int]:
        """Write ``data`` (or ``nbytes`` of synthetic data when the
        container is non-materializing) at ``offset``.

        Returns the per-target byte charges (amplification included) the
        client uses to build the data flow.
        """
        if data is not None:
            nbytes = len(data)
        if nbytes is None:
            raise InvalidArgumentError("write needs data or nbytes")
        if offset < 0:
            raise InvalidArgumentError(f"negative offset: {offset}")
        if nbytes == 0:
            return {}
        if self.materialize and data is None:
            raise InvalidArgumentError("materializing container requires data bytes")
        charges: Dict[Target, int] = {}
        pos = 0
        for chunk_idx in self._chunk_range(offset, nbytes):
            chunk_base = chunk_idx * self.chunk_size
            start = max(offset, chunk_base) - chunk_base
            end = min(offset + nbytes, chunk_base + self.chunk_size) - chunk_base
            piece_len = end - start
            prev_extent = self._extents.get(chunk_idx, 0)
            buf: Optional[bytearray] = None
            if self.materialize:
                buf = self._load_chunk(chunk_idx) if prev_extent else None
                if buf is None:
                    buf = bytearray(self.chunk_size)
                buf[start:end] = data[pos : pos + piece_len]
            new_extent = max(prev_extent, end)
            targets = self._store_chunk(chunk_idx, buf, new_extent)
            self._extents[chunk_idx] = new_extent
            # each member is charged the bytes this write touched: its
            # cell's share of them for EC (parity included)
            share = self._share(piece_len)
            for target in targets:
                charges[target] = charges.get(target, 0) + share
            pos += piece_len
        self._size = max(self._size, offset + nbytes)
        self.container.epoch += 1
        return charges

    def read(self, offset: Bytes, nbytes: Bytes) -> Tuple[bytes, Dict[Target, int]]:
        """Read ``nbytes`` at ``offset``; returns ``(data, charges)``.

        Holes and regions past the written size read as zeros (the timed
        charge covers only bytes actually fetched from targets).  A
        non-materialising container fetches no bytes at all: it returns
        one shared zero buffer, and the charge loop alone decides
        liveness errors and failovers.
        """
        if offset < 0 or nbytes < 0:
            raise InvalidArgumentError("negative offset or length")
        if nbytes == 0:
            return b"", {}
        out = bytearray(nbytes) if self.materialize else None
        charges: Dict[Target, int] = {}
        for chunk_idx in self._chunk_range(offset, nbytes):
            chunk_base = chunk_idx * self.chunk_size
            start = max(offset, chunk_base) - chunk_base
            end = min(offset + nbytes, chunk_base + self.chunk_size) - chunk_base
            extent = self._extents.get(chunk_idx, 0)
            read_len = min(end, extent) - start
            if read_len <= 0:
                continue  # hole or past the extent: zeros, no transfer
            if out is not None:
                buf = self._load_chunk(chunk_idx)
                out_base = chunk_base + start - offset
                out[out_base : out_base + end - start] = buf[start:end]
            group = self.groups[self._group_of_chunk(chunk_idx)]
            members = self.plan(group, "read", "chunk %d", chunk_idx)
            if members != self.oc.healthy("read"):
                self.failovers += 1  # a later replica or parity serves
            share = self._share(read_len)
            for member in members:
                target = group[member]
                charges[target] = charges.get(target, 0) + share
        return (zeros(nbytes) if out is None else bytes(out)), charges

    def _share(self, nbytes: int) -> int:
        """Bytes one serving member moves of ``nbytes`` of one chunk."""
        return int(round(nbytes / self.oc.ec_k)) if self.oc.is_ec else nbytes

    def _member_share(self, nbytes: Bytes) -> float:
        """Bytes one serving member takes of ``nbytes`` of bulk I/O."""
        share = nbytes / self.n_groups
        return share / self.oc.ec_k if self.oc.is_ec else share

    def bulk_charges(self, kind: str, nbytes: Bytes) -> Dict[Target, float]:
        """Analytic per-target byte charges for ``nbytes`` of sequential
        bulk I/O, amplification included.

        Equivalent to summing :meth:`write`/:meth:`read` charges over a
        long run of chunk-aligned ops (chunks rotate round-robin over the
        groups), without touching the functional store: each group's
        serve plan takes one share.  An exhausted group raises the
        per-op error (``UnavailableError`` for a write,
        ``DataLossError`` for a read).  This per-object walk is the
        reference for :meth:`ring_charges` and the only degraded-pool
        path.
        """
        charges: Dict[Target, float] = {}
        get = charges.get
        amount = self._member_share(nbytes)
        for gi, group in enumerate(self.groups):
            for member in self.plan(group, kind, "group %d", gi):
                target = group[member]
                charges[target] = get(target, 0.0) + amount
        return charges

    @staticmethod
    def ring_charges(
        arrays: Sequence["DaosArray"], kind: str, nbytes: Bytes
    ) -> Optional[Tuple[NDArray[np.intp], NDArray[np.float64]]]:
        """Every array's :meth:`bulk_charges` ``(kind, nbytes)``, as
        (ring slot, amount) arrays concatenated in batch order, by index
        arithmetic over the ring (:func:`ring_batch`).

        A healthy ring slice has no repeated slot, so each object's
        charges are its served slots in group/member order, each taking
        the one amount ``bulk_charges`` computes.  None when
        :func:`ring_batch` sends the batch to the per-object path.
        """
        if kind not in ("write", "read"):
            raise InvalidArgumentError(f"kind must be 'write' or 'read': {kind}")
        batch = ring_batch(arrays, kind) if arrays else None
        if batch is None:
            return None
        slots, counts = batch
        amounts = np.fromiter(
            (arr._member_share(nbytes) for arr in arrays), dtype=np.float64, count=len(arrays)
        )
        return slots, np.repeat(amounts, counts)

    def truncate(self, new_size: Bytes) -> None:
        """Shrink (or extend with a hole) to ``new_size`` bytes."""
        if new_size < 0:
            raise InvalidArgumentError(f"negative size: {new_size}")
        if new_size < self._size:
            last_chunk = (new_size - 1) // self.chunk_size if new_size else -1
            for chunk_idx in list(self._extents):
                if chunk_idx > last_chunk:
                    self._drop_chunk(chunk_idx)
                elif chunk_idx == last_chunk:
                    self._extents[chunk_idx] = min(
                        self._extents[chunk_idx], new_size - chunk_idx * self.chunk_size
                    )
        self._size = new_size
        self.container.epoch += 1

    def _drop_chunk(self, chunk_idx: int) -> None:
        gi = self._group_of_chunk(chunk_idx)
        for member, target in enumerate(self.groups[gi]):
            shard = target.array_shards.get(self.shard_key(gi, member))
            if shard is not None and chunk_idx in shard:
                shard.pop(chunk_idx)
                accounted = shard.pop(("__sizes__", chunk_idx), 0)
                target.device.release(accounted)
        self._extents.pop(chunk_idx, None)

    def wipe(self) -> None:
        for chunk_idx in list(self._extents):
            self._drop_chunk(chunk_idx)
        self._size = 0
