"""Pool rebuild: restore redundancy after a target failure.

Real DAOS starts a server-driven rebuild when the pool map marks a
target DOWN: surviving shards are read, lost shards are reconstructed
(replica copy or erasure decode), and written to replacement targets,
after which objects regain their full redundancy.  This module
implements that for the functional store, with the data movement timed
over the flow network as server-to-server traffic.

Objects without redundancy (S1/SX) cannot be repaired; they are counted
as lost, exactly as a real pool would report unrecoverable objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.daos.array import DaosArray
from repro.daos.kv import DaosKV
from repro.daos.obj import DaosObject
from repro.daos.pool import Pool, Target
from repro.errors import ConfigError, DataLossError
from repro.daos import erasure
from repro.sim.flownet import Link

__all__ = ["RebuildReport", "plan_rebuild", "run_rebuild"]


@dataclass
class RebuildReport:
    """Outcome of one rebuild pass."""

    failed_target: str
    shards_rebuilt: int = 0
    bytes_moved: int = 0
    objects_lost: List[str] = field(default_factory=list)
    duration: float = 0.0

    @property
    def fully_recovered(self) -> bool:
        return not self.objects_lost


def _replacement_for(pool: Pool, group: List[Target]) -> Target:
    """Pick a live target not already in the group, walking the ring from
    the group's last member (DAOS-style deterministic failover)."""
    start = group[-1].global_index
    n = pool.n_targets
    for step in range(1, n + 1):
        candidate = pool.ring[(start + step) % n]
        if candidate.alive and candidate not in group:
            return candidate
    raise DataLossError("no live replacement target available")


def plan_rebuild(pool: Pool, failed: Target) -> List[Tuple[object, int, int]]:
    """Enumerate (object, group_index, member_index) shards that lived on
    the failed target."""
    todo = []
    for cont in pool._containers.values():
        for obj in cont.objects.values():
            groups = getattr(obj, "groups", None)
            if not groups:
                continue
            for gi, group in enumerate(groups):
                for mi, target in enumerate(group):
                    if target is failed:
                        todo.append((obj, gi, mi))
    return todo


def _source(obj: DaosObject, gi: int, mi: int) -> int:
    """The member a lost replica is copied from: the read plan of group
    ``gi`` with the lost member ``mi`` masked.  Raises
    ``DataLossError`` when no other replica is live."""
    alive = tuple([t.alive and m != mi for m, t in enumerate(obj.groups[gi])])
    return obj.oc.serve(alive, "read")[0]


def _rebuild_array_shard(pool: Pool, arr: DaosArray, gi: int, mi: int, dest: Target) -> Tuple[int, Dict[Target, int]]:
    """Reconstruct one lost array shard onto ``dest``.

    Returns (bytes written to dest, per-source-target bytes read).
    """
    group = arr.groups[gi]
    reads: Dict[Target, int] = {}
    written = 0
    chunk_indices = [c for c in arr._extents if arr._group_of_chunk(c) == gi]
    for chunk_idx in chunk_indices:
        if arr.oc.is_ec:
            k, p = arr.oc.ec_k, arr.oc.ec_p
            cell = arr.cell_size
            cells: Dict[int, bytes] = {}
            for member, target in enumerate(group):
                if member == mi or not target.alive:
                    continue
                shard = target.array_shards.get(arr.shard_key(gi, member))
                if shard is not None and chunk_idx in shard:
                    cells[member] = shard[chunk_idx]
                    reads[target] = reads.get(target, 0) + cell
            if len(cells) < k:
                raise DataLossError(f"{arr.oid}: not enough cells to rebuild")
            if arr.materialize:
                data_cells = erasure.reconstruct(cells, k, p, cell_length=cell)
                if mi < k:
                    payload = data_cells[mi]
                else:
                    payload = erasure.encode(data_cells, p)[mi - k]
            else:
                payload = b""
            arr._put_shard_chunk(dest, arr.shard_key(gi, mi), chunk_idx, payload, cell)
            written += cell
        else:
            # raises for a class without redundancy: no other replica
            sm = _source(arr, gi, mi)
            source = group[sm]
            shard = source.array_shards.get(arr.shard_key(gi, sm))
            payload = b""
            size = arr._extents.get(chunk_idx, 0)
            if shard is not None and chunk_idx in shard:
                payload = shard[chunk_idx]
                size = shard.get(("__sizes__", chunk_idx), len(payload))
            reads[source] = reads.get(source, 0) + size
            arr._put_shard_chunk(dest, arr.shard_key(gi, mi), chunk_idx, payload, size)
            written += size
    return written, reads


def _rebuild_kv_shard(kv: DaosKV, gi: int, mi: int, dest: Target) -> Tuple[int, Dict[Target, int]]:
    sm = _source(kv, gi, mi)
    source = kv.groups[gi][sm]
    store = source.kv_shards.get(kv.shard_key(gi, sm), {})
    dest_store = dest.kv_shards.setdefault(kv.shard_key(gi, mi), {})
    moved = 0
    for key, value in store.items():
        dest_store[key] = value
        moved += len(value) if isinstance(value, (bytes, bytearray)) else 0
    return moved, {source: moved}


def run_rebuild(pool: Pool, failed: Target, bandwidth_share: float = 0.25) -> Generator:
    """Timed rebuild coroutine; yield-from inside a simulation process.

    ``bandwidth_share`` throttles rebuild traffic (real DAOS paces
    rebuild to protect foreground I/O).  Returns a :class:`RebuildReport`.
    """
    if not 0.0 < bandwidth_share <= 1.0:
        raise ConfigError(
            f"bandwidth_share must be in (0, 1], got {bandwidth_share!r}"
        )
    cluster = pool.cluster
    sim = cluster.sim
    t0 = sim.now
    report = RebuildReport(failed_target=failed.name)
    for obj, gi, mi in plan_rebuild(pool, failed):
        group = obj.groups[gi]
        try:
            dest = _replacement_for(pool, group)
            if isinstance(obj, DaosArray):
                written, reads = _rebuild_array_shard(pool, obj, gi, mi, dest)
            elif isinstance(obj, DaosKV):
                written, reads = _rebuild_kv_shard(obj, gi, mi, dest)
            else:  # pragma: no cover - future object kinds
                continue
        except DataLossError:
            report.objects_lost.append(str(obj.oid))
            continue
        obj.relocate(gi, mi, dest)  # the pool map now points at the replacement
        pool.map_version += 1
        report.shards_rebuilt += 1
        report.bytes_moved += written
        if written > 0:
            # server-to-server movement: sources read + send, dest receives
            # and writes, throttled to the configured share of each link
            loads: Dict[Link, float] = {}

            def add(link: Link, amount: float) -> None:
                loads[link] = loads.get(link, 0.0) + amount / bandwidth_share

            for source, nbytes in reads.items():
                add(source.device.read_link, nbytes)
                add(source.engine.node.ssd_agg_r, nbytes)
                add(source.engine.node.nic_tx, nbytes)
            add(dest.engine.node.nic_rx, written)
            add(dest.engine.node.ssd_agg_w, written)
            add(dest.device.write_link, written)
            usages = [(link, load / written) for link, load in loads.items()]
            flow = cluster.net.transfer(written, usages, name="rebuild")
            yield flow.done
    report.duration = sim.now - t0
    return report
