"""DAOS Key-Value objects.

Paper Section I: "Key-Values provide a mapping between keys
(limited-length strings) and values (arbitrary-length data) that can be
queried."  Keys hash to a shard group; within a group the value is
replicated per the object class (the paper replicates indexing KVs with
RP_2 rather than erasure-coding them, Section III-D).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.daos.container import Container
from repro.daos.obj import DaosObject, first_appearance, ring_batch
from repro.daos.objclass import ObjectClass
from repro.daos.oid import ObjectId
from repro.daos.placement import jump_consistent_hash
from repro.daos.pool import Target
from repro.errors import InvalidArgumentError, NotFoundError
from repro.sim.randomness import stable_hash64
from repro.units import Bytes

if TYPE_CHECKING:
    from numpy.typing import NDArray

    #: per-key loads as parallel (index, amount) arrays
    Profile = Tuple[NDArray[np.intp], NDArray[np.float64]]

__all__ = ["DaosKV", "MAX_KEY_LENGTH"]

#: DAOS dkeys are bounded; we enforce a paper-plausible bound.
MAX_KEY_LENGTH = 256


class DaosKV(DaosObject):
    """A distributed dictionary object."""

    kind = "kv"

    def __init__(self, container: Container, oid: ObjectId, oc: ObjectClass):
        if oc.is_ec:
            raise InvalidArgumentError(
                f"KV objects cannot be erasure-coded (class {oc.name})"
            )
        super().__init__(container, oid, oc)

    # -- internals ---------------------------------------------------------
    def _group_for(self, key: str) -> int:
        return jump_consistent_hash(stable_hash64(key), self.n_groups)

    def _shard_store(self, target: Target, group_idx: int, member_idx: int) -> Dict:
        skey = self.shard_key(group_idx, member_idx)
        store = target.kv_shards.get(skey)
        if store is None:
            store = {}
            target.kv_shards[skey] = store
        return store

    @staticmethod
    def _check_key(key: str) -> None:
        if not isinstance(key, str) or not key:
            raise InvalidArgumentError(f"KV key must be a non-empty string: {key!r}")
        if len(key) > MAX_KEY_LENGTH:
            raise InvalidArgumentError(
                f"KV key exceeds {MAX_KEY_LENGTH} characters ({len(key)})"
            )

    # -- functional operations (timing added by DaosClient) ------------------
    def put(self, key: str, value: bytes) -> Dict[Target, int]:
        """Store ``key -> value``; returns per-target byte charges."""
        self._check_key(key)
        if not isinstance(value, (bytes, bytearray)):
            raise InvalidArgumentError("KV value must be bytes")
        gi = self._group_for(key)
        group = self.groups[gi]
        members = self.plan(group, "write", "key %r", key)
        # KV values are always materialised (they are small: directory
        # entries, index records); only bulk Array data honours the
        # container's materialize switch.
        charges: Dict[Target, int] = {}
        payload = bytes(value)
        for member in members:
            target = group[member]
            self._shard_store(target, gi, member)[key] = payload
            charges[target] = len(value)
        self.container.epoch += 1
        return charges

    def get(self, key: str) -> Tuple[bytes, Target]:
        """Fetch a value from the read plan's replica; returns ``(value,
        serving_target)``.  A group with no live replica raises
        ``DataLossError``: its data is gone, so it is not retryable."""
        self._check_key(key)
        gi = self._group_for(key)
        group = self.groups[gi]
        for member in self.live_members(group, "key %r", key):
            store = group[member].kv_shards.get(self.shard_key(gi, member))
            if store is not None and key in store:
                return store[key], group[member]
        raise NotFoundError(f"key {key!r} not found")

    def remove(self, key: str) -> List[Target]:
        """Delete ``key`` from every member of its group's write plan;
        returns their targets."""
        self._check_key(key)
        gi = self._group_for(key)
        group = self.groups[gi]
        members = self.plan(group, "write", "key %r", key)
        found = False
        for member in members:
            store = group[member].kv_shards.get(self.shard_key(gi, member))
            if store is not None and key in store:
                del store[key]
                found = True
        if not found:
            raise NotFoundError(f"key {key!r} not found")
        self.container.epoch += 1
        return [group[member] for member in members]

    def contains(self, key: str) -> bool:
        try:
            self.get(key)
            return True
        except NotFoundError:
            return False

    def keys(self) -> Set[str]:
        """Union of keys across all live shards (a full enumeration).
        A group with no live replica raises ``DataLossError``, as a get
        of its keys would."""
        out: Set[str] = set()
        for gi, group in enumerate(self.groups):
            for member in self.live_members(group, "group %d", gi):
                store = group[member].kv_shards.get(self.shard_key(gi, member))
                if store:
                    out.update(store.keys())
        return out

    def __len__(self) -> int:
        return len(self.keys())

    def value_size(self, key: str) -> int:
        value, _ = self.get(key)
        return len(value)

    def bulk_op_loads(
        self, kind: str, n_ops: float, value_size: Bytes
    ) -> Tuple[Dict[Target, float], Dict]:
        """Analytic loads for ``n_ops`` puts/gets with uniformly hashed
        keys: per-target value bytes and per-engine request ops.

        Each group's serve plan takes ``n_ops / n_groups`` ops: every
        live replica for puts, the first for gets.  A fully down group
        raises what :meth:`put`/:meth:`get` raise: ``UnavailableError``
        for puts, ``DataLossError`` for gets.  Used
        by the benchmark harness to batch index traffic (Field I/O and
        fdb-hammer average ~10 KV ops per field, paper Section III-B);
        the reference for :meth:`ring_op_loads` and the only
        degraded-pool path.
        """
        op = _plan_kind(kind)
        charges: Dict[Target, float] = {}
        engine_ops: Dict = {}
        per_group = n_ops / self.n_groups
        for gi, group in enumerate(self.groups):
            for member in self.plan(group, op, "group %d", gi):
                target = group[member]
                charges[target] = charges.get(target, 0.0) + per_group * value_size
                engine_ops[target.engine] = engine_ops.get(target.engine, 0.0) + per_group
        return charges, engine_ops

    @staticmethod
    def ring_op_loads(
        loads: Sequence[Tuple["DaosKV", float]], kind: str, value_size: Bytes
    ) -> Optional[Tuple[Profile, Profile]]:
        """:meth:`bulk_op_loads` ``(kind, n_ops, value_size)`` of every
        ``(kv, n_ops)`` in ``loads``, by index arithmetic over the ring
        (:func:`ring_batch`): (ring slot, bytes) and (engine index, ops)
        arrays, each concatenated in batch order.

        A healthy ring slice repeats no slot, so a KV's target loads are
        its served slots in group/member order, each ``per_group *
        value_size``.  Its engine ops are one entry per engine, in
        first-appearance order, holding the fold ``((0.0 + per_group) +
        per_group) ...`` over that engine's serving targets: a row of
        ``np.cumsum``, never ``count * per_group``.  None when
        :func:`ring_batch` sends the batch to the per-object path.
        """
        op = _plan_kind(kind)
        kvs = [kv for kv, _ in loads]
        batch = ring_batch(kvs, op) if kvs else None
        if batch is None:
            return None
        slots, counts = batch
        pool = kvs[0].container.pool
        per_group = np.fromiter(
            (n_ops / kv.n_groups for kv, n_ops in loads), dtype=np.float64, count=len(kvs)
        )
        n_eng = len(pool.engines)
        rows = np.repeat(np.arange(len(kvs), dtype=np.intp), counts)
        keys = rows * n_eng + pool.slot_engine[slots]
        # one entry per (kv, engine) pair, in row-major first appearance
        uniq = first_appearance(keys)
        hits = np.bincount(keys)[uniq]
        values, value_of_row = np.unique(per_group, return_inverse=True)
        folds = np.cumsum(np.broadcast_to(values[:, None], (len(values), hits.max())), axis=1)
        engine_ops = folds[value_of_row[uniq // n_eng], hits - 1]
        return (slots, np.repeat(per_group * value_size, counts)), (uniq % n_eng, engine_ops)

    def wipe(self) -> None:
        for gi, group in enumerate(self.groups):
            for member, target in enumerate(group):
                target.kv_shards.pop(self.shard_key(gi, member), None)


def _plan_kind(kind: str) -> str:
    """The serve-plan kind of KV op ``kind`` (``"put"``/``"get"``)."""
    if kind == "put":
        return "write"
    if kind == "get":
        return "read"
    raise InvalidArgumentError(f"kind must be 'put' or 'get': {kind}")
