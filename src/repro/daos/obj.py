"""Base class for DAOS objects: class resolution and shard placement."""

from __future__ import annotations

from typing import List

from repro.daos.container import Container
from repro.daos.objclass import ObjectClass
from repro.daos.oid import ObjectId
from repro.daos.placement import start_slot
from repro.daos.pool import Target

__all__ = ["DaosObject"]


class DaosObject:
    """Common machinery: resolve the object class against the pool and
    compute the target group layout algorithmically from the OID."""

    kind = "object"

    def __init__(self, container: Container, oid: ObjectId, oc: ObjectClass):
        self.container = container
        self.oid = oid
        self.oc = oc
        pool = container.pool
        n_groups = oc.resolve_groups(pool.n_targets)
        start = start_slot(
            oid_key=oid.as_int(),
            n_groups=n_groups,
            group_width=oc.group_width,
            ring_size=pool.n_targets,
            salt=(pool.label, container.id),
        )
        #: per group, the targets holding its shards (data first, then
        #: parity): the ring slots :func:`place_groups` picks, as slices
        self.groups: List[List[Target]] = pool.ring_groups(start, n_groups, oc.group_width)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def materialize(self) -> bool:
        return self.container.materialize

    def shard_key(self, group_idx: int, member_idx: int) -> tuple:
        """The key under which a shard's data lives on its target."""
        shard = group_idx * self.oc.group_width + member_idx
        return (self.container.id, self.oid, shard)

    def all_targets(self) -> List[Target]:
        seen = []
        for group in self.groups:
            for t in group:
                if t not in seen:
                    seen.append(t)
        return seen

    def wipe(self) -> None:  # overridden by subclasses
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.oid} oc={self.oc.name} groups={self.n_groups}>"
