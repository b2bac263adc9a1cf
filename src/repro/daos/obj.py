"""Base class for DAOS objects: class resolution and shard placement."""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import groupby
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.daos.container import Container
from repro.daos.objclass import ObjectClass
from repro.daos.oid import ObjectId
from repro.daos.placement import start_slot
from repro.daos.pool import Target
from repro.errors import DataLossError, UnavailableError

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = ["DaosObject", "first_appearance", "ring_offsets", "ring_batch"]


class DaosObject:
    """Common machinery: resolve the object class against the pool and
    compute the target group layout algorithmically from the OID.

    A layout is ``(start, n_groups, group_width)``: the object's shards
    occupy ``n_groups * group_width`` consecutive ring slots from
    ``start``.  The per-group target lists are built only when something
    reads :attr:`groups`.
    """

    kind = "object"

    def __init__(self, container: Container, oid: ObjectId, oc: ObjectClass):
        self.container = container
        self.oid = oid
        self.oc = oc
        pool = container.pool
        self.n_groups = oc.resolve_groups(pool.n_targets)
        #: the ring slot where the first group starts
        self.start = start_slot(
            oid_key=oid.as_int(),
            n_groups=self.n_groups,
            group_width=oc.group_width,
            ring_size=pool.n_targets,
            salt=(pool.label, container.id),
        )
        #: whether rebuild moved a shard off the ring slice
        self.relaid = False

    @cached_property
    def groups(self) -> List[List[Target]]:
        """Per group, the targets holding its shards (data first, then
        parity): the ring slots :func:`place_groups` picks, as private
        lists built on first use."""
        return self.container.pool.ring_groups(self.start, self.n_groups, self.oc.group_width)

    def relocate(self, group_idx: int, member_idx: int, target: Target) -> None:
        """Point one shard at ``target`` (rebuild's replacement); the
        layout is no longer a ring slice."""
        self.groups[group_idx][member_idx] = target
        self.relaid = True

    def plan(self, group: Sequence[Target], kind: str, where: str, *args: object) -> Tuple[int, ...]:
        """The members of ``group`` that serve op ``kind``: the class's
        :meth:`~ObjectClass.serve` plan over the members' liveness.  Its
        error names ``where % args`` and the OID, formatted only when
        the plan raises."""
        try:
            return self.oc.serve(tuple([t.alive for t in group]), kind)
        except (UnavailableError, DataLossError) as err:
            raise type(err)(f"{where % args} of {self.oid}: {err}") from None

    def live_members(self, group: Sequence[Target], where: str, *args: object) -> Tuple[int, ...]:
        """Every live member of ``group``, in member order (the write
        plan), once the read plan shows the group can serve a read.
        Searches walk these from the read plan's first member on, so a
        member restored empty (recovered without rebuild) falls through
        to the next."""
        self.plan(group, "read", where, *args)
        return self.plan(group, "write", where, *args)

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


def first_appearance(idx: NDArray[np.intp]) -> NDArray[np.intp]:
    """The distinct values of ``idx`` in order of first appearance: the
    key order a dict fold over ``idx`` inserts.  O(len(idx)), no sort
    of ``idx`` itself."""
    n = len(idx)
    first = np.full(int(idx.max()) + 1 if n else 0, n, dtype=np.intp)
    np.minimum.at(first, idx, np.arange(n, dtype=np.intp))
    present = np.flatnonzero(first < n)
    return present[np.argsort(first[present])]


@lru_cache(maxsize=None)
def ring_offsets(n_groups: int, width: int, members: Tuple[int, ...]) -> NDArray[np.intp]:
    """The canonical profile: ring-relative slots of ``members`` (a
    healthy plan) in each of ``n_groups`` groups of ``width``, in
    group/member order.  Read-only, as it is shared."""
    offs = (np.arange(n_groups)[:, None] * width + np.array(members, dtype=np.intp)).ravel()
    offs.flags.writeable = False
    return offs


def ring_batch(
    objs: Sequence[DaosObject], kind: str
) -> Optional[Tuple[NDArray[np.intp], NDArray[np.intp]]]:
    """The ring slots that serve op ``kind`` (``"write"``/``"read"``) on
    each object, by index arithmetic over the ring instead of
    per-object group lists.

    Returns ``(slots, counts)``: ``slots`` holds each object's
    :func:`ring_offsets` of the healthy plan rotated by its ``start``,
    concatenated in batch order, and ``counts[i]`` is the number of
    slots of ``objs[i]``.  Returns None unless every object is still a
    pure ring slice and every group's plan is the healthy plan; such a
    batch must take the per-object path.  ``objs`` must be non-empty
    and share one pool.
    """
    pool = objs[0].container.pool
    n = pool.n_targets
    blocks = []
    counts = []
    # a run of objects sharing one canonical profile is one 2-D block
    for _, group in groupby(objs, key=lambda o: (type(o), o.oc.name, o.n_groups)):
        run = list(group)
        if any(o.relaid for o in run):
            return None
        head = run[0]
        offs = ring_offsets(head.n_groups, head.oc.group_width, head.oc.healthy(kind))
        starts = np.fromiter((o.start for o in run), dtype=np.intp, count=len(run))
        block = starts[:, None] + offs
        # start < n and offs < n: wrapping is one subtraction, not a modulo
        np.subtract(block, n, out=block, where=block >= n)
        blocks.append(block.ravel())
        counts.append(np.full(len(run), len(offs), dtype=np.intp))
    slots = np.concatenate(blocks)
    # a plan takes leading live members, so it is the healthy plan
    # exactly when every member the healthy plan names is alive
    alive = pool.alive_mask()
    if not alive.all() and not alive[slots].all():
        return None
    return slots, np.concatenate(counts)
