"""Algorithmic object placement.

DAOS computes shard locations algorithmically from the OID and the pool
map (no central lookup).  We reproduce that with:

- **jump consistent hashing** (Lamping & Veach) for stable bucket choice
  with minimal movement when the pool grows, and
- a **node-interleaved target ring** so that the consecutive targets a
  group occupies always sit on distinct server nodes (fault domains),
  matching DAOS's domain-aware placement — which is what makes RP/EC
  survive *node* failures, not just device failures.
"""

from __future__ import annotations

from typing import List, Sequence, TypeVar

from repro.errors import InvalidArgumentError
from repro.sim.randomness import stable_hash64

__all__ = ["jump_consistent_hash", "interleave_ring", "start_slot", "place_groups"]

T = TypeVar("T")


def jump_consistent_hash(key: int, num_buckets: int) -> int:
    """Google's jump consistent hash: maps a 64-bit key to a bucket with
    minimal remapping as ``num_buckets`` grows."""
    if num_buckets <= 0:
        raise InvalidArgumentError(f"num_buckets must be positive, got {num_buckets}")
    key &= (1 << 64) - 1
    b, j = -1, 0
    while j < num_buckets:
        b = j
        key = (key * 2862933555777941757 + 1) & ((1 << 64) - 1)
        j = int((b + 1) * (float(1 << 31) / float((key >> 33) + 1)))
    return b


def interleave_ring(groups_of_items: Sequence[Sequence[T]]) -> List[T]:
    """Round-robin interleave: [[a0,a1],[b0,b1]] -> [a0,b0,a1,b1].

    Used to order pool targets so that walking the ring alternates server
    nodes; any window of width <= n_nodes then spans distinct nodes.
    """
    ring: List[T] = []
    depth = max((len(g) for g in groups_of_items), default=0)
    for level in range(depth):
        for group in groups_of_items:
            if level < len(group):
                ring.append(group[level])
    return ring


def start_slot(
    oid_key: int,
    n_groups: int,
    group_width: int,
    ring_size: int,
    salt: object = "",
) -> int:
    """The ring slot where an object's first group starts.

    The single placement rule: an object occupies ``n_groups *
    group_width`` consecutive ring slots (wrapping) from this slot,
    which is a consistent hash of the OID.
    """
    total = n_groups * group_width
    if total > ring_size:
        raise InvalidArgumentError(
            f"object needs {total} targets but the pool ring has {ring_size}"
        )
    return jump_consistent_hash(stable_hash64(oid_key, salt), ring_size)


def place_groups(
    oid_key: int,
    n_groups: int,
    group_width: int,
    ring_size: int,
    salt: object = "",
) -> List[List[int]]:
    """Choose ring positions for ``n_groups`` groups of ``group_width``.

    Returns, per group, the list of ring indices holding its shards.
    Consecutive ring slots are used so groups inherit the ring's
    node-interleaving; the starting slot is a consistent hash of the OID
    (:func:`start_slot`), so placement is deterministic, uniform across
    objects, and needs no lookup table.
    """
    start = start_slot(oid_key, n_groups, group_width, ring_size, salt)
    slots = [(start + i) % ring_size for i in range(n_groups * group_width)]
    return [slots[g * group_width : (g + 1) * group_width] for g in range(n_groups)]
