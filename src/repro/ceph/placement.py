"""Placement groups and the (simplified) CRUSH mapping.

An object maps to a PG by hashing its name modulo ``pg_num``; each PG is
assigned an ordered set of OSDs (primary first) pseudo-randomly but
deterministically at pool creation.  Two real Ceph behaviours fall out:

- with few PGs (or few objects), load lands unevenly across OSDs — the
  balls-into-bins imbalance behind the paper's IOR-on-Ceph result and
  its PG-count tuning ("the optimum value found to be 1024, to achieve
  balanced object placement across OSDs");
- an individual object lives entirely on its primary OSD (plus replicas
  if the pool size > 1): there is no sharding, so one object's bandwidth
  is bounded by one device.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ceph.osd import Osd
from repro.errors import ConfigError
from repro.sim.randomness import stable_hash64, stable_hash64_with_prefix

__all__ = ["PgMap"]


class PgMap:
    """PG -> OSD-set mapping for one pool."""

    def __init__(self, pool_name: str, pg_num: int, osds: Sequence[Osd], size: int = 1):
        if pg_num < 1:
            raise ConfigError(f"pg_num must be >= 1, got {pg_num}")
        if size < 1 or size > len(osds):
            raise ConfigError(f"pool size {size} out of range 1..{len(osds)}")
        self.pool_name = pool_name
        self.pg_num = pg_num
        # object name -> stable_hash64("rados", pool_name, name), with the
        # constant prefix hashed once per map
        self._hash_name = stable_hash64_with_prefix("rados", pool_name)
        self.size = size
        self.osds = list(osds)
        self._acting: List[List[int]] = []
        n = len(self.osds)
        # PG -> primary through a seeded permutation walked modulo n: with
        # pg_num >= n the primaries are near-perfectly balanced (what the
        # paper achieved by tuning to 1024 PGs); with pg_num < n whole
        # OSDs receive no PGs at all — the under-utilisation a too-small
        # PG count causes in real Ceph.
        perm = list(range(n))
        rng_state = stable_hash64("crush-perm", pool_name)
        for i in range(n - 1, 0, -1):
            rng_state = (rng_state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            j = rng_state % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        for pg in range(pg_num):
            first = perm[pg % n]
            # replicas: next fault-domain-spread slots, probing collisions
            acting = [first]
            step = max(1, n // size)
            cand = first
            while len(acting) < size:
                cand = (cand + step) % n
                while cand in acting:
                    cand = (cand + 1) % n
                acting.append(cand)
            self._acting.append(acting)

    def pg_of(self, object_name: str) -> int:
        return self._hash_name(object_name) % self.pg_num

    def acting_set(self, object_name: str) -> List[Osd]:
        """All OSDs holding the object (primary first)."""
        return [self.osds[i] for i in self._acting[self.pg_of(object_name)]]

    def primary(self, object_name: str) -> Osd:
        return self.osds[self._acting[self.pg_of(object_name)][0]]

    def pg_distribution(self) -> List[int]:
        """Primary-PG count per OSD (used to verify balance in tests)."""
        counts = [0] * len(self.osds)
        for acting in self._acting:
            counts[acting[0]] += 1
        return counts
