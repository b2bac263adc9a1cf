"""DAOS object classes: sharding / replication / erasure-coding layout.

The object class chosen at object-creation time controls how an object's
shards spread over pool targets (paper Section I).  The grammar accepted
here covers every class the paper uses plus the obvious generalisations:

- ``S<n>``     — n shard groups of width 1, no redundancy (``S1``, ``S2``...)
- ``SX``       — one shard per target ("sharding across all targets")
- ``RP_<r>``   — r-way replication, a single group (``RP_2``)
- ``RP_<r>GX`` — r-way replication, groups across all targets
- ``EC_<k>P<p>``   — erasure code k data + p parity, a single group
- ``EC_<k>P<p>GX`` — erasure-coded groups across all targets

A *group* is the placement unit: ``groups × group_width`` targets hold the
object.  ``GX``/``SX`` resolve the group count against the pool at
creation time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from repro.errors import DataLossError, InvalidArgumentError, UnavailableError

__all__ = ["ObjectClass"]

_PATTERNS = [
    re.compile(r"^S(?P<groups>\d+|X)$"),
    re.compile(r"^RP_(?P<replicas>\d+)(?:G(?P<groups>\d+|X))?$"),
    re.compile(r"^EC_(?P<k>\d+)P(?P<p>\d+)(?:G(?P<groups>\d+|X))?$"),
]

#: sentinel group count meaning "as many groups as the pool allows"
GROUPS_MAX = -1


@dataclass(frozen=True)
class ObjectClass:
    """Parsed object class.

    Attributes
    ----------
    name:
        canonical string form (``"EC_2P1"``).
    groups:
        number of shard groups, or :data:`GROUPS_MAX` for ``SX``/``GX``.
    replicas:
        copies per group (1 = unreplicated).
    ec_k, ec_p:
        erasure-code data/parity cell counts (0/0 = no EC).
    """

    name: str
    groups: int
    replicas: int = 1
    ec_k: int = 0
    ec_p: int = 0

    # -- constructors --------------------------------------------------------
    @classmethod
    def parse(cls, text: "str | ObjectClass") -> "ObjectClass":
        """Parse an object-class string (case-insensitive)."""
        if isinstance(text, ObjectClass):
            return text
        s = text.strip().upper()
        for pattern in _PATTERNS:
            match = pattern.match(s)
            if not match:
                continue
            fields = match.groupdict()
            raw_groups = fields.get("groups")
            if raw_groups == "X":
                groups = GROUPS_MAX
            elif raw_groups is None:
                groups = 1  # RP_r / EC_kPp without a G suffix: single group
            else:
                groups = int(raw_groups)
            if pattern is _PATTERNS[0]:
                oc = cls(name=s, groups=groups)
            elif pattern is _PATTERNS[1]:
                oc = cls(name=s, groups=groups, replicas=int(fields["replicas"]))
            else:
                oc = cls(
                    name=s,
                    groups=groups,
                    ec_k=int(fields["k"]),
                    ec_p=int(fields["p"]),
                )
            oc._validate()
            return oc
        raise InvalidArgumentError(f"unknown object class {text!r}")

    def _validate(self) -> None:
        if self.groups == 0 or self.groups < GROUPS_MAX:
            raise InvalidArgumentError(f"{self.name}: invalid group count {self.groups}")
        if self.replicas < 1:
            raise InvalidArgumentError(f"{self.name}: replicas must be >= 1")
        if (self.ec_k == 0) != (self.ec_p == 0):
            raise InvalidArgumentError(f"{self.name}: EC needs both k and p")
        if self.ec_k < 0 or self.ec_p < 0:
            raise InvalidArgumentError(f"{self.name}: negative EC parameters")
        if self.ec_k and self.ec_k < 1:
            raise InvalidArgumentError(f"{self.name}: EC k must be >= 1")
        if self.ec_k and self.replicas > 1:
            raise InvalidArgumentError(f"{self.name}: EC and replication are exclusive")
        if self.ec_k + self.ec_p > 255:
            raise InvalidArgumentError(f"{self.name}: GF(256) supports k+p <= 255")

    # -- derived layout properties -------------------------------------------
    @property
    def is_ec(self) -> bool:
        return self.ec_k > 0

    @property
    def is_replicated(self) -> bool:
        return self.replicas > 1

    @property
    def group_width(self) -> int:
        """Targets per shard group."""
        if self.is_ec:
            return self.ec_k + self.ec_p
        return self.replicas

    def resolve_groups(self, n_targets: int) -> int:
        """Concrete group count for a pool with ``n_targets`` targets."""
        if n_targets < self.group_width:
            raise InvalidArgumentError(
                f"{self.name}: needs {self.group_width} targets, pool has {n_targets}"
            )
        if self.groups == GROUPS_MAX:
            return max(1, n_targets // self.group_width)
        return self.groups

    @property
    def write_amplification(self) -> float:
        """Bytes hitting devices (and the wire) per logical byte written.

        EC 2+1 -> 1.5 (paper Section III-D: "an additional 50% of data
        volume needs to be written"); RP_2 -> 2.0; plain -> 1.0.
        """
        if self.is_ec:
            return (self.ec_k + self.ec_p) / self.ec_k
        return float(self.replicas)

    @property
    def redundancy(self) -> int:
        """Number of concurrent target failures the class tolerates."""
        if self.is_ec:
            return self.ec_p
        return self.replicas - 1

    # -- serve plan ------------------------------------------------------------
    @lru_cache(maxsize=None)
    def serve(self, alive: Tuple[bool, ...], kind: str) -> Tuple[int, ...]:
        """The members of one group that serve op ``kind``, in member order.

        ``alive`` is the group's per-member liveness and ``kind`` is
        ``"write"`` or ``"read"``.  A group has quorum with k live
        members for EC, else with one.  Then a write reaches every live
        member, and a read the first k live members for EC or the first
        live replica otherwise.  Below quorum a write raises
        :class:`UnavailableError` and a read :class:`DataLossError`.
        With every member alive this is the :meth:`healthy` plan.
        Plans are cached; errors are raised afresh.
        """
        if kind not in ("write", "read"):
            raise InvalidArgumentError(f"kind must be 'write' or 'read': {kind}")
        live = tuple(m for m, up in enumerate(alive) if up)
        quorum = self.ec_k if self.is_ec else 1
        if len(live) < quorum:
            if kind == "write":
                raise UnavailableError(f"{len(live)} of {quorum} live, below write quorum")
            if self.is_ec:
                raise DataLossError(f"only {len(live)} of {quorum} cells live")
            raise DataLossError("no live replica")
        return live if kind == "write" else live[:quorum]

    def healthy(self, kind: str) -> Tuple[int, ...]:
        """:meth:`serve` with every member of the group alive."""
        return self.serve((True,) * self.group_width, kind)

    def __str__(self) -> str:
        return self.name
