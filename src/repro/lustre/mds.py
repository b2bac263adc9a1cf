"""The Metadata Server: a single, centralised namespace service.

Every pathname operation (lookup, create, open, unlink, readdir,
getattr) costs request slots on the one MDS link — this is the
architectural contrast with DAOS's fully distributed metadata that the
paper's fdb-hammer read results expose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ExistsError, InvalidArgumentError, NotFoundError
from repro.sim.flownet import Link
from repro.units import Bytes

__all__ = ["Inode", "MetadataServer"]

_inode_ids = itertools.count(1)


@dataclass
class Inode:
    """An MDS inode: identity plus the file's stripe layout."""

    path: str
    is_dir: bool
    inode_id: int = field(default_factory=lambda: next(_inode_ids))
    mode: int = 0o644
    stripe_count: int = 1
    stripe_size: Bytes = 1 << 20
    ost_indices: List[int] = field(default_factory=list)
    size: Bytes = 0
    children: Optional[Dict[str, "Inode"]] = None

    def __post_init__(self) -> None:
        if self.is_dir and self.children is None:
            self.children = {}


class MetadataServer:
    """Namespace tree + the MDS request-capacity link."""

    def __init__(self, net, capacity_ops: float, name: str = "lustre.mds"):
        self.link: Link = net.add_link(name, capacity_ops)
        self.root = Inode(path="/", is_dir=True, mode=0o755)

    # -- pure namespace operations (request charging is the client's job) --
    @staticmethod
    def _split(path: str) -> List[str]:
        if not path.startswith("/"):
            raise InvalidArgumentError(f"Lustre paths are absolute: {path!r}")
        return [c for c in path.split("/") if c]

    def lookup(self, path: str) -> Inode:
        node = self.root
        for comp in self._split(path):
            if not node.is_dir:
                raise NotFoundError(f"{path!r}: not a directory in the middle")
            child = node.children.get(comp)
            if child is None:
                raise NotFoundError(f"{path!r}: no such file or directory")
            node = child
        return node

    def _parent_of(self, path: str) -> tuple[Inode, str]:
        comps = self._split(path)
        if not comps:
            raise InvalidArgumentError("path refers to the root")
        parent = self.root
        for comp in comps[:-1]:
            child = parent.children.get(comp) if parent.is_dir else None
            if child is None:
                raise NotFoundError(f"{path!r}: missing parent component {comp!r}")
            parent = child
        if not parent.is_dir:
            raise NotFoundError(f"{path!r}: parent is not a directory")
        return parent, comps[-1]

    def create(
        self,
        path: str,
        is_dir: bool,
        mode: int,
        stripe_count: int,
        stripe_size: Bytes,
        ost_indices: List[int],
    ) -> Inode:
        parent, name = self._parent_of(path)
        if name in parent.children:
            raise ExistsError(f"{path!r} already exists")
        inode = Inode(
            path=path,
            is_dir=is_dir,
            mode=mode,
            stripe_count=stripe_count,
            stripe_size=stripe_size,
            ost_indices=list(ost_indices),
        )
        parent.children[name] = inode
        return inode

    def unlink(self, path: str) -> Inode:
        parent, name = self._parent_of(path)
        inode = parent.children.get(name)
        if inode is None:
            raise NotFoundError(f"{path!r}: no such file or directory")
        if inode.is_dir and inode.children:
            raise InvalidArgumentError(f"{path!r}: directory not empty")
        del parent.children[name]
        return inode

    def readdir(self, path: str) -> List[str]:
        inode = self.lookup(path)
        if not inode.is_dir:
            raise InvalidArgumentError(f"{path!r} is not a directory")
        return sorted(inode.children)
