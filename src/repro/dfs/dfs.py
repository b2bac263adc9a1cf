"""The DFS filesystem object and its timed POSIX-style operations."""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.daos.array import DaosArray
from repro.daos.client import DaosClient
from repro.daos.container import Container
from repro.daos.kv import DaosKV
from repro.daos.objclass import ObjectClass
from repro.dfs.entry import KIND_DIR, KIND_FILE, KIND_SYMLINK, DirEntry
from repro.errors import (
    ExistsError,
    InvalidArgumentError,
    NotFoundError,
)
from repro.units import MiB, zeros

__all__ = ["Dfs", "DfsFile"]

_MAX_SYMLINK_DEPTH = 8


class DfsFile:
    """An open file handle: the backing Array plus identity metadata."""

    def __init__(self, dfs: "Dfs", path: str, array: DaosArray, mode: int):
        self.dfs = dfs
        self.path = path
        self.array = array
        self.mode = mode
        self.open = True

    def size(self) -> int:
        return self.array.size()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DfsFile {self.path!r}>"


class Dfs:
    """A mounted DFS namespace inside one container.

    ``dir_class`` / ``file_class`` are the object classes for new
    directories and files — the knobs the paper tunes (SX everywhere for
    throughput; RP_2 directories + EC_2P1 files in the redundancy runs,
    Section III-D).
    """

    def __init__(
        self,
        client: DaosClient,
        container: Container,
        dir_class: str = "SX",
        file_class: str = "SX",
        chunk_size: int = MiB,
    ):
        self.client = client
        self.container = container
        self.dir_class = ObjectClass.parse(dir_class)
        self.file_class = ObjectClass.parse(file_class)
        self.chunk_size = int(chunk_size)
        self.root: Optional[DaosKV] = None

    # -- mount ------------------------------------------------------------------
    def mount(self) -> Generator:
        """Create (or open) the superblock / root directory.

        Root creation is registered synchronously (no yield between the
        existence check and the registration) so concurrent mounts of the
        same container always agree on one root.
        """
        root_oid = self.container.properties.get("dfs_root_oid")
        if root_oid is None:
            root = self.container.new_kv(self.dir_class)
            self.container.properties["dfs_root_oid"] = root.oid
            root_oid = root.oid
        self.root = yield from self.client.open_kv(self.container, root_oid)
        return self

    def _require_mounted(self) -> DaosKV:
        if self.root is None:
            raise InvalidArgumentError("DFS not mounted; call mount() first")
        return self.root

    # -- path plumbing -------------------------------------------------------------
    @staticmethod
    def _split(path: str) -> List[str]:
        if not path.startswith("/"):
            raise InvalidArgumentError(f"DFS paths are absolute: {path!r}")
        return [c for c in path.split("/") if c]

    def _lookup_dir_kv(self, entry: DirEntry) -> DaosKV:
        obj = self.container.lookup(entry.oid)
        if not isinstance(obj, DaosKV):
            raise NotFoundError(f"object {entry.oid} is not a directory")
        return obj

    def _walk(self, components: List[str], depth: int = 0) -> Generator:
        """Resolve all components; returns the final directory KV.

        One timed KV get per component (the real DFS lookup cost).
        """
        current = self._require_mounted()
        for i, comp in enumerate(components):
            blob = yield from self.client.kv_get(current, comp)
            entry = DirEntry.unpack(blob)
            if entry.is_symlink:
                if depth >= _MAX_SYMLINK_DEPTH:
                    raise InvalidArgumentError("too many levels of symbolic links")
                target = self._split(entry.symlink_target) + components[i + 1 :]
                return (yield from self._walk(target, depth + 1))
            if not entry.is_dir:
                raise NotFoundError(f"{comp!r} is not a directory")
            current = self._lookup_dir_kv(entry)
        return current

    def _resolve_parent(self, path: str) -> Generator:
        comps = self._split(path)
        if not comps:
            raise InvalidArgumentError("path refers to the root directory")
        parent = yield from self._walk(comps[:-1])
        return parent, comps[-1]

    def _get_entry(self, path: str, follow: bool = True, depth: int = 0) -> Generator:
        parent, name = yield from self._resolve_parent(path)
        blob = yield from self.client.kv_get(parent, name)
        entry = DirEntry.unpack(blob)
        if entry.is_symlink and follow:
            if depth >= _MAX_SYMLINK_DEPTH:
                raise InvalidArgumentError("too many levels of symbolic links")
            return (yield from self._get_entry(entry.symlink_target, True, depth + 1))
        return parent, name, entry

    # -- directories ------------------------------------------------------------------
    def mkdir(self, path: str) -> Generator:
        """Create a directory (parents must exist)."""
        parent, name = yield from self._resolve_parent(path)
        if parent.contains(name):
            raise ExistsError(f"{path!r} already exists")
        kv = yield from self.client.create_kv(self.container, oc=self.dir_class)
        entry = DirEntry(kind=KIND_DIR, oid=kv.oid, mode=0o755)
        yield from self.client.kv_put(parent, name, entry.pack())
        return entry

    def readdir(self, path: str) -> Generator:
        """List entry names (timed as one md op per directory shard)."""
        comps = self._split(path)
        d = yield from self._walk(comps)
        engines = {t.engine: 1.0 for g in d.groups for t in g if t.alive}
        yield self.client._serial()
        yield from self.client._md_flow(engines, name="readdir")
        return sorted(d.keys())

    # -- files -------------------------------------------------------------------------
    def create(self, path: str, mode: int = 0o644) -> Generator:
        """Create and open a new regular file."""
        parent, name = yield from self._resolve_parent(path)
        if parent.contains(name):
            raise ExistsError(f"{path!r} already exists")
        arr = yield from self.client.create_array(
            self.container, oc=self.file_class, chunk_size=self.chunk_size
        )
        entry = DirEntry(
            kind=KIND_FILE, oid=arr.oid, mode=mode, chunk_size=self.chunk_size
        )
        yield from self.client.kv_put(parent, name, entry.pack())
        return DfsFile(self, path, arr, mode)

    def open(self, path: str) -> Generator:
        """Open an existing regular file (follows symlinks)."""
        _, _, entry = yield from self._get_entry(path)
        if not entry.is_file:
            raise InvalidArgumentError(f"{path!r} is not a regular file")
        arr = self.container.lookup(entry.oid)
        yield from self.client._object_md(
            self.container, self.client.params.object_open_md_ops, "dfs-open"
        )
        return DfsFile(self, path, arr, entry.mode)

    def write(self, handle: DfsFile, offset: int, data: Optional[bytes] = None, nbytes: Optional[int] = None) -> Generator:
        if not handle.open:
            raise InvalidArgumentError(f"{handle.path!r} is closed")
        if data is None and nbytes is not None and self.container.materialize:
            data = zeros(nbytes)  # size-only writes store zeros, as POSIX would
        yield from self.client.array_write(handle.array, offset, data=data, nbytes=nbytes)

    def read(self, handle: DfsFile, offset: int, nbytes: int) -> Generator:
        if not handle.open:
            raise InvalidArgumentError(f"{handle.path!r} is closed")
        data = yield from self.client.array_read(handle.array, offset, nbytes)
        return data

    def release(self, handle: DfsFile) -> Generator:
        """Close a handle (a client-local operation; no server round trip)."""
        handle.open = False
        return
        yield  # pragma: no cover - keeps this a generator

    def stat(self, path: str) -> Generator:
        """Return (kind, size, mode); one lookup plus a size query for files."""
        _, _, entry = yield from self._get_entry(path)
        size = 0
        if entry.is_file:
            arr = self.container.lookup(entry.oid)
            size = yield from self.client.array_size(arr)
        return entry.kind, size, entry.mode

    def unlink(self, path: str) -> Generator:
        """Remove a file or symlink (directories need rmdir)."""
        parent, name, entry = yield from self._get_entry(path, follow=False)
        if entry.is_dir:
            raise InvalidArgumentError(f"{path!r} is a directory; use rmdir")
        yield from self.client.kv_remove(parent, name)
        if entry.is_file:
            self.container.remove(entry.oid)

    def rmdir(self, path: str) -> Generator:
        parent, name, entry = yield from self._get_entry(path, follow=False)
        if not entry.is_dir:
            raise InvalidArgumentError(f"{path!r} is not a directory")
        kv = self._lookup_dir_kv(entry)
        if len(kv) > 0:
            raise InvalidArgumentError(f"{path!r} is not empty")
        yield from self.client.kv_remove(parent, name)
        self.container.remove(entry.oid)

    def rename(self, old_path: str, new_path: str) -> Generator:
        """Move an entry (file, dir, or symlink) to a new path: one KV
        get + put + remove, like the real dfs_move."""
        old_parent, old_name, entry = yield from self._get_entry(old_path, follow=False)
        new_parent, new_name = yield from self._resolve_parent(new_path)
        if new_parent.contains(new_name):
            raise ExistsError(f"{new_path!r} already exists")
        yield from self.client.kv_put(new_parent, new_name, entry.pack())
        yield from self.client.kv_remove(old_parent, old_name)

    def symlink(self, path: str, target: str) -> Generator:
        """Create a symbolic link at ``path`` pointing to ``target``."""
        parent, name = yield from self._resolve_parent(path)
        if parent.contains(name):
            raise ExistsError(f"{path!r} already exists")
        entry = DirEntry(
            kind=KIND_SYMLINK,
            oid=self.container.alloc_oid(),
            mode=0o777,
            symlink_target=target,
        )
        yield from self.client.kv_put(parent, name, entry.pack())

    def readlink(self, path: str) -> Generator:
        parent, name, entry = yield from self._get_entry(path, follow=False)
        if not entry.is_symlink:
            raise InvalidArgumentError(f"{path!r} is not a symlink")
        return entry.symlink_target

    def exists(self, path: str) -> Generator:
        try:
            yield from self._get_entry(path)
            return True
        except NotFoundError:
            return False
