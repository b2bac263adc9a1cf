"""The HDF5 DAOS VOL connector model.

Layout per the paper (Section II-A): one DAOS *container per writer
process*; each dataset write lands in a *separate DAOS object* inside
that container.

The scalability characteristics follow [8] ("DAOS as HPC Storage: a View
From Numerical Weather Prediction"): maintaining many open containers
keeps the fixed-size pool service in the loop — container-handle and
epoch bookkeeping accompany every object create/open — so aggregate VOL
op throughput is capped by the pool service regardless of how many
engines the pool has.  That reproduces the paper's observation that the
adaptor performs well against a 4-node DAOS system (Fig. 4) but stops
scaling beyond that (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.daos.client import DaosClient
from repro.errors import NotFoundError
from repro.units import MiB

__all__ = ["Hdf5VolParams", "Hdf5DaosVol", "Hdf5VolFile"]


@dataclass(frozen=True)
class Hdf5VolParams:
    """``rsvc_ops_per_object``: pool-service work accompanying each
    object create/open while the process's private container handle is
    live (epoch/handle maintenance).  This is the constant that turns
    container-per-process into a scalability ceiling."""

    rsvc_ops_per_object: float = 1.0
    format_overhead: float = 120e-6
    object_class: str = "SX"
    chunk_size: int = MiB


class Hdf5VolFile:
    """One "HDF5 file" through the VOL: a private container whose
    datasets are one DAOS Array per write operation."""

    def __init__(self, vol: "Hdf5DaosVol", name: str, container):
        self.vol = vol
        self.name = name
        self.container = container
        #: op index -> array object (the object-per-write layout)
        self.objects: Dict[int, object] = {}


class Hdf5DaosVol:
    """The VOL connector bound to one process's DaosClient."""

    def __init__(self, client: DaosClient, params: Optional[Hdf5VolParams] = None):
        self.client = client
        self.params = params or Hdf5VolParams()
        self.sim = client.sim

    def _rsvc_tax(self) -> Generator:
        """The per-object pool-service involvement (see module docstring)."""
        if self.params.rsvc_ops_per_object > 0:
            yield from self.client._md_flow(
                {}, rsvc_ops=self.params.rsvc_ops_per_object, name="vol-rsvc"
            )

    def create_file(self, name: str) -> Generator:
        """H5Fcreate: one container per calling writer process."""
        cont = yield from self.client.create_container(name, materialize=False)
        return Hdf5VolFile(self, name, cont)

    def write_op(self, file: Hdf5VolFile, op_index: int, op_size: int, data=None) -> Generator:
        """One dataset write: create a fresh object, then write it."""
        yield self.sim.timeout(self.params.format_overhead)
        arr = yield from self.client.create_array(
            file.container,
            oc=self.params.object_class,
            chunk_size=min(self.params.chunk_size, max(op_size, 1)),
        )
        yield from self._rsvc_tax()
        file.objects[op_index] = arr
        yield from self.client.array_write(arr, 0, data=data, nbytes=op_size)

    def read_op(self, file: Hdf5VolFile, op_index: int, op_size: int) -> Generator:
        """One dataset read: open the op's object, then read it."""
        yield self.sim.timeout(self.params.format_overhead)
        arr = file.objects.get(op_index)
        if arr is None:
            raise NotFoundError(f"dataset op {op_index} not found in {file.name!r}")
        yield from self.client.open_array(file.container, arr.oid)
        yield from self._rsvc_tax()
        data = yield from self.client.array_read(arr, 0, op_size)
        return data

    def close_file(self, file: Hdf5VolFile) -> Generator:
        """H5Fclose: container handle close (one pool-service op)."""
        yield from self.client._md_flow({}, rsvc_ops=1.0, name="vol-close")
