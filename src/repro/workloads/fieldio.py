"""Field I/O: ECMWF's standalone weather-field benchmark.

Paper Section II-A: "It runs as a set of independent processes, each
writing and indexing a sequence of weather variables, or fields, into
DAOS with a combination of libdaos Array and Key-Value operations ...
Field I/O processes write each field in a separate Array, and store
indexing information in a set of Key-Values some of them exclusive to
the process, and some of them shared amongst all processes."

Configuration per the paper's Section III-B: object class **S1 for the
Arrays** and **SX for the Key-Values**; an average of **10 KV operations
per field**; and — the detail behind its read scaling being "inferior to
that shown by fdb-hammer" — an **object size check prior to every read
operation**, which fdb-hammer avoids.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.daos.pool import Target
from repro.errors import ConfigError, NotFoundError
from repro.sim.stats import PhaseRecorder
from repro.workloads.common import DaosEnv, PhasedRunner, WorkloadConfig
from repro.workloads.ior import engine_request_ops, merge_kv_loads, uniform_target_charges
from repro.workloads.mpi import Rank

__all__ = ["run_fieldio", "FieldIoRunner", "SHARED_KV_OPS", "EXCLUSIVE_KV_OPS"]

#: KV ops per field: 3 against KVs shared by all processes, 7 against the
#: process-exclusive index — 10 total, matching the paper.
SHARED_KV_OPS = 3
EXCLUSIVE_KV_OPS = 7
#: index entry payload (a locator record)
KV_VALUE_SIZE = 192


class FieldIoRunner(PhasedRunner):
    """One Field I/O execution (see :func:`run_fieldio`)."""

    container_label = "fieldio"
    array_class = "S1"

    def __init__(self, env: DaosEnv, cfg: WorkloadConfig, recorder: Any = None) -> None:
        super().__init__(env, cfg, recorder)
        self._shared_kvs: Optional[List[Any]] = None

    def _container(self) -> Any:
        pool = self.env.pool
        try:
            return pool.get_container(self.container_label)
        except NotFoundError:
            return pool.create_container(self.container_label, materialize=False)

    def _ensure_shared_kvs(self, cont: Any) -> List[Any]:
        # synchronous functional creation: concurrent ranks must agree on
        # the shared KVs, so no yields between check and registration
        if self._shared_kvs is None:
            self._shared_kvs = [
                cont.new_kv(self.cfg.kv_object_class) for _ in range(SHARED_KV_OPS)
            ]
        return self._shared_kvs

    def setup(self, rank: Rank) -> Generator[Any, Any, Any]:
        client = self.env.client(rank.node)
        cont = self._container()
        shared = self._ensure_shared_kvs(cont)
        for kv in shared:
            yield from client.open_kv(cont, kv.oid)
        index_kv = yield from client.create_kv(cont, oc=self.cfg.kv_object_class)
        return {
            "client": client,
            "cont": cont,
            "shared": shared,
            "index": index_kv,
            "arrays": {},
            "rank": rank.rank,
        }

    # -- exact mode ---------------------------------------------------------------
    def write_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        client = state["client"]
        arr = yield from client.create_array(
            state["cont"], oc=self.array_class, chunk_size=self.cfg.op_size
        )
        state["arrays"][i] = arr
        yield from client.array_write(arr, 0, nbytes=self.cfg.op_size)
        tag = f"f{state['rank']}.{i}"
        for s, kv in enumerate(state["shared"]):
            yield from client.kv_put(kv, f"{tag}.s{s}", b"\x01" * KV_VALUE_SIZE)
        for e in range(EXCLUSIVE_KV_OPS):
            yield from client.kv_put(state["index"], f"{tag}.e{e}", b"\x02" * KV_VALUE_SIZE)

    def read_op(self, state: Any, i: int) -> Generator[Any, Any, None]:
        client = state["client"]
        arr = state["arrays"][i]
        tag = f"f{state['rank']}.{i}"
        for s, kv in enumerate(state["shared"]):
            yield from client.kv_get(kv, f"{tag}.s{s}")
        for e in range(EXCLUSIVE_KV_OPS):
            yield from client.kv_get(state["index"], f"{tag}.e{e}")
        # the size check fdb-hammer optimises away (paper Sec. III-B)
        size = yield from client.array_size(arr)
        yield from client.array_read(arr, 0, size)

    # -- aggregate mode --------------------------------------------------------------
    def serial_per_op(self, node: Any, phase: str) -> float:
        client = self.env.client(node)
        p = client.params
        rtt = p.rpc_rtt + p.client_io_overhead
        kv_ops = SHARED_KV_OPS + EXCLUSIVE_KV_OPS
        per_op = (1 + kv_ops) * rtt  # array I/O + serial KV ops
        if phase == "read":
            per_op += rtt  # the per-read size query round trip
        if phase == "write":
            per_op += rtt  # the per-field array create
        return per_op * client.jitter

    def batch_flow(self, node: Any, states: List[Any], phase: str, ops: int) -> Generator[Any, Any, None]:
        kind = "write" if phase == "write" else "read"
        client = self.env.client(node)
        cfg = self.cfg
        n_ranks = len(states)
        data_bytes = ops * n_ranks * cfg.op_size
        # S1 field arrays hash uniformly over targets
        charges: Dict[Target, float] = uniform_target_charges(self.env.pool, data_bytes)
        req = engine_request_ops(charges, ops * n_ranks)
        loads: List[Tuple[Any, float]] = []
        for state in states:
            loads += [(kv, ops) for kv in state["shared"]]
            loads.append((state["index"], ops * EXCLUSIVE_KV_OPS))
        kv_kind = "put" if phase == "write" else "get"
        charges, req = merge_kv_loads(self.env.pool, charges, req, loads, kv_kind, KV_VALUE_SIZE)
        if phase == "write":
            # per-field array create on the container's home engine
            home = states[0]["cont"].home_engine
            req[home] = req.get(home, 0.0) + ops * n_ranks
        else:
            # per-field size query: one request at the array's shard
            size_req = engine_request_ops(
                uniform_target_charges(self.env.pool, 1.0), ops * n_ranks
            )
            for eng, n in size_req.items():
                req[eng] = req.get(eng, 0.0) + n
        yield from client.bulk_transfer(kind, charges, req, name=f"fieldio-{phase}")


def run_fieldio(
    env: DaosEnv, cfg: WorkloadConfig, recorder: Optional[PhaseRecorder] = None
) -> PhaseRecorder:
    """Execute one Field I/O run against a DAOS deployment."""
    if not isinstance(env, DaosEnv):
        raise ConfigError("Field I/O runs against DAOS only")
    return FieldIoRunner(env, cfg, recorder).run()
