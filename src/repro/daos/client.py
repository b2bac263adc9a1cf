"""libdaos client: the timed API over the functional store.

Every method is a simulation coroutine (``yield from client.op(...)``):

1. a serial latency charge (RPC round trip + client CPU, with an
   optional per-client lognormal jitter factor so the paper-style
   repetitions differ);
2. the functional operation on the store (which may raise, after the
   RTT has been paid, as a real failed RPC would);
3. a flow through the network/device/metadata links sized from the
   per-target byte charges the functional layer reports (data-protection
   amplification is therefore priced exactly, not by a factor table).

Workload batching: benchmark backends that move millions of operations
aggregate per-batch link loads with :meth:`DaosArray.write`-computed or
:meth:`bulk_loads`-style profiles and push them through
:meth:`DaosClient.bulk_transfer`, which is the same flow construction
without the per-op serial charge (the caller accounts it in one lump,
see ``repro.workloads``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.daos.array import DaosArray
from repro.daos.container import Container
from repro.daos.kv import DaosKV
from repro.daos.objclass import ObjectClass
from repro.daos.pool import Engine, Pool, Target
from repro.errors import InvalidArgumentError
from repro.faults.retry import RetryPolicy
from repro.hardware.client import StoreClient
from repro.hardware.cluster import ClientNode, Cluster
from repro.obs.ledger import NULL_CONTEXT
from repro.sim.flownet import Link
from repro.units import Bytes, MiB, left_sum

__all__ = ["DaosClient", "cohort_weight"]

#: up to this cohort size shared-link weights use the exact N-fold
#: sequential sum (bit-identical to N separate flows' per-link weight
#: accumulation); beyond it a single multiply, whose rounding differs
#: by at most ~1 ulp — irrelevant at 10^5+ members, where no per-client
#: reference run exists to compare against anyway
_EXACT_COHORT_SUM = 4096


def cohort_weight(w: float, n: int) -> float:
    """Aggregate link weight of ``n`` cohort members each weighing ``w``.

    The flow network accumulates per-link weights as a sequential sum
    over member edges, so the exactness contract (cohort mode ==
    per-client mode, bit for bit) requires reproducing that fold —
    ``((w + w) + w) ...`` — rather than computing ``n * w``, which
    rounds differently for most ``n``.  ``np.cumsum`` is that fold: it
    accumulates strictly left to right.  See docs/PERFORMANCE.md.
    """
    if n <= _EXACT_COHORT_SUM:
        return _exact_fold(w, n)
    return n * w


@lru_cache(maxsize=1024)
def _exact_fold(w: float, n: int) -> float:
    """The left-to-right fold of ``n`` copies of ``w``; pure, so cached
    per ``(w, n)`` — a run asks for only a handful of distinct pairs."""
    return float(np.cumsum(np.full(n, w))[-1])


class DaosClient(StoreClient):
    """A libdaos client bound to one client node."""

    layer = "daos"
    bytes_metrics = ("daos.bytes.written", "daos.bytes.read")
    latency_metrics = dict.fromkeys(
        ("arr-write", "arr-read", "kv-put", "kv-get"),
        "completed-op latency, retries/backoff included",
    )
    failover_help = "reads served by a non-primary replica or EC reconstruction"

    def __init__(
        self,
        cluster: Cluster,
        pool: Pool,
        node: ClientNode,
        name: Optional[str] = None,
        jitter_sigma: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
        cohort: int = 1,
    ):
        if cohort < 1:
            raise InvalidArgumentError(f"cohort must be >= 1, got {cohort}")
        if cohort > 1 and name is None:
            name = f"daos@{node.name}x{cohort}"
        super().__init__(
            cluster, node, name or f"daos@{node.name}", pool.params,
            jitter_sigma, retry_policy,
        )
        self.pool = pool
        #: this client stands for ``cohort`` identical clients on
        #: ``cohort`` identical nodes: every flow it opens carries
        #: cohort-scaled weights on shared (server-side) links while
        #: node-local links keep their per-member weight (each member
        #: node has its own NIC).  The cohort tag also decorrelates the
        #: RNG streams from a plain per-node client's.
        self.cohort = cohort
        #: links private to each cohort member's node — their weights
        #: are *not* scaled by ``cohort`` (see :meth:`mark_local`)
        self._local_links = {node.nic_tx, node.nic_rx}
        if self._obs is not None:
            reg = self._obs.registry
            self._m_rpc = reg.counter(
                "daos.rpc.count", unit="rpcs",
                description="serial client RPC round trips",
            )
            self._m_md_ops = reg.counter(
                "daos.md.ops", unit="ops",
                description="engine metadata + pool-service operations",
            )

    def mark_local(self, link: Link) -> None:
        """Declare ``link`` per-member-node private (a FUSE daemon pool,
        an extra NIC channel...): cohort mode keeps its per-member weight
        instead of scaling it by the cohort size, because each of the N
        represented nodes owns its own copy of the resource."""
        self._local_links.add(link)

    def _usages(self, units: float, loads: Dict[Link, float]) -> List[Tuple[Link, float]]:
        """Per-unit link weights of a flow of ``units`` with ``loads``.

        ``units`` is *per cohort member*; with ``cohort`` N > 1 the
        weights of shared links are scaled to the N-member aggregate
        (see :func:`cohort_weight`), so the flow's per-member rate is
        exactly what each of N symmetric flows would get, while
        node-local links keep their per-member weight.
        """
        n = self.cohort
        if n == 1:
            return [(link, load / units) for link, load in loads.items() if load > 0]
        usages = []
        for link, load in loads.items():
            if load <= 0:
                continue
            w = load / units
            if link not in self._local_links:
                w = cohort_weight(w, n)
            usages.append((link, w))
        return usages

    def bulk_transfer(
        self,
        kind: str,
        charges: Dict[Target, float],
        md_ops_by_engine: Optional[Dict[Engine, float]] = None,
        rsvc_ops: float = 0.0,
        touch_ssd: bool = True,
        extra_loads: Optional[Dict[Link, float]] = None,
        demand_cap: float = float("inf"),
        name: str = "bulk",
        op_ctx=NULL_CONTEXT,
    ) -> Generator:
        """One aggregated flow for a batch of operations (no serial charge).

        The data rides docs/MODEL.md §3's loads (:meth:`_data_loads`).
        Metadata work rides the same flow as extra link loads, so a batch
        that is metadata-bound is throttled by the metadata links exactly
        as its data would be by NICs.  ``extra_loads`` lets callers couple
        arbitrary links (e.g. a DFUSE daemon's request pool) to the flow.
        """
        loads = self._data_loads(kind, charges, touch_ssd=touch_ssd)
        total_md = 0.0
        if md_ops_by_engine:
            for engine, ops in md_ops_by_engine.items():
                if ops > 0:
                    loads[engine.md_link] = loads.get(engine.md_link, 0.0) + ops
                    total_md += ops
        if rsvc_ops > 0:
            loads[self.pool.rsvc_link] = loads.get(self.pool.rsvc_link, 0.0) + rsvc_ops
            total_md += rsvc_ops
        if extra_loads:
            for link, amount in extra_loads.items():
                if amount > 0:
                    loads[link] = loads.get(link, 0.0) + amount
                    total_md += amount
        units = left_sum(charges.values())
        nbytes = units
        if units <= 0:
            units = max(total_md, 1.0)
        usages = self._usages(units, loads)
        flow_name = f"{self.name}.{name}"
        if self._obs is None:
            yield from self._flow(units, usages, flow_name, demand_cap, op_ctx)
            return
        if total_md > 0:
            self._m_md_ops.inc(total_md)
        yield from self._observed(
            kind, nbytes, name, {"bytes": nbytes, "md_ops": total_md},
            self._flow, units, usages, flow_name, demand_cap, op_ctx,
        )

    def _md_flow(self, ops_by_engine: Dict[Engine, float], rsvc_ops: float = 0.0, name: str = "md") -> Generator:
        yield from self.bulk_transfer("write", {}, ops_by_engine, rsvc_ops, name=name)

    # ------------------------------------------------------------- pool level
    def connect(self) -> Generator:
        """Connect to the pool (one pool-service round trip)."""
        yield self._serial()
        yield from self._md_flow({}, rsvc_ops=1.0, name="connect")

    def create_container(self, label: str, **properties) -> Generator:
        """Create and open a container; returns the :class:`Container`.

        The functional registration happens before the first yield so a
        concurrent create of the same label fails fast with ExistsError
        rather than racing the cooperative scheduler.
        """
        cont = self.pool.create_container(label, **properties)
        yield self._serial()
        yield from self._md_flow(
            {}, rsvc_ops=self.params.container_create_rsvc_ops, name="cont-create"
        )
        return cont

    def open_container(self, label: str) -> Generator:
        yield self._serial()
        cont = self.pool.get_container(label)
        yield from self._md_flow(
            {}, rsvc_ops=self.params.container_open_rsvc_ops, name="cont-open"
        )
        return cont

    def destroy_container(self, label: str) -> Generator:
        """Destroy a container and everything in it (space is reclaimed
        asynchronously server-side; the client pays the RSVC commit)."""
        yield self._serial()
        self.pool.destroy_container(label)
        yield from self._md_flow(
            {}, rsvc_ops=self.params.container_create_rsvc_ops, name="cont-destroy"
        )

    # ---------------------------------------------------------------- objects
    def _object_md(self, cont: Container, ops: float, name: str) -> Generator:
        yield from self._md_flow({cont.home_engine: ops}, name=name)

    def create_array(
        self,
        cont: Container,
        oc: "str | ObjectClass | None" = None,
        chunk_size: Bytes = MiB,
    ) -> Generator:
        """Create a new Array object; returns the :class:`DaosArray`."""
        arr = cont.new_array(oc, chunk_size=chunk_size)
        yield self._serial()
        yield from self._object_md(cont, self.params.object_create_md_ops, "arr-create")
        return arr

    def open_array(self, cont: Container, oid) -> Generator:
        yield self._serial()
        arr = cont.lookup(oid)
        if not isinstance(arr, DaosArray):
            raise InvalidArgumentError(f"object {oid} is not an Array")
        yield from self._object_md(cont, self.params.object_open_md_ops, "arr-open")
        return arr

    def create_kv(self, cont: Container, oc: "str | ObjectClass | None" = None) -> Generator:
        """Create a new Key-Value object; returns the :class:`DaosKV`."""
        kv = cont.new_kv(oc)
        yield self._serial()
        yield from self._object_md(cont, self.params.object_create_md_ops, "kv-create")
        return kv

    def open_kv(self, cont: Container, oid) -> Generator:
        yield self._serial()
        kv = cont.lookup(oid)
        if not isinstance(kv, DaosKV):
            raise InvalidArgumentError(f"object {oid} is not a KV")
        yield from self._object_md(cont, self.params.object_open_md_ops, "kv-open")
        return kv

    # -------------------------------------------------------------- array I/O
    def _request_ops(self, charges: Dict[Target, int]) -> Dict[Engine, float]:
        """Each target RPC (an array extent or a KV replica) consumes one
        request slot on its engine; this is what bounds small-I/O IOPS
        server-side (paper Fig. 2)."""
        ops: Dict[Engine, float] = {}
        for target in charges:
            ops[target.engine] = ops.get(target.engine, 0.0) + 1.0
        return ops

    def array_write(
        self,
        arr: DaosArray,
        offset: int,
        data: Optional[bytes] = None,
        nbytes: Optional[int] = None,
    ) -> Generator:
        """Timed Array write (see :meth:`DaosArray.write` for semantics).

        Engines buffer and flush asynchronously, so the op is bounded by
        NICs and the node-aggregate SSD channel, never by the single
        device absorbing it (see :meth:`_data_loads`).

        Runs under the client's retry policy: a write rejected by a down
        group retries against the post-rebuild pool map.
        """

        def op(opx) -> Generator:
            yield self._serial()
            opx.note("serial")
            charges = arr.write(offset, data=data, nbytes=nbytes)
            yield from self.bulk_transfer(
                "write", charges, self._request_ops(charges), name="arr-write",
                op_ctx=opx,
            )

        return (yield from self._with_retry(op, "arr-write"))

    def array_read(self, arr: DaosArray, offset: Bytes, nbytes: Bytes) -> Generator:
        """Timed Array read; returns the bytes.

        Reads route around dead targets inside the functional store
        (replica failover / EC reconstruction, counted as
        ``daos.ops.failed_over``); the retry policy covers timeouts and
        transient unavailability."""

        def op(opx) -> Generator:
            yield self._serial()
            opx.note("serial")
            before = arr.failovers
            data, charges = arr.read(offset, nbytes)
            if arr.failovers > before:
                self._count_failover()
                # the transfer ahead moves surviving-replica / parity
                # data: classify it as reconstruction, not plain xfer
                opx.mark_degraded()
            yield from self.bulk_transfer(
                "read", charges, self._request_ops(charges), name="arr-read",
                op_ctx=opx,
            )
            return data

        return (yield from self._with_retry(op, "arr-read"))

    def array_size(self, arr: DaosArray) -> Generator:
        """Timed size query (the per-read check Field I/O performs and
        fdb-hammer avoids, paper Section III-B)."""
        yield self._serial()
        engine = arr.groups[0][0].engine
        yield from self._md_flow({engine: 1.0}, name="arr-size")
        return arr.size()

    def array_truncate(self, arr: DaosArray, new_size: Bytes) -> Generator:
        yield self._serial()
        arr.truncate(new_size)
        engine = arr.groups[0][0].engine
        yield from self._md_flow({engine: 1.0}, name="arr-truncate")

    # ----------------------------------------------------------------- KV I/O
    def kv_put(self, kv: DaosKV, key: str, value: bytes) -> Generator:
        """Timed KV put; replicas are charged one md op + value bytes each.
        KV data lives in engine DRAM (the paper's deployments store
        metadata in DRAM), so no SSD channel is charged."""

        def op(opx) -> Generator:
            yield self._serial()
            opx.note("serial")
            charges = kv.put(key, value)
            yield from self.bulk_transfer(
                "write", charges, self._request_ops(charges), touch_ssd=False,
                name="kv-put", op_ctx=opx,
            )

        return (yield from self._with_retry(op, "kv-put"))

    def kv_get(self, kv: DaosKV, key: str) -> Generator:
        """Timed KV get; returns the value bytes."""

        def op(opx) -> Generator:
            yield self._serial()
            opx.note("serial")
            value, target = kv.get(key)
            charges = {target: len(value)}
            yield from self.bulk_transfer(
                "read", charges, {target.engine: 1.0}, touch_ssd=False,
                name="kv-get", op_ctx=opx,
            )
            return value

        return (yield from self._with_retry(op, "kv-get"))

    def kv_remove(self, kv: DaosKV, key: str) -> Generator:
        """Timed KV remove: one md op on each engine of the write plan."""
        yield self._serial()
        targets = kv.remove(key)
        yield from self._md_flow({t.engine: 1.0 for t in targets}, name="kv-remove")
