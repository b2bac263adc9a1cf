"""The timed store client: what the DAOS, Lustre and Ceph clients share.

The paper compares the three stores on identical hardware, so the gaps
between them must come from the modelled interfaces (placement, the
metadata service, striping), not from three copies of one client timing
rule.  :class:`StoreClient` is that rule, once:

- the serial charge of one RPC round trip plus client CPU, scaled by a
  per-client lognormal jitter factor and a per-op lognormal draw
  (:meth:`StoreClient._serial`);
- the seeded RNG streams ``<name>.jitter``, ``<name>.op-jitter`` and
  ``<name>.retry`` (the last created on the first backoff draw);
- the retry state and :func:`~repro.faults.retry.run_with_retry`;
- the flow runner: start the flow, wait, cancel it when an op timeout
  interrupts the wait, then credit the flow to the op's ledger context
  (:meth:`StoreClient._flow`);
- one request on a single service link (Lustre's MDS, Ceph's monitor);
- the observed-span wrapper around a data flow;
- docs/MODEL.md §3's write/read link loads (:meth:`StoreClient._data_loads`).

Subclasses name their instruments through class attributes; the base
registers the ``<layer>.ops.retried``, byte and ``<layer>.lat.<op>``
instruments (and ``<layer>.ops.failed_over`` where a store fails over)
when the cluster carries an observability bundle.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import InvalidArgumentError
from repro.faults.retry import RetryPolicy, run_with_retry
from repro.hardware.cluster import ClientNode, Cluster, ServerNode
from repro.obs.ledger import NULL_CONTEXT, NULL_LEDGER
from repro.sim.core import Interrupt
from repro.sim.flownet import Link
from repro.units import left_sum

__all__ = ["StoreClient"]

_INF = float("inf")


class StoreClient:
    """One store client bound to one client node.

    ``params`` is the store's parameter dataclass: every store has
    ``rpc_rtt``, ``client_io_overhead`` and ``protocol_efficiency``, and
    :meth:`_data_loads` also reads ``readahead_depth``.
    """

    #: metric-name prefix and trace category ("daos", "lustre", "ceph")
    layer = ""
    #: names of the bytes-written and bytes-read counters
    bytes_metrics: Tuple[str, str] = ("", "")
    #: op -> description of its ``<layer>.lat.<op>`` latency histogram
    latency_metrics: Mapping[str, str] = {}
    #: description of the ``<layer>.ops.failed_over`` counter, or None
    #: for a store whose reads never fail over
    failover_help: Optional[str] = None

    #: counter of serial charges, when a subclass keeps one (DAOS's
    #: ``daos.rpc.count``)
    _m_rpc: Any = None

    def __init__(
        self,
        cluster: Cluster,
        node: ClientNode,
        name: str,
        params: Any,
        jitter_sigma: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.net = cluster.net
        self.node = node
        self.name = name
        self.params = params
        #: retry/timeout/backoff for data-path ops; the default policy
        #: injects no events on the happy path, so fault-free timing is
        #: unchanged
        self.retry = retry_policy or RetryPolicy()
        self._retry_rng: Optional[np.random.Generator] = None
        self.retries = 0
        self.failed_over = 0
        #: per-client multiplicative jitter on serial overheads
        self.jitter = cluster.rng.lognormal_factor(f"{name}.jitter", jitter_sigma)
        # Per-op latency noise: real RPCs vary op to op, which is what
        # desynchronises lockstepped sequential writers whose layouts
        # would otherwise collide on the same server forever.
        self._op_rng = cluster.rng.stream(f"{name}.op-jitter")
        self.op_jitter_sigma = 0.1
        # Observability (dormant unless the cluster carries one): cached
        # instrument references so the hot path is one None-check.  The
        # op ledger stays a null object unless one is active, so every
        # decomposition site is an unconditional no-op call.
        self._ledger = NULL_LEDGER
        self._obs = cluster.obs
        if self._obs is not None:
            if self._obs.ledger is not None:
                self._ledger = self._obs.ledger
            reg = self._obs.registry
            self._tid = self._obs.node_tid(node)
            self._m_retried = reg.counter(
                f"{self.layer}.ops.retried", unit="ops",
                description="operations re-attempted after UnavailableError/timeout",
            )
            if self.failover_help is not None:
                self._m_failed_over = reg.counter(
                    f"{self.layer}.ops.failed_over", unit="ops",
                    description=self.failover_help,
                )
            written, read = self.bytes_metrics
            self._m_bytes_w = reg.counter(written, unit="B")
            self._m_bytes_r = reg.counter(read, unit="B")
            self._m_lat = {
                op: reg.latency_histogram(
                    f"{self.layer}.lat.{op}", unit="s", description=description
                )
                for op, description in self.latency_metrics.items()
            }

    # ------------------------------------------------------------------ timing
    def _serial(self, extra: float = 0.0) -> Any:
        """Waitable for one RPC round trip plus client CPU (plus ``extra``)."""
        dt = (self.params.rpc_rtt + self.params.client_io_overhead + extra) * self.jitter
        if self.op_jitter_sigma > 0:
            dt *= float(np.exp(self._op_rng.normal(0.0, self.op_jitter_sigma)))
        if self._m_rpc is not None:
            self._m_rpc.inc()
        return self.sim.timeout(dt)

    # ----------------------------------------------------------------- retries
    def _backoff_rng(self) -> np.random.Generator:
        if self._retry_rng is None:
            self._retry_rng = self.cluster.rng.stream(f"{self.name}.retry")
        return self._retry_rng

    def _with_retry(self, make_op: Callable[[Any], Generator], op: str) -> Generator:
        """Run ``make_op(op_ctx)`` under the client's retry policy (see
        :func:`~repro.faults.retry.run_with_retry`), with ``op``'s
        latency recorded in ``<layer>.lat.<op>``."""
        hist = self._m_lat.get(op) if self._obs is not None else None
        return run_with_retry(self, make_op, op, f"{self.layer}.lat.{op}", hist)

    def _count_failover(self) -> None:
        """One read served by a non-primary replica or a reconstruction."""
        self.failed_over += 1
        if self._obs is not None:
            self._m_failed_over.inc()

    # ------------------------------------------------------------------- flows
    def _flow(
        self,
        units: float,
        usages: List[Tuple[Link, float]],
        name: str,
        demand_cap: float = _INF,
        op_ctx: Any = NULL_CONTEXT,
    ) -> Generator:
        """Run one flow of ``units`` over ``usages`` (nothing if empty).

        An op timeout interrupts the wait: the flow is cancelled, which
        releases its link shares, and the interrupt propagates to the
        retry loop.  A finished flow is credited to ``op_ctx``.
        """
        if not usages:
            return
        flow = self.net.transfer(units, usages, demand_cap=demand_cap, name=name)
        try:
            yield flow.done
        except Interrupt:
            self.net.cancel(flow)
            raise
        op_ctx.note_transfer(flow)

    def _request(self, link: Link, ops: float, name: str) -> Generator:
        """A serial charge, then ``ops`` requests on one service link."""
        yield self._serial()
        flow = self.net.transfer(ops, [(link, 1.0)], name=name)
        yield flow.done

    def _observed(
        self,
        kind: str,
        nbytes: float,
        op: str,
        args: Dict[str, float],
        make_flow: Callable[..., Generator],
        *flow_args: Any,
    ) -> Generator:
        """Run ``make_flow(*flow_args)`` inside a ``<layer>.<op>`` span on
        this client's trace row, counting ``nbytes`` as written or read.

        Called only on observed runs; an unobserved caller runs the flow
        directly, so its generator stack is one level shallower.
        """
        assert self._obs is not None
        if nbytes > 0:
            (self._m_bytes_w if kind == "write" else self._m_bytes_r).inc(nbytes)
        with self._obs.tracer.span(
            f"{self.layer}.{op}", cat=self.layer, tid=self._tid, args=args
        ):
            yield from make_flow(*flow_args)

    def _data_loads(
        self, kind: str, charges: Mapping[Any, float], touch_ssd: bool = True
    ) -> Dict[Link, float]:
        """docs/MODEL.md §3: absolute link loads for moving ``charges``.

        ``charges`` maps each storage unit (a DAOS target, a Lustre OST:
        anything with a ``device`` and a server ``node``) to its wire
        bytes, amplification included.

        Write: client NIC TX -> server NIC RX -> node-aggregate SSD
        write.  Servers buffer incoming extents and flush them
        asynchronously, so the device that ultimately absorbs one op
        never serialises that op, but a node's total SSD write bandwidth
        still bounds sustained throughput.

        Read: client NIC RX, each serving device's read link divided by
        the read-ahead depth (a sequential stream spreads its device
        load over the next ``readahead_depth`` units; over a run every
        device still absorbs its full share), then server NIC TX and
        node-aggregate SSD read.

        ``touch_ssd=False`` (DAOS KV data in engine DRAM) charges the
        NICs only.  Links appear in that order, first use first; the
        order fixes the flow's float sums in the network.
        """
        if kind not in ("write", "read"):
            raise InvalidArgumentError(f"kind must be 'write' or 'read': {kind}")
        eff = self.params.protocol_efficiency
        loads: Dict[Link, float] = {}

        def add(link: Link, amount: float) -> None:
            loads[link] = loads.get(link, 0.0) + amount

        total = left_sum(charges.values())
        if total <= 0:
            return loads
        write = kind == "write"
        add(self.node.nic_tx if write else self.node.nic_rx, total / eff)
        depth = self.params.readahead_depth
        per_node: Dict[ServerNode, float] = {}
        for unit, nbytes in charges.items():
            node = unit.node
            per_node[node] = per_node.get(node, 0.0) + nbytes
            if touch_ssd and not write:
                add(unit.device.read_link, nbytes / eff / depth)
        for node, nbytes in per_node.items():
            if write:
                add(node.nic_rx, nbytes / eff)
                if touch_ssd:
                    add(node.ssd_agg_w, nbytes / eff)
            else:
                add(node.nic_tx, nbytes / eff)
                if touch_ssd:
                    add(node.ssd_agg_r, nbytes / eff)
        return loads
