"""Weighted max-min fair flow network.

This module is the performance model at the core of the reproduction.
Every bulk data movement in the simulated cluster — a client writing a
DAOS Array shard, a Lustre stripe landing on an OST, a Ceph object
travelling to its primary OSD — is a *flow* that consumes capacity on a
set of *links* (client NIC, server NIC, SSD channel, metadata service).

Links and units
---------------
A link has a capacity in "units per second" where the unit is whatever
the link meters: bytes/s for NICs and SSDs, operations/s for metadata
services and FUSE thread pools.  A flow makes progress in its own unit
(usually bytes) and declares, per link, a *weight* = link-units consumed
per flow-unit of progress.  This lets one flow couple heterogeneous
resources: a 1 MiB-per-op workload that also issues 10 key-value
operations per op uses weight ``10/MiB`` on the metadata link.  Data
protection enters the same way — erasure coding 2+1 writes carry weight
1.5 on SSD and server-NIC links, replication-2 carries weight 2.0.

Allocation
----------
Rates are assigned by *weighted max-min fairness* via progressive
filling: all unfrozen flows grow at the same progress rate until a link
saturates (or a flow hits its demand cap); flows on saturated links
freeze; repeat.  This is the standard fluid approximation for congestion
controlled transports sharing a network.

State layout (docs/PERFORMANCE.md §1)
-------------------------------------
Per-flow state (remaining work, rate, demand cap, size) lives in Python
lists, one row per active flow in arrival order; a departure deletes its
row and the later rows move up.  The flow-link incidence is *persistent*
and takes one of two forms, chosen by the population's edge count (the
*band*; ``_SCALAR_MAX_EDGES``, 128):

* small band (at most 128 edges): a link-major incidence in Python —
  for every link that carries a flow, its member flows and their
  weights in row order, plus their weight fold ``0.0 + w1 + w2 ...``.
  An arrival appends to its links' member lists and adds its weight to
  their folds; a departure deletes itself in place and its links are
  re-folded from the remaining members (never by subtracting the
  departed weight).  The scalar solver reads this incidence directly.
* wide band (more than 128 edges): NumPy CSR arrays — per-flow edge
  runs concatenated in row order (``_e_lidx``/``_e_wgt``), a per-link
  edge count (``_l_refs``) and the edge-to-row map (``_fidx``) — read by
  the vectorised solver (one ``bincount`` per filling round).

A population that crosses the bound converts its incidence from the
flows' own link and weight lists, which keeps row order and therefore
every sum.  Reallocation is *dirty-set gated*: each arrival, departure,
or capacity change marks its links dirty, and a recompute whose dirty
links carry no member flow is resolved in O(|dirty|) without touching a
single flow.  When a solve *is* needed it refills the full active set:
the progressive filling applies one global increment to every unfrozen
flow, so a flow's rate is a partial sum whose breakpoints include other
components' freeze events, and a per-component re-solve would round
differently (~1 ulp) — the byte-identical series contract forbids that.
Both solvers execute the same IEEE-754 operation sequence, so which one
runs never changes a single bit of any rate (guarded by
tests/test_flownet.py and tests/test_property_flownet.py).

Event integration
-----------------
The network is lazy: between events every active flow progresses linearly
at its current rate.  On any arrival or departure the network advances
all flows to "now", recomputes the allocation, and reschedules a single
next-completion event.  Completions within ``time_epsilon`` of each other
are batched into one event to avoid reallocation storms when symmetric
processes finish together.  Link busy integrals, which only observability
reads, are settled once per departing flow (``weight * (size -
remaining)`` on each of its links) instead of at every event; see
:meth:`FlowNetwork.busy_integrals`.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.core import EventHandle, Signal, Simulator, Waitable
from repro.units import left_sum

__all__ = ["Link", "Flow", "FlowNetwork"]

_INF = math.inf


class Link:
    """A shared capacity (bytes/s or ops/s) inside the flow network.

    Capacity is read-only here; change it through
    :meth:`FlowNetwork.set_capacity`, which settles progress and
    re-solves the allocation.
    """

    __slots__ = ("name", "index", "_net")

    def __init__(self, name: str, index: int, net: "FlowNetwork"):
        self.name = name
        self.index = index
        self._net = net

    @property
    def capacity(self) -> float:
        return self._net._l_cap[self.index]

    @property
    def busy_integral(self) -> float:
        """Integral of (consumed units) over time, for utilisation reports,
        as of the network's last sync (see :meth:`FlowNetwork.busy_integrals`)."""
        return float(self._net.busy_integrals()[self.index])

    def mean_utilization(self, elapsed: float) -> float:
        """Average fraction of capacity used over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_integral / (self.capacity * elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name!r} cap={self.capacity:.3g}>"


class Flow:
    """One in-flight transfer; yield ``flow.done`` to await completion.

    While active, ``remaining`` and ``rate`` live in the network's row
    lists (row ``_row``); on completion or cancellation the final values
    are written back to the object, the flow's progress is settled into
    its links' busy integrals, and the row is released.
    """

    __slots__ = (
        "name",
        "size",
        "links",
        "_ids",
        "_wl",
        "demand_cap",
        "done",
        "started_at",
        "finished_at",
        "binding",
        "bound_time",
        "_net",
        "_row",
        "_remaining_f",
        "_rate_f",
    )

    def __init__(
        self,
        name: str,
        size: float,
        links: list[Link],
        ids: list[int],
        weights: list[float],
        demand_cap: float,
        done: Signal,
        started_at: float,
    ):
        self.name = name
        self.size = float(size)
        self.links = links
        #: ``links``' indices (unique) and weights, in ``links`` order
        self._ids = ids
        self._wl = weights
        self.demand_cap = float(demand_cap)
        self.done = done
        self.started_at = started_at
        self.finished_at: Optional[float] = None
        #: the constraint currently limiting this flow's rate: a
        #: :class:`Link`, the string ``"cap"`` (demand cap), or None.
        #: Maintained only while the owning network has
        #: ``track_binding`` enabled.
        self.binding = None
        #: constraint name -> seconds the flow spent limited by it
        #: (allocated lazily when the network tracks binding)
        self.bound_time: Optional[dict] = None
        # detached state (row-backed while the network holds a row)
        self._net: Optional["FlowNetwork"] = None
        self._row = -1
        self._remaining_f = float(size)
        self._rate_f = 0.0

    @property
    def weights(self) -> np.ndarray:
        """Per-link weights, in ``links`` order."""
        return np.array(self._wl, dtype=float)

    @property
    def remaining(self) -> float:
        net = self._net
        if net is None:
            return self._remaining_f
        return net._f_rem[self._row]

    @remaining.setter
    def remaining(self, value: float) -> None:
        net = self._net
        if net is None:
            self._remaining_f = float(value)
        else:
            net._f_rem[self._row] = float(value)

    @property
    def rate(self) -> float:
        net = self._net
        if net is None:
            return self._rate_f
        return net._f_rate[self._row]

    @rate.setter
    def rate(self, value: float) -> None:
        net = self._net
        if net is None:
            self._rate_f = float(value)
        else:
            net._f_rate[self._row] = float(value)

    def _detach(self) -> None:
        """Capture row state into the object, settle the progress made
        into the links' busy integrals, and release the row."""
        net = self._net
        if net is not None:
            row = self._row
            rem = net._f_rem[row]
            self._remaining_f = rem
            self._rate_f = net._f_rate[row]
            done = self.size - rem
            busy = net._l_busy
            for i, w in zip(self._ids, self._wl):
                busy[i] += w * done
            self._net = None
            self._row = -1

    @property
    def progress_fraction(self) -> float:
        if self.size <= 0:
            return 1.0
        return 1.0 - self.remaining / self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Flow {self.name!r} {self.progress_fraction:.0%} rate={self.rate:.3g}>"


class FlowNetwork:
    """Container for links plus the active-flow allocation machinery."""

    #: the band bound: populations with at most this many edges keep the
    #: link-major Python incidence and run the scalar solver; above it
    #: the NumPy CSR incidence and the vectorised solver take over (same
    #: arithmetic, lower constant on each side; docs/PERFORMANCE.md §1)
    _SCALAR_MAX_EDGES = 128

    def __init__(self, sim: Simulator, time_epsilon: float = 1e-9):
        self.sim = sim
        self.time_epsilon = float(time_epsilon)
        self._links: dict[str, Link] = {}
        self._active: list[Flow] = []
        self._last_advance: float = 0.0
        self._completion_event: Optional[EventHandle] = None
        #: number of allocation recomputations (exposed for perf tests);
        #: counts calls, including ones the dirty-set gate resolves
        #: without touching a single flow (simprof's per-recompute
        #: flow/link/edge counters expose the savings)
        self.reallocations = 0
        #: observers called with each new :class:`Flow` once it is live
        #: (zero-size flows arrive already finished).  Any number of
        #: observers may attach concurrently; see ``repro.obs``.
        self.on_transfer: list = []
        #: when True, every flow records which constraint (link or demand
        #: cap) bounds its rate and for how long (``Flow.binding`` /
        #: ``Flow.bound_time``).  Pure bookkeeping over quantities the
        #: allocator already computes: enabling it never changes rates,
        #: event ordering, or modelled bandwidths.  Enabled by
        #: ``repro.obs`` for critical-path attribution.
        self.track_binding = False
        # link lists (index == Link.index); _l_busy holds the busy
        # integrals settled by departed flows; _cap_np caches _l_cap as
        # an array for the vectorised solver
        self._l_cap: list[float] = []
        self._l_busy: list[float] = []
        self._cap_np: Optional[np.ndarray] = None
        # per-flow rows, in ``_active`` order
        self._f_rem: list[float] = []
        self._f_rate: list[float] = []
        self._f_cap: list[float] = []
        self._f_size: list[float] = []
        #: total edges of the active flows; the band is ne > bound
        self._ne = 0
        self._wide = False
        # small band: link index -> (member flows, their weights), in
        # row order, and link index -> weight fold of the members
        self._inc: dict[int, tuple[list[Flow], list[float]]] = {}
        self._fold: dict[int, float] = {}
        # wide band: the CSR incidence (see _to_wide)
        self._e_lidx: Optional[np.ndarray] = None
        self._e_wgt: Optional[np.ndarray] = None
        self._l_refs: Optional[np.ndarray] = None
        self._fidx_cache: Optional[np.ndarray] = None
        #: link indices whose member set or capacity changed since the
        #: last solve; gates reallocation
        self._dirty_links: set[int] = set()
        #: newly arrived flows with no links (demand-cap only) — they
        #: touch no link, so they mark the network dirty directly
        self._dirty_flows: set[Flow] = set()

    # -- link management ---------------------------------------------------
    def add_link(self, name: str, capacity: float) -> Link:
        """Register a new shared capacity; names must be unique."""
        if name in self._links:
            raise SimulationError(f"duplicate link name {name!r}")
        if capacity <= 0:
            raise SimulationError(f"link {name!r} needs positive capacity, got {capacity}")
        index = len(self._links)
        self._l_cap.append(float(capacity))
        self._l_busy.append(0.0)
        self._cap_np = None
        if self._wide:
            self._l_refs = np.append(self._l_refs, 0)
        link = Link(name, index, self)
        self._links[name] = link
        return link

    def link(self, name: str) -> Link:
        try:
            return self._links[name]
        except KeyError:
            raise SimulationError(f"unknown link {name!r}") from None

    @property
    def links(self) -> list[Link]:
        return list(self._links.values())

    @property
    def active_flows(self) -> list[Flow]:
        return list(self._active)

    def busy_integrals(self) -> np.ndarray:
        """Every link's busy integral (consumed units x seconds), indexed
        by ``Link.index``, as of the last sync: what departed flows
        settled plus each active flow's ``weight * (size - remaining)``,
        summed per link in row order.  O(links + edges)."""
        acc = [0.0] * len(self._l_busy)
        for flow, size, rem in zip(self._active, self._f_size, self._f_rem):
            done = size - rem
            for i, w in zip(flow._ids, flow._wl):
                acc[i] += w * done
        return np.array([b + a for b, a in zip(self._l_busy, acc)], dtype=float)

    def set_capacity(self, name: str, capacity: float) -> None:
        """Change a link's capacity (failure injection / degraded mode);
        the one way to change it on a live network."""
        if capacity <= 0:
            raise SimulationError(f"capacity must stay positive, got {capacity}")
        self._sync()
        index = self.link(name).index
        self._l_cap[index] = float(capacity)
        self._cap_np = None
        self._dirty_links.add(index)
        self._reallocate()
        self._schedule_completion()

    # -- flow API ------------------------------------------------------------
    def transfer(
        self,
        size: float,
        usages: Sequence[tuple[Link, float]],
        demand_cap: float = _INF,
        name: str = "flow",
    ) -> Flow:
        """Start a flow of ``size`` progress-units over the given links.

        ``usages`` is a sequence of ``(link, weight)`` pairs; duplicate
        links are merged by summing weights.  ``demand_cap`` bounds the
        flow's progress rate regardless of link headroom (models a source
        that cannot saturate its share, e.g. a single serial stream).
        Returns the :class:`Flow`; await ``flow.done``.
        """
        if size < 0:
            raise SimulationError(f"flow size must be >= 0, got {size}")
        links = []
        weight_list = []
        index_list: list[int] = []
        seen: set[int] = set()
        merged: Optional[dict[int, float]] = None
        for link, weight in usages:
            if weight <= 0:
                if weight < 0:
                    raise SimulationError(f"flow weight must be >= 0, got {weight}")
                continue
            i = link.index
            if i in seen:
                merged = None  # duplicate: fall back to the merging path
                break
            seen.add(i)
            links.append(link)
            index_list.append(i)
            weight_list.append(float(weight))
        else:
            merged = {}
        if merged is None:
            # Slow path: duplicate links are merged by summing weights
            # (in first-appearance order, matching the fast path).
            merged = {}
            link_by_index: dict[int, Link] = {}
            for link, weight in usages:
                if weight < 0:
                    raise SimulationError(f"flow weight must be >= 0, got {weight}")
                if weight == 0:
                    continue
                merged[link.index] = merged.get(link.index, 0.0) + float(weight)
                link_by_index[link.index] = link
            links = [link_by_index[i] for i in merged]
            index_list = list(merged)
            weight_list = [merged[i] for i in index_list]
        if not links and not math.isfinite(demand_cap):
            raise SimulationError(
                f"flow {name!r} has no links and no demand cap: rate would be infinite"
            )
        done = self.sim.signal(name=f"{name}.done")
        flow = Flow(
            name, size, links, index_list, weight_list, demand_cap, done,
            started_at=self.sim.now,
        )
        if self.track_binding:
            flow.bound_time = {}
        if size == 0:
            flow.finished_at = self.sim.now
            done.succeed(flow)
            self._notify_transfer(flow)
            return flow
        self._sync()
        self._append(flow)
        self._reallocate()
        self._schedule_completion()
        self._notify_transfer(flow)
        return flow

    def _notify_transfer(self, flow: Flow) -> None:
        if self.on_transfer:
            for observer in tuple(self.on_transfer):
                observer(flow)

    def transfer_and_wait(
        self,
        size: float,
        usages: Sequence[tuple[Link, float]],
        demand_cap: float = _INF,
        name: str = "flow",
    ) -> Waitable:
        """Convenience: start a flow and return the awaitable directly."""
        return self.transfer(size, usages, demand_cap, name).done

    def cancel(self, flow: Flow) -> None:
        """Abort an in-flight flow; its ``done`` signal fails."""
        if flow._net is not self:
            return
        self._sync()
        row = flow._row
        flow._detach()
        self._remove_rows([row])
        flow.rate = 0.0
        flow.done.fail(SimulationError(f"flow {flow.name!r} cancelled"))
        self._reallocate()
        self._schedule_completion()

    # -- rows and incidence --------------------------------------------------
    def _append(self, flow: Flow) -> None:
        """Give ``flow`` the next row and add it to the incidence."""
        flow._net = self
        flow._row = len(self._active)
        self._active.append(flow)
        self._f_rem.append(flow._remaining_f)
        self._f_rate.append(0.0)
        self._f_cap.append(flow.demand_cap)
        self._f_size.append(flow.size)
        ids = flow._ids
        k = len(ids)
        if k:
            self._dirty_links.update(ids)
        else:
            self._dirty_flows.add(flow)
        ne = self._ne + k
        self._ne = ne
        if ne <= self._SCALAR_MAX_EDGES:
            self._link_in(flow)
        elif not self._wide:
            self._to_wide()
        else:
            if k:
                e = ne - k
                if ne > self._e_lidx.size:
                    self._e_lidx = self._grow(self._e_lidx, ne)
                    self._e_wgt = self._grow(self._e_wgt, ne)
                self._e_lidx[e:ne] = ids
                self._e_wgt[e:ne] = flow._wl
                # links are unique after transfer()'s duplicate merge, so
                # a fancy-index increment is a correct refcount update
                self._l_refs[ids] += 1
            self._fidx_cache = None

    def _link_in(self, flow: Flow) -> None:
        """Append ``flow`` to its links' member lists and folds."""
        inc = self._inc
        fold = self._fold
        for i, w in zip(flow._ids, flow._wl):
            members = inc.get(i)
            if members is None:
                inc[i] = ([flow], [w])
                fold[i] = 0.0 + w
            else:
                members[0].append(flow)
                members[1].append(w)
                fold[i] += w

    def _remove_rows(self, rows: Sequence[int]) -> None:
        """Drop the (already detached) flows at ascending ``rows``.

        Survivors keep their relative order and are renumbered, so row
        order stays arrival order — which is what keeps every per-link
        accumulation identical to a from-scratch rebuild.
        """
        active = self._active
        gone = [active[r] for r in rows]
        ne = self._ne
        for flow in gone:
            ne -= len(flow._ids)
        dirty = self._dirty_links
        if not self._wide:
            inc = self._inc
            touched = set()
            for flow in gone:
                for i in flow._ids:
                    flows, wgts = inc[i]
                    k = flows.index(flow)
                    del flows[k]
                    del wgts[k]
                    touched.add(i)
            dirty.update(touched)
            fold = self._fold
            for i in touched:
                wgts = inc[i][1]
                if wgts:
                    fold[i] = left_sum(wgts)
                else:
                    del inc[i]
                    del fold[i]
        elif ne > self._SCALAR_MAX_EDGES:
            keep = np.ones(len(active), dtype=bool)
            keep[rows] = False
            edge_keep = keep[self._fidx()]
            old = self._ne
            lidx = self._e_lidx
            dropped = lidx[:old][~edge_keep]
            if dropped.size:
                drop_idx, drop_cnt = np.unique(dropped, return_counts=True)
                self._l_refs[drop_idx] -= drop_cnt
                dirty.update(drop_idx.tolist())
            lidx[:ne] = lidx[:old][edge_keep]
            self._e_wgt[:ne] = self._e_wgt[:old][edge_keep]
            self._fidx_cache = None
        else:
            for flow in gone:
                dirty.update(flow._ids)
        for r in reversed(rows):
            del active[r]
            del self._f_rem[r]
            del self._f_rate[r]
            del self._f_cap[r]
            del self._f_size[r]
        self._ne = ne
        for i in range(rows[0], len(active)):
            active[i]._row = i
        if self._wide and ne <= self._SCALAR_MAX_EDGES:
            self._to_small()

    def _to_small(self) -> None:
        """Enter the small band: build the link-major incidence from the
        flows' own lists in row order and drop the CSR arrays."""
        self._wide = False
        self._e_lidx = self._e_wgt = self._l_refs = self._fidx_cache = None
        self._inc = {}
        self._fold = {}
        for flow in self._active:
            self._link_in(flow)

    def _to_wide(self) -> None:
        """Enter the wide band: build the CSR incidence from the flows'
        own lists in row order and drop the link-major one."""
        self._wide = True
        self._inc = {}
        self._fold = {}
        active = self._active
        self._e_lidx = np.fromiter(
            chain.from_iterable(f._ids for f in active), dtype=np.intp, count=self._ne
        )
        self._e_wgt = np.fromiter(
            chain.from_iterable(f._wl for f in active), dtype=float, count=self._ne
        )
        self._l_refs = np.bincount(self._e_lidx, minlength=len(self._l_cap))
        self._fidx_cache = None

    @staticmethod
    def _grow(arr: np.ndarray, needed: int) -> np.ndarray:
        new = np.empty(max(needed + 1, arr.size * 2), dtype=arr.dtype)
        new[: arr.size] = arr
        return new

    def _fidx(self) -> np.ndarray:
        """Edge-to-row index (CSR row expansion) of the wide band, cached
        until the membership changes."""
        cache = self._fidx_cache
        if cache is None:
            active = self._active
            cache = np.repeat(
                np.arange(len(active), dtype=np.intp), [len(f._ids) for f in active]
            )
            self._fidx_cache = cache
        return cache

    def _cap_array(self) -> np.ndarray:
        cache = self._cap_np
        if cache is None:
            cache = self._cap_np = np.array(self._l_cap, dtype=float)
        return cache

    # -- internals -------------------------------------------------------------
    def _sync(self) -> None:
        """Advance every active flow's progress to the current time."""
        now = self.sim.now
        dt = now - self._last_advance
        if dt > 0 and self._active:
            rem = self._f_rem
            for i, r in enumerate(self._f_rate):
                if r != 0.0:  # exact: a zero rate leaves remaining untouched
                    v = rem[i] - r * dt
                    rem[i] = v if v > 0.0 else 0.0
            if self.track_binding:
                for flow in self._active:
                    if flow.bound_time is not None:
                        binding = flow.binding
                        if binding is not None:
                            key = binding if isinstance(binding, str) else binding.name
                            flow.bound_time[key] = flow.bound_time.get(key, 0.0) + dt
        self._last_advance = now

    def _reallocate(self) -> None:
        """Weighted max-min progressive filling, gated by the dirty set.

        Links marked dirty (membership or capacity change) are checked
        for member flows; if none has one (and no linkless flow
        arrived), no rate can change and the call resolves in
        O(|dirty|) — the stored rates are kept.  Otherwise the full
        active set is re-filled (see the module docstring for why a
        component-scoped refill would break bitwise reproducibility).
        """
        self.reallocations += 1
        # simprof hook: the recorder only counts and reads its own clock
        # (inside obs/profile.py), never influences the allocation
        profile = self.sim.profile
        token = profile.recompute_begin() if profile is not None else 0.0
        n = len(self._active)
        nlinks = len(self._links)
        dirty = self._dirty_links
        affected = False
        if self._dirty_flows:
            affected = n > 0
            self._dirty_flows.clear()
        if dirty:
            if n and not affected:
                if self._wide:
                    refs = self._l_refs
                    affected = any(refs[i] > 0 for i in dirty)
                else:
                    affected = not dirty.isdisjoint(self._inc)
            dirty.clear()
        if not affected:
            if profile is not None:
                profile.recompute_end(token, 0, 0, nlinks, 0)
            return
        ne = self._ne
        if self._wide:
            self._solve_vector(n, nlinks, ne)
        else:
            self._solve_scalar(n, nlinks, ne)
        if profile is not None:
            if self._wide:
                touched = int((self._l_refs[:nlinks] > 0).sum())
            else:
                touched = len(self._inc)
            profile.recompute_end(token, n, touched, nlinks, ne)

    def _solve_vector(self, n: int, nlinks: int, ne: int) -> None:
        """Vectorised progressive filling over the full active set."""
        lidx = self._e_lidx[:ne]
        wgt = self._e_wgt[:ne]
        fidx = self._fidx()
        caps = np.array(self._f_cap, dtype=float)
        cap_left = self._cap_array().copy()
        rate = np.zeros(n, dtype=float)
        unfrozen = np.ones(n, dtype=bool)
        # Progressive filling; bounded by number of links + flows + 1
        # iterations because each iteration freezes at least one flow.
        for _ in range(nlinks + n + 1):
            if not unfrozen.any():
                break
            active_edge = unfrozen[fidx]
            # bincount over the full edge list with frozen weights zeroed
            # adds +0.0 terms into the same per-bin accumulation order a
            # compressed bincount would use — bitwise-identical sums,
            # without materialising compressed index/weight copies
            w_per_link = np.bincount(lidx, weights=wgt * active_edge, minlength=nlinks)
            has_w = w_per_link > 1e-15
            headroom = np.full(nlinks, _INF)
            np.divide(cap_left, w_per_link, out=headroom, where=has_w)
            r_link = headroom.min() if nlinks else _INF
            cap_slack = caps[unfrozen] - rate[unfrozen]
            r_cap = cap_slack.min() if cap_slack.size else _INF
            dr = min(r_link, r_cap)
            if not math.isfinite(dr):
                # Unconstrained flows (no links, infinite caps) were rejected
                # at transfer(); anything left here is a logic error.
                raise SimulationError("max-min filling diverged (unconstrained flow)")
            dr = max(dr, 0.0)
            rate[unfrozen] += dr
            cap_left -= w_per_link * dr
            np.maximum(cap_left, 0.0, out=cap_left)
            # Freeze flows incident to (near-)saturated links and flows at cap.
            tol = 1e-9
            saturated = has_w & (cap_left <= tol * np.maximum(1.0, dr * w_per_link))
            newly = np.zeros(n, dtype=bool)
            if saturated.any():
                on_sat = saturated[lidx] & active_edge
                if on_sat.any():
                    newly[fidx[on_sat]] = True
            at_cap = unfrozen & (rate >= caps - 1e-12)
            newly |= at_cap
            newly &= unfrozen
            if not newly.any():
                # Numerical corner: force-freeze flows on the binding link.
                frozen_any = False
                if nlinks:
                    binding = int(np.argmin(headroom))
                    on_bind = (lidx == binding) & active_edge
                    if on_bind.any():
                        newly[fidx[on_bind]] = True
                        frozen_any = True
                if not frozen_any:
                    # No saturated link, nobody at cap, and the binding
                    # link carries no unfrozen flow: the filling cannot
                    # make progress.  Exiting here would silently leave
                    # the flows below at rate 0 — fail loudly instead.
                    raise SimulationError(
                        "max-min filling stalled with unfrozen flows "
                        f"{self._stuck_flows(unfrozen)}: no link saturates "
                        "and no demand cap is reachable within tolerance "
                        "(pathological capacity/cap values?)"
                    )
            unfrozen &= ~newly
        self._f_rate = rate.tolist()
        if self.track_binding:
            self._assign_bindings(rate, cap_left)

    def _solve_scalar(self, n: int, nlinks: int, ne: int) -> None:
        """Scalar progressive filling over the small band's incidence.

        Executes the exact IEEE-754 operation sequence of
        :meth:`_solve_vector`: a link's weight sum is the fold of its
        unfrozen members' weights in row order (bincount order), and
        reductions take the same elements, so the two are bitwise
        interchangeable; only the constant factor differs.  The first
        round's sums are the stored folds (every flow is unfrozen); after
        a round only the links of newly frozen flows are re-folded, as no
        other link lost a member.  Every unfrozen flow has grown by the
        same increments since the first round, so their common rate is
        one running ``level``, and only flows with a finite demand cap
        can bound a round or freeze at their cap (an infinite cap's slack
        is infinite), so the cap scans visit just those.
        """
        inc = self._inc
        active = self._active
        caps = self._f_cap
        capped = [i for i, c in enumerate(caps) if c < _INF]
        w_per_link = dict(self._fold)
        l_cap = self._l_cap
        cap_left = {i: l_cap[i] for i in w_per_link}
        rate = [0.0] * n
        unfrozen = [True] * n
        nlive = n
        level = 0.0
        tol = 1e-9
        for _ in range(nlinks + n + 1):
            if not nlive:
                break
            # r_link and the binding link: the lowest global index among
            # the minima (np.argmin over the full link range, INF where
            # no weight, hence 0 when no link has headroom)
            r_link = _INF
            binding = 0
            for li, w in w_per_link.items():
                if w > 1e-15:
                    h = cap_left[li] / w
                    if h < r_link:
                        r_link = h
                        binding = li
                    elif h == r_link and li < binding:
                        binding = li
            r_cap = _INF
            for i in capped:
                if unfrozen[i]:
                    slack = caps[i] - level
                    if slack < r_cap:
                        r_cap = slack
            dr = min(r_link, r_cap)
            if not math.isfinite(dr):
                raise SimulationError("max-min filling diverged (unconstrained flow)")
            dr = max(dr, 0.0)
            level += dr
            newly = []
            for li, w in w_per_link.items():
                if w:
                    c = cap_left[li] - w * dr
                    if c < 0.0:
                        c = 0.0
                    cap_left[li] = c
                    if w > 1e-15:
                        m = dr * w
                        if m < 1.0:
                            m = 1.0
                        if c <= tol * m:
                            for f in inc[li][0]:
                                i = f._row
                                if unfrozen[i]:
                                    unfrozen[i] = False
                                    rate[i] = level
                                    newly.append(i)
            for i in capped:
                if unfrozen[i] and level >= caps[i] - 1e-12:
                    unfrozen[i] = False
                    rate[i] = level
                    newly.append(i)
            if not newly:
                # Numerical corner: force-freeze flows on the binding link.
                members = inc.get(binding)
                if members is not None:
                    for f in members[0]:
                        i = f._row
                        if unfrozen[i]:
                            unfrozen[i] = False
                            rate[i] = level
                            newly.append(i)
                if not newly:
                    raise SimulationError(
                        "max-min filling stalled with unfrozen flows "
                        f"{self._stuck_flows(unfrozen)}: no link saturates "
                        "and no demand cap is reachable within tolerance "
                        "(pathological capacity/cap values?)"
                    )
            nlive -= len(newly)
            if nlive:
                touched = set()
                for i in newly:
                    touched.update(active[i]._ids)
                for li in touched:
                    s = 0.0
                    for f, w in zip(*inc[li]):
                        if unfrozen[f._row]:
                            s += w
                    w_per_link[li] = s
        if nlive:
            for i in range(n):
                if unfrozen[i]:
                    rate[i] = level
        self._f_rate = rate
        if self.track_binding:
            self._assign_bindings(rate, cap_left)

    def _stuck_flows(self, unfrozen: Sequence[bool]) -> list[str]:
        return [f.name for f, u in zip(self._active, unfrozen) if u]

    def _assign_bindings(self, rate: Sequence[float], cap_left) -> None:
        """Record, per flow, the constraint that bounds its current rate:
        its demand cap, or the most-depleted link it uses (the one the
        progressive filling froze it on).  Reads only quantities the
        allocator computed; never feeds back into allocation.

        ``cap_left`` is indexable by global link index: the vectorised
        solver passes the full array, the scalar one a dict covering
        every link that carries an edge (which includes every link of
        every active flow, so lookups never miss)."""
        for fi, flow in enumerate(self._active):
            if flow.bound_time is None:
                continue
            if math.isfinite(flow.demand_cap) and rate[fi] >= flow.demand_cap - 1e-9:
                flow.binding = "cap"
                continue
            best = None
            best_frac = _INF
            for link in flow.links:
                frac = cap_left[link.index] / link.capacity
                if frac < best_frac:
                    best_frac = frac
                    best = link
            flow.binding = best

    def _schedule_completion(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        best = _INF
        for r, v in zip(self._f_rate, self._f_rem):
            if r > 0:
                t = v / r
                if t < best:
                    best = t
        if math.isfinite(best):
            self._completion_event = self.sim.schedule(best, self._on_completion)

    def _on_completion(self) -> None:
        self._completion_event = None
        self._sync()
        # Batch everything finishing within epsilon (plus anything whose
        # residual would finish within epsilon at its current rate).
        eps = self.time_epsilon
        rows = []
        for i, (rem, r, size) in enumerate(zip(self._f_rem, self._f_rate, self._f_size)):
            fin = rem <= 1e-9 * (size if size > 1.0 else 1.0)
            if not fin:
                fin = r > 0 and rem / r <= eps
            if fin:
                rows.append(i)
        if not rows:
            # Spurious wakeup (e.g. a rate changed between scheduling and
            # firing); just reschedule.
            self._reallocate()
            self._schedule_completion()
            return
        active = self._active
        finished = [active[i] for i in rows]
        for flow in finished:
            flow._detach()
        self._remove_rows(rows)
        now = self.sim.now
        for flow in finished:
            flow.remaining = 0.0
            flow.rate = 0.0
            flow.finished_at = now
            flow.done.succeed(flow)
        if self._active:
            self._reallocate()
        self._schedule_completion()
