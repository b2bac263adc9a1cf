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

Incidence layout (docs/PERFORMANCE.md)
--------------------------------------
The flow-link incidence is *persistent*: per-flow edge runs live as
contiguous slices of two preallocated arrays (``_e_lidx``/``_e_wgt``, in
active-flow order), appended on arrival and compacted with one mask on
departure, so a recompute never rebuilds Python lists.  Reallocation is
*dirty-set gated*: each arrival, departure, or capacity change marks its
links dirty, and a recompute whose dirty links carry no edges (tracked
by a per-link reference count) is resolved in O(|dirty|) without
touching a single flow — current rates are already the solve's fixed
point.  When a solve *is* needed it refills the full active set: the
progressive filling applies one global increment to every unfrozen flow,
so a flow's rate is a partial sum whose breakpoints include other
components' freeze events, and a per-component re-solve would round
differently (~1 ulp) — the byte-identical series contract forbids that.
Two arithmetically identical solver bodies are kept: a vectorised one
(NumPy bincount over the incidence, one filling pass is O(nnz)) for
solves over more than 128 edges and a scalar one for up to 128 edges,
whatever the flow count, where interpreter loops beat ufunc dispatch
overhead (docs/PERFORMANCE.md §1 has the measured crossover).  The
scalar one runs on dense local link ids (the solve's links renumbered
0..L-1) with per-flow edge runs and per-link flow lists.  With at most
16 flows the per-event bodies work on Python floats read once with
``tolist()``, and departures (with at most 128 edges too) compact the
arrays with one slice copy per run of surviving rows.
Both solvers execute the same IEEE-754 operation sequence, so which one
runs never changes a single bit of any rate (guarded by
tests/test_flownet.py).

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
from typing import Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.core import EventHandle, Signal, Simulator, Waitable

__all__ = ["Link", "Flow", "FlowNetwork"]

_INF = math.inf


class Link:
    """A shared capacity (bytes/s or ops/s) inside the flow network.

    Capacity is a view into the owning network's link arrays (the
    vectorised hot paths read and write them directly); change it
    through :meth:`FlowNetwork.set_capacity`.
    """

    __slots__ = ("name", "index", "_net")

    def __init__(self, name: str, index: int, net: "FlowNetwork"):
        self.name = name
        self.index = index
        self._net = net

    @property
    def capacity(self) -> float:
        return float(self._net._l_cap[self.index])

    @capacity.setter
    def capacity(self, value: float) -> None:
        if value <= 0:
            raise SimulationError(f"capacity must stay positive, got {value}")
        self._net._l_cap[self.index] = float(value)

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

    While active, ``remaining`` and ``rate`` live in the network's flow
    arrays (row ``_row``); on completion or cancellation the final values
    are written back to the object, the flow's progress is settled into
    its links' busy integrals, and the row is released.
    """

    __slots__ = (
        "name",
        "size",
        "links",
        "weights",
        "_lidx",
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
        weights: np.ndarray,
        lidx: np.ndarray,
        demand_cap: float,
        done: Signal,
        started_at: float,
    ):
        self.name = name
        self.size = float(size)
        self.links = links
        self.weights = weights
        #: ``links``' indices (unique), for fancy-indexed link updates
        self._lidx = lidx
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
        # detached state (array-backed while the network holds a row)
        self._net: Optional["FlowNetwork"] = None
        self._row = -1
        self._remaining_f = float(size)
        self._rate_f = 0.0

    @property
    def remaining(self) -> float:
        net = self._net
        if net is None:
            return self._remaining_f
        return float(net._f_rem[self._row])

    @remaining.setter
    def remaining(self, value: float) -> None:
        net = self._net
        if net is None:
            self._remaining_f = float(value)
        else:
            net._f_rem[self._row] = value

    @property
    def rate(self) -> float:
        net = self._net
        if net is None:
            return self._rate_f
        return float(net._f_rate[self._row])

    @rate.setter
    def rate(self, value: float) -> None:
        net = self._net
        if net is None:
            self._rate_f = float(value)
        else:
            net._f_rate[self._row] = value

    def _detach(self) -> None:
        """Capture array state into the object, settle the progress made
        into the links' busy integrals, and release the row."""
        net = self._net
        if net is not None:
            row = self._row
            rem = float(net._f_rem[row])
            self._remaining_f = rem
            self._rate_f = float(net._f_rate[row])
            if self.links:
                # links are unique after transfer()'s duplicate merge, so
                # one fancy-index add settles every link
                net._l_busy[self._lidx] += self.weights * (self.size - rem)
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

    #: population bounds below which the scalar paths run (same
    #: arithmetic, lower constant); above them NumPy wins.  The solver
    #: is chosen by edge count alone, the per-event bodies (sync,
    #: completion scheduling and batching) by flow count, row removal
    #: by both
    _SCALAR_MAX_FLOWS = 16
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
        # link arrays (index == Link.index); _l_busy holds the busy
        # integrals settled by departed flows; _l_refs counts incident
        # edges of active flows, which makes the dirty-set skip test O(1)
        # per dirty link
        self._l_cap = np.empty(16, dtype=float)
        self._l_busy = np.zeros(16, dtype=float)
        self._l_refs = np.zeros(16, dtype=np.intp)
        # per-flow state arrays, rows in ``_active`` order
        self._nf = 0
        self._f_rem = np.empty(16, dtype=float)
        self._f_rate = np.empty(16, dtype=float)
        self._f_cap = np.empty(16, dtype=float)
        self._f_size = np.empty(16, dtype=float)
        self._f_ecnt = np.empty(16, dtype=np.intp)
        # edge (incidence) arrays: per-flow runs, concatenated in
        # ``_active`` order — the persistent CSR layout
        self._ne = 0
        self._e_lidx = np.empty(64, dtype=np.intp)
        self._e_wgt = np.empty(64, dtype=float)
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
        if index >= self._l_cap.size:
            self._l_cap = self._grow(self._l_cap, index)
            self._l_busy = self._grow_zero(self._l_busy, index)
            self._l_refs = self._grow_zero(self._l_refs, index)
        self._l_cap[index] = float(capacity)
        self._l_busy[index] = 0.0
        self._l_refs[index] = 0
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
        settled plus each active flow's ``weight * (size - remaining)``.
        One bincount over the active edges, so O(links + edges)."""
        nlinks = len(self._links)
        busy = self._l_busy[:nlinks].copy()
        ne = self._ne
        if ne:
            n = self._nf
            done = self._f_size[:n] - self._f_rem[:n]
            busy += np.bincount(
                self._e_lidx[:ne],
                weights=self._e_wgt[:ne] * done[self._fidx()],
                minlength=nlinks,
            )
        return busy

    def set_capacity(self, name: str, capacity: float) -> None:
        """Change a link's capacity (failure injection / degraded mode)."""
        if capacity <= 0:
            raise SimulationError(f"capacity must stay positive, got {capacity}")
        self._sync()
        link = self.link(name)
        link.capacity = float(capacity)
        self._dirty_links.add(link.index)
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
            weights = np.array([merged[i] for i in index_list], dtype=float)
        else:
            weights = np.array(weight_list, dtype=float)
        if not links and not math.isfinite(demand_cap):
            raise SimulationError(
                f"flow {name!r} has no links and no demand cap: rate would be infinite"
            )
        done = self.sim.signal(name=f"{name}.done")
        lidx = np.array(index_list, dtype=np.intp)
        flow = Flow(name, size, links, weights, lidx, demand_cap, done, started_at=self.sim.now)
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
        self._active.pop(row)
        self._remove_rows([row])
        flow.rate = 0.0
        flow.done.fail(SimulationError(f"flow {flow.name!r} cancelled"))
        self._reallocate()
        self._schedule_completion()

    # -- array plumbing ----------------------------------------------------
    @staticmethod
    def _grow(arr: np.ndarray, needed: int) -> np.ndarray:
        new = np.empty(max(needed + 1, arr.size * 2), dtype=arr.dtype)
        new[: arr.size] = arr
        return new

    @staticmethod
    def _grow_zero(arr: np.ndarray, needed: int) -> np.ndarray:
        new = np.zeros(max(needed + 1, arr.size * 2), dtype=arr.dtype)
        new[: arr.size] = arr
        return new

    def _append(self, flow: Flow) -> None:
        """Give ``flow`` the next row and append its edge run."""
        row = self._nf
        if row >= self._f_rem.size:
            for attr in ("_f_rem", "_f_rate", "_f_cap", "_f_size", "_f_ecnt"):
                setattr(self, attr, self._grow(getattr(self, attr), row))
        k = len(flow.links)
        ne = self._ne
        if ne + k > self._e_lidx.size:
            self._e_lidx = self._grow(self._e_lidx, ne + k)
            self._e_wgt = self._grow(self._e_wgt, ne + k)
        if k:
            idx = flow._lidx
            self._e_lidx[ne : ne + k] = idx
            self._e_wgt[ne : ne + k] = flow.weights
            ids = idx.tolist()
            self._dirty_links.update(ids)
            refs = self._l_refs
            if k > 8:
                # links are unique after transfer()'s duplicate merge, so a
                # fancy-index increment is a correct refcount update
                refs[idx] += 1
            else:
                for i in ids:
                    refs[i] += 1
        else:
            self._dirty_flows.add(flow)
        self._f_rem[row] = flow.remaining
        self._f_rate[row] = 0.0
        self._f_cap[row] = flow.demand_cap
        self._f_size[row] = flow.size
        self._f_ecnt[row] = k
        flow._net = self
        flow._row = row
        self._active.append(flow)
        self._nf = row + 1
        self._ne = ne + k
        self._fidx_cache = None

    def _remove_rows(self, rows: Sequence[int]) -> None:
        """Compact the flow and edge arrays after removing ``rows``.

        ``self._active`` must already reflect the removal; surviving
        flows are renumbered so row order stays ``_active`` order (which
        is what keeps the incidence enumeration — and therefore every
        bincount accumulation — identical to a from-scratch rebuild).
        """
        n = self._nf
        ne = self._ne
        dirty = self._dirty_links
        refs = self._l_refs
        ecnt = self._f_ecnt
        lidx = self._e_lidx
        first = min(rows)
        if n <= self._SCALAR_MAX_FLOWS and ne <= self._SCALAR_MAX_EDGES:
            # rows and edges before ``first`` stay put; each later run
            # of kept rows moves down with one slice copy per array
            rowset = set(rows)
            counts = ecnt[:n].tolist()
            wgt = self._e_wgt
            row_arrays = (self._f_rem, self._f_rate, self._f_cap, self._f_size, ecnt)
            src_e = dst_e = sum(counts[:first])
            dst = first
            i = first
            while i < n:
                k = counts[i]
                if i in rowset:
                    for li in lidx[src_e : src_e + k].tolist():
                        refs[li] -= 1
                        dirty.add(li)
                    src_e += k
                    i += 1
                    continue
                j = i + 1
                while j < n and j not in rowset:
                    k += counts[j]
                    j += 1
                if dst != i:
                    for arr in row_arrays:
                        arr[dst : dst + j - i] = arr[i:j]
                    lidx[dst_e : dst_e + k] = lidx[src_e : src_e + k]
                    wgt[dst_e : dst_e + k] = wgt[src_e : src_e + k]
                dst += j - i
                dst_e += k
                src_e += k
                i = j
            new_n = dst
            new_ne = dst_e
        else:
            keep = np.ones(n, dtype=bool)
            keep[list(rows)] = False
            edge_keep = np.repeat(keep, ecnt[:n])
            dropped = lidx[:ne][~edge_keep]
            if dropped.size:
                drop_idx, drop_cnt = np.unique(dropped, return_counts=True)
                refs[drop_idx] -= drop_cnt
                dirty.update(drop_idx.tolist())
            new_ne = int(edge_keep.sum())
            if new_ne != ne:
                lidx[:new_ne] = lidx[:ne][edge_keep]
                self._e_wgt[:new_ne] = self._e_wgt[:ne][edge_keep]
            new_n = int(keep.sum())
            for attr in ("_f_rem", "_f_rate", "_f_cap", "_f_size", "_f_ecnt"):
                arr = getattr(self, attr)
                arr[:new_n] = arr[:n][keep]
        self._ne = new_ne
        self._nf = new_n
        self._fidx_cache = None
        active = self._active
        for i in range(first, new_n):
            active[i]._row = i

    def _fidx(self) -> np.ndarray:
        """Edge-to-flow index (CSR row expansion), cached until the
        membership changes."""
        cache = self._fidx_cache
        if cache is None:
            n = self._nf
            cache = np.repeat(np.arange(n, dtype=np.intp), self._f_ecnt[:n])
            self._fidx_cache = cache
        return cache

    # -- internals -------------------------------------------------------------
    def _sync(self) -> None:
        """Advance every active flow's progress to the current time."""
        now = self.sim.now
        dt = now - self._last_advance
        n = self._nf
        if dt > 0 and n:
            if n <= self._SCALAR_MAX_FLOWS:
                rem = self._f_rem[:n].tolist()
                for i, r in enumerate(self._f_rate[:n].tolist()):
                    if r != 0.0:  # exact: a zero rate leaves remaining untouched
                        v = rem[i] - r * dt
                        rem[i] = v if v > 0.0 else 0.0
                self._f_rem[:n] = rem
            else:
                self._f_rem[:n] = np.maximum(0.0, self._f_rem[:n] - self._f_rate[:n] * dt)
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
        against the per-link edge refcount; if none carries an edge of
        an active flow (and no linkless flow arrived), no rate can
        change and the call resolves in O(|dirty|) — the stored rates
        are already the solve's fixed point.  Otherwise the full active
        set is re-filled (see the module docstring for why a
        component-scoped refill would break bitwise reproducibility).
        """
        self.reallocations += 1
        # simprof hook: the recorder only counts and reads its own clock
        # (inside obs/profile.py), never influences the allocation
        profile = self.sim.profile
        token = profile.recompute_begin() if profile is not None else 0.0
        n = self._nf
        nlinks = len(self._links)
        dirty = self._dirty_links
        affected = False
        if self._dirty_flows:
            affected = n > 0
            self._dirty_flows.clear()
        if dirty:
            if n and not affected:
                refs = self._l_refs
                for i in dirty:
                    if i < nlinks and refs[i]:
                        affected = True
                        break
            dirty.clear()
        if not affected:
            if profile is not None:
                profile.recompute_end(token, 0, 0, nlinks, 0)
            return
        ne = self._ne
        if ne <= self._SCALAR_MAX_EDGES:
            self._solve_scalar(n, nlinks, ne)
        else:
            self._solve_vector(n, nlinks, ne)
        if profile is not None:
            touched = int((self._l_refs[:nlinks] > 0).sum())
            profile.recompute_end(token, n, touched, nlinks, ne)

    def _solve_vector(self, n: int, nlinks: int, ne: int) -> None:
        """Vectorised progressive filling over the full active set."""
        lidx = self._e_lidx[:ne]
        wgt = self._e_wgt[:ne]
        fidx = self._fidx()
        caps = self._f_cap[:n]
        cap_left = self._l_cap[:nlinks].copy()
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
        self._f_rate[:n] = rate
        if self.track_binding:
            self._assign_bindings(rate, cap_left)

    def _solve_scalar(self, n: int, nlinks: int, ne: int) -> None:
        """Scalar progressive filling for small populations.

        Executes the exact IEEE-754 operation sequence of
        :meth:`_solve_vector` — per-link weight sums accumulate in edge
        order (bincount order), reductions take the same elements — so
        the two are bitwise interchangeable; only the constant factor
        differs.  The solve's links are renumbered 0..L-1 in
        first-appearance order; each flow keeps its run of
        ``(local link, weight)`` pairs and each link its flow list, so
        a round sums only unfrozen flows' runs and freezes through the
        saturated links' flow lists.  Every unfrozen flow has grown by
        the same increments since the first round, so their common rate
        is one running ``level``, and only flows with a finite demand
        cap can bound a round or freeze at their cap (an infinite cap's
        slack is infinite), so the cap scans visit just those.
        """
        lidx = self._e_lidx[:ne].tolist()
        wgt = self._e_wgt[:ne].tolist()
        counts = self._f_ecnt[:n].tolist()
        caps = self._f_cap[:n].tolist()
        capped = [i for i, c in enumerate(caps) if c < _INF]
        l_cap = self._l_cap
        local: dict[int, int] = {}
        glob: list[int] = []
        link_flows: list[list[int]] = []
        # first-round per-link weights: every flow is unfrozen, so this
        # edge-order pass is exactly the round's accumulation
        w_all: list[float] = []
        runs: list[list[tuple[int, float]]] = []
        e = 0
        for i, k in enumerate(counts):
            run = []
            for j in range(e, e + k):
                g = lidx[j]
                w = wgt[j]
                li = local.get(g)
                if li is None:
                    li = local[g] = len(glob)
                    glob.append(g)
                    link_flows.append([i])
                    w_all.append(0.0 + w)
                else:
                    link_flows[li].append(i)
                    w_all[li] += w
                run.append((li, w))
            runs.append(run)
            e += k
        nl = len(glob)
        cap_left = [float(l_cap[g]) for g in glob]
        rate = [0.0] * n
        unfrozen = [True] * n
        live = list(range(n))
        level = 0.0
        tol = 1e-9
        for rnd in range(nlinks + n + 1):
            if not live:
                break
            if rnd:
                w_per_link = [0.0] * nl
                for i in live:
                    for li, w in runs[i]:
                        w_per_link[li] += w
            else:
                w_per_link = w_all
            headroom = [_INF] * nl
            r_link = _INF
            for li in range(nl):
                w = w_per_link[li]
                if w > 1e-15:
                    h = cap_left[li] / w
                    headroom[li] = h
                    if h < r_link:
                        r_link = h
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
            any_new = False
            for li in range(nl):
                w = w_per_link[li]
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
                            for f in link_flows[li]:
                                if unfrozen[f]:
                                    unfrozen[f] = False
                                    rate[f] = level
                                    any_new = True
            for i in capped:
                if unfrozen[i] and level >= caps[i] - 1e-12:
                    unfrozen[i] = False
                    rate[i] = level
                    any_new = True
            if not any_new:
                # Numerical corner: force-freeze flows on the binding
                # link (np.argmin semantics: lowest global index of the
                # minimum over the full link range, INF where no weight).
                h_min = min(headroom, default=_INF)
                if math.isfinite(h_min):
                    # exact: comparing against the stored minimum itself
                    binding = min(glob[li] for li in range(nl) if headroom[li] == h_min)
                else:
                    binding = 0
                li = local.get(binding)
                if li is not None:
                    for f in link_flows[li]:
                        if unfrozen[f]:
                            unfrozen[f] = False
                            rate[f] = level
                            any_new = True
                if not any_new:
                    raise SimulationError(
                        "max-min filling stalled with unfrozen flows "
                        f"{self._stuck_flows(unfrozen)}: no link saturates "
                        "and no demand cap is reachable within tolerance "
                        "(pathological capacity/cap values?)"
                    )
            live = [i for i in live if unfrozen[i]]
        for i in live:
            rate[i] = level
        self._f_rate[:n] = rate
        if self.track_binding:
            self._assign_bindings(rate, dict(zip(glob, cap_left)))

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
        n = self._nf
        if n:
            if n <= self._SCALAR_MAX_FLOWS:
                for r, v in zip(self._f_rate[:n].tolist(), self._f_rem[:n].tolist()):
                    if r > 0:
                        t = v / r
                        if t < best:
                            best = t
            else:
                rates = self._f_rate[:n]
                pos = rates > 0
                if pos.any():
                    best = float((self._f_rem[:n][pos] / rates[pos]).min())
        if math.isfinite(best):
            self._completion_event = self.sim.schedule(best, self._on_completion)

    def _on_completion(self) -> None:
        self._completion_event = None
        self._sync()
        # Batch everything finishing within epsilon (plus anything whose
        # residual would finish within epsilon at its current rate).
        n = self._nf
        eps = self.time_epsilon
        if n <= self._SCALAR_MAX_FLOWS:
            rows = []
            for i, (rem, r, size) in enumerate(
                zip(
                    self._f_rem[:n].tolist(),
                    self._f_rate[:n].tolist(),
                    self._f_size[:n].tolist(),
                )
            ):
                fin = rem <= 1e-9 * (size if size > 1.0 else 1.0)
                if not fin:
                    fin = r > 0 and rem / r <= eps
                if fin:
                    rows.append(i)
            nrows = len(rows)
        else:
            rem_v = self._f_rem[:n]
            rate_v = self._f_rate[:n]
            residual = np.full(n, _INF)
            np.divide(rem_v, rate_v, out=residual, where=rate_v > 0)
            finished_mask = (rem_v <= 1e-9 * np.maximum(1.0, self._f_size[:n])) | (
                residual <= eps
            )
            rows = np.flatnonzero(finished_mask).tolist()
            nrows = len(rows)
        if nrows == 0:
            # Spurious wakeup (e.g. a rate changed between scheduling and
            # firing); just reschedule.
            self._reallocate()
            self._schedule_completion()
            return
        active = self._active
        finished = [active[i] for i in rows]
        if nrows == n:
            self._active = []
        else:
            rowset = set(rows)
            self._active = [active[i] for i in range(n) if i not in rowset]
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
