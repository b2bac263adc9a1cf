"""simprof: deterministic self-profiling of the simulator engine.

The observability layer built so far watches the *modelled* storage
systems; this module watches the *simulator itself* — where the Python
time goes while a figure builds.  A :class:`ProfileRecorder` plugs into
the two engine hot paths:

- ``Simulator.run`` routes every event dispatch through
  :meth:`ProfileRecorder.dispatch`, which counts events per callback
  site (derived from the callback's module/qualname, so the key is
  stable across runs and processes) and attributes wall-clock self time
  to each site;
- ``FlowNetwork._reallocate`` brackets each progressive-filling
  recompute with :meth:`recompute_begin` / :meth:`recompute_end`,
  recording how many flows were refilled, how many links the incidence
  actually touched (vs. the full link set), the incidence size, and the
  recompute's wall time — the numbers ROADMAP item 1's incremental
  reallocation work needs as a before/after.

Determinism contract: everything the recorder *counts* (events, sites,
recomputes, queue depths, incidence sizes) is a pure function of the
simulation and merges exactly across worker processes; only the wall
fields are host noise.  The recorder is passive — the engine never
reads it — so attaching one cannot change scheduling decisions, random
streams, or modelled results; with ``sim.profile`` left ``None`` the
hot loop pays a single ``is None`` check.

This is the **only** module in ``obs/`` allowed to read the wall clock
(simlint SL001 allowlist): the engine calls into the recorder and the
``perf_counter`` reads happen here, so ``sim/core.py`` and
``sim/flownet.py`` stay clock-free.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["ProfileRecorder"]


class ProfileRecorder:
    """Mergeable per-site event counts + engine wall-clock attribution."""

    def __init__(self) -> None:
        #: callback site -> [events dispatched, self wall seconds]
        self.sites: Dict[str, List[float]] = {}
        self.events_dispatched = 0
        #: sum of per-site self time (excludes nested recomputes)
        self.dispatch_wall = 0.0
        #: largest pending-event calendar over every observed run
        self.queue_depth_peak = 0
        self.runs = 0
        # flow-network progressive-filling recomputes
        self.recomputes = 0
        #: recomputes whose incidence touched every registered link
        self.recomputes_full = 0
        #: cumulative flows refilled across recomputes
        self.recompute_flows = 0
        #: cumulative distinct links in the recompute incidence
        self.recompute_links_touched = 0
        #: cumulative (flow, link) incidence entries (the O(nnz) term)
        self.recompute_edges = 0
        self.recompute_wall = 0.0
        #: largest link table any recompute ran against
        self.links_total_peak = 0
        # scratch: (module, qualname) -> site string; wall seconds of
        # recomputes nested inside the current dispatch
        self._site_cache: Dict[Tuple[Any, Any], str] = {}
        self._nested = 0.0

    # -- engine hooks --------------------------------------------------------
    def _site(self, fn: Callable[..., Any]) -> str:
        """Stable name for a callback site: ``module.Qualname`` with the
        package prefix and ``<locals>`` noise stripped (``core.Process._step``,
        ``flownet.FlowNetwork._on_completion``)."""
        key = (getattr(fn, "__module__", None), getattr(fn, "__qualname__", None))
        site = self._site_cache.get(key)
        if site is None:
            mod, qual = key
            if qual is None:
                qual = type(fn).__name__
            site = f"{(mod or '?').rsplit('.', 1)[-1]}.{qual.replace('.<locals>', '')}"
            self._site_cache[key] = site
        return site

    def dispatch(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        """Invoke ``fn(*args)`` (one calendar event), attributing its
        self wall time — minus any nested flow-network recomputes — to
        the callback's site."""
        self.events_dispatched += 1
        self._nested = 0.0
        t0 = time.perf_counter()
        try:
            fn(*args)
        finally:
            self_wall = (time.perf_counter() - t0) - self._nested
            self.dispatch_wall += self_wall
            site = self._site(fn)
            cell = self.sites.get(site)
            if cell is None:
                self.sites[site] = [1, self_wall]
            else:
                cell[0] += 1
                cell[1] += self_wall

    def note_run(self, queue_depth_peak: int) -> None:
        """Called by ``Simulator.run`` on exit with that run's calendar
        high-water mark."""
        self.runs += 1
        if queue_depth_peak > self.queue_depth_peak:
            self.queue_depth_peak = queue_depth_peak

    def recompute_begin(self) -> float:
        """Start timing one progressive-filling recompute; returns an
        opaque token for :meth:`recompute_end`."""
        return time.perf_counter()

    def recompute_end(
        self,
        token: float,
        flows: int,
        links_touched: int,
        links_total: int,
        edges: int,
    ) -> None:
        """Finish timing a recompute: ``flows`` refilled over an
        incidence of ``edges`` entries touching ``links_touched`` of the
        network's ``links_total`` links."""
        elapsed = time.perf_counter() - token
        self.recomputes += 1
        if links_total and links_touched >= links_total:
            self.recomputes_full += 1
        self.recompute_flows += flows
        self.recompute_links_touched += links_touched
        self.recompute_edges += edges
        if links_total > self.links_total_peak:
            self.links_total_peak = links_total
        self.recompute_wall += elapsed
        self._nested += elapsed

    # -- derived views -------------------------------------------------------
    @property
    def engine_wall(self) -> float:
        """Host seconds spent inside the engine (dispatch + recompute)."""
        return self.dispatch_wall + self.recompute_wall

    def events_per_second(self) -> float:
        """Dispatch throughput over the engine's own wall time."""
        wall = self.engine_wall
        return self.events_dispatched / wall if wall > 0 else 0.0

    def hot_sites(self, top: int = 10) -> List[Tuple[str, int, float]]:
        """(site, events, self wall seconds), heaviest wall first; ties
        (and the all-zero-wall degenerate case) break by event count
        then name so the table is stable."""
        rows = [
            (name, int(count), wall) for name, (count, wall) in self.sites.items()
        ]
        rows.sort(key=lambda r: (-r[2], -r[1], r[0]))
        return rows[:top]

    def collapsed_stacks(self, metric: str = "wall") -> List[str]:
        """Folded flame-graph lines (``frame;frame value``).

        ``metric="wall"`` weights frames by self wall microseconds (the
        flamegraph.pl convention), ``metric="events"`` by deterministic
        event counts.  Frames nest engine-first: ``sim.run`` at the
        root, then ``dispatch``/``flownet.reallocate``, then the site.
        """
        if metric not in ("wall", "events"):
            raise ValueError(f"metric must be 'wall' or 'events': {metric!r}")
        lines = []
        for name in sorted(self.sites):
            count, wall = self.sites[name]
            value = int(count) if metric == "events" else int(round(wall * 1e6))
            lines.append(f"sim.run;dispatch;{name} {value}")
        if self.recomputes:
            value = (
                self.recomputes
                if metric == "events"
                else int(round(self.recompute_wall * 1e6))
            )
            lines.append(f"sim.run;flownet.reallocate {value}")
        return lines

    # -- cross-process merge -------------------------------------------------
    def dump_state(self) -> Dict[str, Any]:
        """Complete picklable/JSON-safe state for :meth:`merge_state`."""
        return {
            "sites": {
                name: [int(count), float(wall)]
                for name, (count, wall) in sorted(self.sites.items())
            },
            "events_dispatched": self.events_dispatched,
            "dispatch_wall": self.dispatch_wall,
            "queue_depth_peak": self.queue_depth_peak,
            "runs": self.runs,
            "recomputes": self.recomputes,
            "recomputes_full": self.recomputes_full,
            "recompute_flows": self.recompute_flows,
            "recompute_links_touched": self.recompute_links_touched,
            "recompute_edges": self.recompute_edges,
            "recompute_wall": self.recompute_wall,
            "links_total_peak": self.links_total_peak,
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another recorder's :meth:`dump_state` in: counts and
        walls add, peaks take the maximum — commutative and associative,
        so the counted fields merge exactly across any worker split."""
        for name, (count, wall) in state["sites"].items():
            cell = self.sites.get(name)
            if cell is None:
                self.sites[name] = [int(count), float(wall)]
            else:
                cell[0] += int(count)
                cell[1] += float(wall)
        self.events_dispatched += int(state["events_dispatched"])
        self.dispatch_wall += float(state["dispatch_wall"])
        self.queue_depth_peak = max(
            self.queue_depth_peak, int(state["queue_depth_peak"])
        )
        self.runs += int(state["runs"])
        self.recomputes += int(state["recomputes"])
        self.recomputes_full += int(state["recomputes_full"])
        self.recompute_flows += int(state["recompute_flows"])
        self.recompute_links_touched += int(state["recompute_links_touched"])
        self.recompute_edges += int(state["recompute_edges"])
        self.recompute_wall += float(state["recompute_wall"])
        self.links_total_peak = max(
            self.links_total_peak, int(state["links_total_peak"])
        )

    def as_json_obj(self) -> Dict[str, Any]:
        """Export view: the mergeable state plus derived summaries."""
        doc = self.dump_state()
        doc["engine_wall"] = self.engine_wall
        doc["events_per_second"] = self.events_per_second()
        doc["hot_sites"] = [
            {"site": name, "events": count, "self_wall": wall}
            for name, count, wall in self.hot_sites(top=len(self.sites) or 1)
        ]
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProfileRecorder {self.events_dispatched} events, "
            f"{self.recomputes} recomputes, {len(self.sites)} sites>"
        )
