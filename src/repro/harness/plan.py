"""Declarative run plans: *what* a figure needs, separated from *how*
it runs.

A figure builder used to call :func:`repro.harness.experiment.run_point`
inline, which welded the experiment grid to serial, from-scratch
execution.  Instead, each builder now emits a :class:`RunPlan`:

- an ordered tuple of unique :class:`PointSpec`\\ s (duplicates within a
  figure are folded away at construction);
- the repetition count shared by every point of the figure;
- a **pure assembly function** that turns a ``{spec: PointResult}``
  mapping into the figure's :class:`FigureResult` (series, shape
  checks, prose).  Assembly performs no simulation and no I/O, so the
  same plan can be satisfied by a serial loop, one process per point, or a
  warm on-disk cache and assemble byte-identical figures.

Because plans are data, points can be scheduled, parallelised,
deduplicated across figures (:func:`dedupe_plans` — e.g. Fig. 3's
reference IOR sweep shares points with Fig. 5's server sweep), and
cached between invocations.  The execution side lives in
:mod:`repro.harness.executor`; the cache in
:mod:`repro.harness.cache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Sequence, Tuple

from repro.errors import ConfigError
from repro.harness.experiment import PointResult, PointSpec, spec_token

if TYPE_CHECKING:  # pragma: no cover - typing only (figures imports us)
    from repro.harness.figures import FigureResult

__all__ = ["RunPlan", "PlanBatch", "make_plan", "dedupe_plans", "with_faults"]

#: assembly signature: results for every spec of the plan -> the figure
Assembler = Callable[[Mapping[PointSpec, PointResult]], "FigureResult"]


@dataclass(frozen=True)
class RunPlan:
    """One figure's experiment demand, as data.

    ``specs`` are unique and ordered (enumeration order of the
    builder); ``requested`` counts the builder's pre-dedup demand so
    reports can show how much work intra-figure dedup saved.
    """

    fig_id: str
    scale: str
    reps: int
    specs: Tuple[PointSpec, ...]
    assembler: Assembler
    requested: int

    def assemble(self, results: Mapping[PointSpec, PointResult]) -> "FigureResult":
        """Build the figure from executed results (pure; no simulation).

        ``results`` may be a superset (e.g. a batch's shared result
        pool); every spec of this plan must be present.
        """
        missing = [spec for spec in self.specs if spec not in results]
        if missing:
            names = ", ".join(spec_token(spec) for spec in missing[:3])
            more = f" (+{len(missing) - 3} more)" if len(missing) > 3 else ""
            raise ConfigError(
                f"plan {self.fig_id!r}: {len(missing)} of {len(self.specs)} "
                f"point results missing: {names}{more}"
            )
        return self.assembler(results)

    def __len__(self) -> int:
        return len(self.specs)


def make_plan(
    fig_id: str,
    scale: str,
    reps: int,
    specs: Sequence[PointSpec],
    assembler: Assembler,
) -> RunPlan:
    """Fold duplicate specs (first occurrence wins the ordering) and
    freeze the plan."""
    if reps < 1:
        raise ConfigError(f"plan {fig_id!r} needs >= 1 repetition, got {reps}")
    unique: Dict[PointSpec, None] = {}
    for spec in specs:
        unique.setdefault(spec)
    return RunPlan(
        fig_id=fig_id,
        scale=scale,
        reps=reps,
        specs=tuple(unique),
        assembler=assembler,
        requested=len(specs),
    )


def with_faults(plan: RunPlan, faults: str) -> RunPlan:
    """Overlay a fault-plan spec onto every point of a plan.

    Returns a new :class:`RunPlan` whose specs carry ``faults`` (rawio
    probe points are left untouched — hardware probes have no stores to
    break) and whose assembler remaps results back onto the original
    specs, so figure assembly code is oblivious to the overlay.
    """
    if not faults:
        return plan
    mapping: Dict[PointSpec, PointSpec] = {}
    for spec in plan.specs:
        mapping[spec] = spec if spec.workload == "rawio" else spec.with_(faults=faults)

    def assembler(results: Mapping[PointSpec, PointResult]) -> "FigureResult":
        remapped: Dict[PointSpec, PointResult] = dict(results)
        for original, faulted in mapping.items():
            if faulted in results:
                remapped[original] = results[faulted]
        return plan.assembler(remapped)

    return RunPlan(
        fig_id=plan.fig_id,
        scale=plan.scale,
        reps=plan.reps,
        specs=tuple(dict.fromkeys(mapping.values())),
        assembler=assembler,
        requested=plan.requested,
    )


@dataclass(frozen=True)
class PlanBatch:
    """Several plans' demands merged into one deduplicated work list.

    ``tasks`` are unique ``(spec, reps)`` pairs in first-use order —
    two figures only share work when both the spec *and* the
    repetition count agree, otherwise their aggregates would differ.
    """

    plans: Tuple[RunPlan, ...]
    tasks: Tuple[Tuple[PointSpec, int], ...]
    #: sum of the builders' pre-dedup demands
    requested_points: int
    #: after per-figure dedup (sum of plan lengths)
    planned_points: int

    @property
    def unique_points(self) -> int:
        return len(self.tasks)

    @property
    def deduped_points(self) -> int:
        """Points saved by dedup, relative to the builders' raw demand."""
        return self.requested_points - self.unique_points


def dedupe_plans(plans: Sequence[RunPlan]) -> PlanBatch:
    """Merge plans into a cross-figure-deduplicated :class:`PlanBatch`."""
    tasks: Dict[Tuple[PointSpec, int], None] = {}
    requested = 0
    planned = 0
    for plan in plans:
        requested += plan.requested
        planned += len(plan.specs)
        for spec in plan.specs:
            tasks.setdefault((spec, plan.reps))
    return PlanBatch(
        plans=tuple(plans),
        tasks=tuple(tasks),
        requested_points=requested,
        planned_points=planned,
    )
