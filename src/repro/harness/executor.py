"""Executors: satisfy a plan's point demand, serially or in parallel.

This module holds the executor protocol, the in-process
:class:`SerialExecutor`, the worker-side entry point and the
:func:`execute_plans` pipeline; the process-pool executor is
:class:`repro.harness.resilience.ResilientParallelExecutor`.

The contract every executor honours: **the modelled numbers are a pure
function of the task list**.  Per-point seeds come from
:func:`repro.harness.experiment.point_seed` (a stable content hash), so
running the same tasks serially, across N worker processes, in any
order, yields bit-identical :class:`PointResult`\\ s — the executor only
decides *where and when* the simulations run, never *what they
compute*.

Observability: every executor observes a point the same way, through
the one worker entry :func:`_run_task_observed`.  A task that carries
:class:`Instruments` runs under a private :class:`repro.obs.Observability`
with those instruments, and the finalized :meth:`dump
<repro.obs.Observability.dump>` travels with the result as its
``record``.  :func:`execute_plans` merges each figure's records in
plan order, so telemetry is a function of the plan alone, never of the
job count or completion order.

Wall-clock note: this module intentionally reads the host clock
(``time.perf_counter``) to report executor cost — it is on the simlint
SL001 allowlist precisely because this timing wraps *around* the
simulations and can never leak into modelled results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import repro.obs as obs_mod
from repro.errors import ConfigError
from repro.harness.cache import ResultCache, point_key
from repro.harness.experiment import PointResult, PointSpec, run_point, spec_token
from repro.harness.plan import PlanBatch, RunPlan, dedupe_plans

if TYPE_CHECKING:  # pragma: no cover - typing only (figures imports us)
    from repro.harness.figures import FigureResult

#: per-completion callback: ``(task, result)`` the moment a point finishes
ResultCallback = Callable[["PointTask", PointResult], None]

__all__ = [
    "Instruments",
    "PointTask",
    "Executor",
    "SerialExecutor",
    "ExecutionReport",
    "execute_plan",
    "execute_plans",
]


@dataclass(frozen=True)
class Instruments:
    """The instruments a point is observed with (picklable: it rides a
    :class:`PointTask` into a worker process)."""

    timeline: Optional[obs_mod.TimelineConfig] = None
    profile: bool = False
    ledger: bool = False

    def observability(self) -> obs_mod.Observability:
        """A fresh, empty Observability with these instruments."""
        return obs_mod.Observability(
            timeline=self.timeline,
            profile=obs_mod.ProfileRecorder() if self.profile else None,
            ledger=obs_mod.OpLedger() if self.ledger else None,
        )


@dataclass(frozen=True)
class PointTask:
    """One unit of executor work: a spec plus its aggregation params,
    and the instruments to observe it with (None: unobserved)."""

    spec: PointSpec
    reps: int
    base_seed: int = 0
    instruments: Optional[Instruments] = None


class Executor(Protocol):
    """Anything that can turn tasks into results, order-preserving."""

    #: worker-process count (1 for in-process executors); reported in
    #: the :class:`ExecutionReport` next to the batch wall time
    jobs: int

    def run_tasks(
        self,
        tasks: Sequence[PointTask],
        on_result: Optional[ResultCallback] = None,
    ) -> List[Optional[PointResult]]:
        """Execute every task; ``result[i]`` corresponds to ``tasks[i]``.

        ``on_result`` is invoked once per completed task, the moment the
        result exists — the checkpointing hook.  A slot may be ``None``
        only for resilient executors (quarantined/interrupted points).
        """
        ...


class SerialExecutor:
    """In-process, in-order execution through the one worker entry."""

    jobs = 1

    def run_tasks(
        self,
        tasks: Sequence[PointTask],
        on_result: Optional[ResultCallback] = None,
    ) -> List[Optional[PointResult]]:
        results: List[Optional[PointResult]] = []
        for t in tasks:
            result = _run_task_observed(t)
            if on_result is not None:
                on_result(t, result)
            results.append(result)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


def _run_task_observed(task: PointTask) -> PointResult:
    """The one worker entry, for every executor (module-level, hence
    picklable).

    Explicitly controls the ambient observability: the point runs under
    a private Observability with the task's instruments, or under none,
    never under the caller's (a forked child would otherwise mutate a
    copy nobody reads).  The private Observability's finalized dump
    becomes the result's ``record``.
    """
    obs = task.instruments.observability() if task.instruments else None
    with obs_mod.activated(obs):
        result = run_point(task.spec, reps=task.reps, base_seed=task.base_seed)
    if obs is not None:
        obs.finalize()
        result.record = obs.dump()
    return result


@dataclass
class ExecutionReport:
    """What satisfying a batch of plans cost, and where the work went."""

    jobs: int = 1
    requested_points: int = 0
    planned_points: int = 0
    unique_points: int = 0
    executed_points: int = 0
    wall_seconds: float = 0.0
    #: resilience accounting (all zero for plain executors / clean runs)
    retried: int = 0
    timed_out: int = 0
    quarantined: int = 0

    @property
    def deduped_points(self) -> int:
        return self.requested_points - self.unique_points

    def summary(self) -> str:
        parts = [
            f"{self.unique_points} unique points "
            f"({self.deduped_points} deduplicated of {self.requested_points} requested)",
            f"{self.executed_points} executed with jobs={self.jobs} "
            f"in {self.wall_seconds:.1f}s",
        ]
        if self.retried or self.timed_out or self.quarantined:
            parts.append(
                f"resilience: retried={self.retried} timed-out={self.timed_out} "
                f"quarantined={self.quarantined}"
            )
        return "; ".join(parts)


def execute_plans(
    plans: Sequence[RunPlan],
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    base_seed: int = 0,
    *,
    allow_partial: bool = False,
    quarantine_path: Optional[Path] = None,
) -> Tuple[List["FigureResult"], ExecutionReport]:
    """Satisfy several plans at once and assemble their figures.

    Pipeline: dedupe points across figures -> serve what the cache
    holds -> hand the misses to the executor -> checkpoint each fresh
    result the moment it completes -> run each plan's pure assembly.
    Returns the figures (plan order) and an :class:`ExecutionReport`.

    Under an ambient :class:`repro.obs.Observability` the build is
    observed: every point runs with that Observability's
    :class:`Instruments` and carries its own record, and each figure's
    ``obs`` merges its plan's records in plan-spec order (a point shared
    by several figures is merged into each).  For a single plan the
    merge goes into the ambient Observability itself.  A cached result
    carries no record, so an observed build serves nothing from the
    cache (it still writes fresh results to it).

    Every fresh result is ``cache.put`` per-completion (through the
    executor's ``on_result`` hook), so a run that dies mid-batch keeps
    everything it finished, and re-running it serves those points from
    the cache.  The :class:`~repro.harness.resilience.Quarantine` lives
    in ``quarantine_path``, else in ``<cache root>/quarantine.json``
    (with neither there is none): points already in it are skipped and
    reported, and points that exhaust their retries are added to it.
    ``allow_partial`` assembles figures with explicitly-NaN holes for
    missing points instead of raising.
    """
    executor = executor if executor is not None else SerialExecutor()
    batch: PlanBatch = dedupe_plans(plans)
    ambient = obs_mod.current()
    instruments = None if ambient is None else Instruments(
        ambient.timeline_config, ambient.profile is not None, ambient.ledger is not None
    )
    report = ExecutionReport(
        jobs=executor.jobs,
        requested_points=batch.requested_points,
        planned_points=batch.planned_points,
        unique_points=batch.unique_points,
    )
    if quarantine_path is None and cache is not None:
        quarantine_path = cache.root / "quarantine.json"
    quarantine = None
    if quarantine_path is not None:
        # lazy import: resilience builds on this module, never the reverse
        from repro.harness.resilience import Quarantine

        quarantine = Quarantine(quarantine_path)
    pool: Dict[Tuple[PointSpec, int], PointResult] = {}
    misses: List[PointTask] = []
    quarantined_tokens: List[str] = []
    for spec, reps in batch.tasks:
        if quarantine is not None and quarantine.has(point_key(spec, reps, base_seed)):
            report.quarantined += 1
            quarantined_tokens.append(spec_token(spec))
            continue
        cached = (
            cache.get(spec, reps, base_seed)
            if cache is not None and instruments is None
            else None
        )
        if cached is not None:
            pool[(spec, reps)] = cached
        else:
            misses.append(PointTask(spec, reps, base_seed, instruments))

    def checkpoint(task: PointTask, result: PointResult) -> None:
        pool[(task.spec, task.reps)] = result
        if cache is not None:
            cache.put(result, base_seed=base_seed)

    t0 = time.perf_counter()
    try:
        fresh = executor.run_tasks(misses, on_result=checkpoint)
    finally:
        report.wall_seconds = time.perf_counter() - t0
    report.executed_points = sum(1 for result in fresh if result is not None)
    stats = getattr(executor, "last_stats", None)
    if stats is not None:
        report.retried += stats.retried
        report.timed_out += stats.timed_out
        report.quarantined += stats.quarantined
    for failure in getattr(executor, "last_failures", None) or []:
        token = spec_token(failure.task.spec)
        quarantined_tokens.append(token)
        if quarantine is not None:
            quarantine.add(
                key=point_key(failure.task.spec, failure.task.reps, base_seed),
                token=token,
                reps=failure.task.reps,
                base_seed=base_seed,
                attempts=failure.attempts,
                reason=failure.reason,
                error=failure.error,
                traceback=failure.traceback,
            )
    figures: List["FigureResult"] = []
    for plan in batch.plans:
        missing = [spec for spec in plan.specs if (spec, plan.reps) not in pool]
        # the figure's telemetry: its points' records in plan-spec order
        obs = None
        if ambient is not None and instruments is not None:
            obs = ambient if len(batch.plans) == 1 else instruments.observability()
        for spec in plan.specs:
            result = pool.get((spec, plan.reps))
            if obs is not None and result is not None and result.record is not None:
                obs.absorb(result.record)
        if missing and allow_partial:
            from repro.harness.resilience import hole_result

            results = {
                spec: pool.get((spec, plan.reps)) or hole_result(spec, plan.reps)
                for spec in plan.specs
            }
            figure = plan.assemble(results)
            hole_note = (
                f"PARTIAL: {len(missing)} of {len(plan.specs)} points missing "
                f"(NaN holes): " + "; ".join(spec_token(s) for s in missing)
            )
            notes = f"{figure.notes}\n{hole_note}" if figure.notes else hole_note
            figures.append(replace(figure, notes=notes, obs=obs))
        elif missing:
            names = ", ".join(spec_token(s) for s in missing[:3])
            more = f" (+{len(missing) - 3} more)" if len(missing) > 3 else ""
            cause = (
                " — quarantined after repeated failures"
                if quarantined_tokens
                else ""
            )
            raise ConfigError(
                f"plan {plan.fig_id!r}: {len(missing)} of {len(plan.specs)} "
                f"point results missing{cause}: {names}{more}; re-run with "
                f"--allow-partial to assemble the figure with explicit holes"
            )
        else:
            results = {spec: pool[(spec, plan.reps)] for spec in plan.specs}
            figures.append(replace(plan.assemble(results), obs=obs))
    return figures, report


def execute_plan(
    plan: RunPlan,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    base_seed: int = 0,
) -> Tuple["FigureResult", ExecutionReport]:
    """Single-plan convenience wrapper around :func:`execute_plans`."""
    figures, report = execute_plans(
        [plan],
        executor=executor,
        cache=cache,
        base_seed=base_seed,
    )
    return figures[0], report
