"""Experiment harness: the paper's figures as runnable experiments.

- :mod:`repro.harness.experiment` — one *point* (a storage deployment +
  a benchmark configuration) run with paper-style repetitions (3 runs,
  mean +/- std, content-hash seeds);
- :mod:`repro.harness.plan` — declarative :class:`RunPlan`\\ s: the
  specs a figure needs plus a pure assembly function, with intra- and
  cross-figure deduplication;
- :mod:`repro.harness.executor` — :class:`SerialExecutor` satisfies
  plans in-process and :func:`execute_plans` pipelines dedup → cache →
  execute → assemble;
- :mod:`repro.harness.resilience` — :class:`ResilientParallelExecutor`
  runs each point in its own forked process, up to ``jobs`` at once
  (bit-identical results to the serial executor), reruns a point whose
  process crashed, survives interrupts, and fails once, like the serial
  executor, when a point raises or hangs;
- :mod:`repro.harness.cache` — content-addressed on-disk
  :class:`ResultCache` with model/schema-version invalidation;
- :mod:`repro.harness.figures` — one planner per paper figure/table
  (F1-F9, the hardware table, and the text-only results), each emitting
  a :class:`~repro.harness.plan.RunPlan` whose assembly yields a
  :class:`~repro.harness.figures.FigureResult` with measured series,
  the paper's reference values, and automated shape checks drawn from
  the paper's artifact-description appendix;
- :mod:`repro.harness.report` — ASCII/markdown rendering used by the
  CLI and EXPERIMENTS.md.

Scale: ``scale="quick"`` shrinks grids and repetitions for CI-speed runs;
``scale="full"`` uses the paper-like grids (see DESIGN.md §6 — op counts
are always scaled down from the paper's 10k since steady-state bandwidth
is ratio-determined).  See docs/EXECUTION.md for the plan/executor/cache
design.
"""

from repro.harness.cache import CacheStats, ResultCache
from repro.harness.executor import (
    ExecutionReport,
    Executor,
    PointTask,
    SerialExecutor,
    execute_plan,
    execute_plans,
)
from repro.harness.experiment import (
    MODEL_VERSION,
    PointResult,
    PointSpec,
    point_seed,
    run_point,
)
from repro.harness.figures import (
    FIGURES,
    FigureResult,
    Series,
    build_figure,
    plan_figure,
)
from repro.harness.plan import PlanBatch, RunPlan, dedupe_plans, make_plan
from repro.harness.report import render_figure, render_markdown

__all__ = [
    "MODEL_VERSION",
    "PointSpec",
    "PointResult",
    "point_seed",
    "run_point",
    "RunPlan",
    "PlanBatch",
    "make_plan",
    "dedupe_plans",
    "Executor",
    "SerialExecutor",
    "PointTask",
    "ExecutionReport",
    "execute_plan",
    "execute_plans",
    "ResultCache",
    "CacheStats",
    "FIGURES",
    "FigureResult",
    "Series",
    "build_figure",
    "plan_figure",
    "render_figure",
    "render_markdown",
]
