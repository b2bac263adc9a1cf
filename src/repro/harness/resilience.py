"""Resilient campaign execution: fan points over worker processes,
checkpoint each one the moment it finishes, and fail a batch once.

A point is a pure function of ``(spec, reps, base_seed)``, so a point
that raises or hangs does the same again on every attempt.  The
parallel executor therefore fails like the serial one: a point runs
once, and its failure stops the batch.  Only a crashed worker is not a
property of the point, and only it is resubmitted.  All of this is
host-side, wrapped *around* the simulations, so modelled numbers stay
a pure function of ``(spec, reps, base_seed)``:

- **Incremental checkpointing** — :class:`ResilientParallelExecutor`
  reports every completed point through ``on_result`` the moment its
  future resolves, so :func:`~repro.harness.executor.execute_plans`
  can ``cache.put`` it immediately.  The result cache is the only
  persistent harness state: re-running a failed or interrupted command
  serves every finished point from the cache with zero recomputation.
- **Fail once** — a point that raises stops new submissions; the
  points already running finish (and are checkpointed), then the
  point's own exception is re-raised, the type and message
  :class:`~repro.harness.executor.SerialExecutor` raises.  A point that
  overruns its host wall-clock deadline (``--point-timeout``) stops the
  batch the same way with :class:`PointFailed`, and its worker is
  killed once the others have drained.
- **Crash containment** — a ``BrokenProcessPool`` (worker SIGKILLed,
  OOM-killed, or segfaulted) respawns the pool and resubmits the points
  it took down.  A point whose worker dies under it while it runs alone
  :data:`CRASH_ATTEMPTS` times stops the batch with :class:`PointFailed`.
- **Graceful interrupt** — the first SIGINT stops submitting and
  drains in-flight work (everything drained is checkpointed); the
  second hard-stops.

Workers run points through the one worker entry the serial executor
uses too, so each result carries its own telemetry record, and
:func:`~repro.harness.executor.execute_plans` merges records in plan
order, so ``--jobs N`` telemetry equals the serial run's even across
crash resubmits.

Deterministic chaos (for CI and tests) is injected via the
``REPRO_HARNESS_CHAOS`` environment variable; see :func:`chaos_plan`.

Wall-clock note: this module intentionally reads the host clock
(deadlines, chaos sleeps) — it is on the simlint SL001 allowlist
because none of it can reach modelled results.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from types import FrameType
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.errors import ConfigError, ReproError
from repro.harness.executor import PointTask, _run_task_observed
from repro.harness.experiment import PointResult, PointSpec, spec_token

__all__ = [
    "ResilientParallelExecutor",
    "ExecutionInterrupted",
    "PointFailed",
    "RunStats",
    "chaos_plan",
    "CHAOS_ENV",
    "CRASH_ATTEMPTS",
]

#: environment variable carrying deterministic fault-injection directives
#: for the harness itself (the modelled systems have their own fault
#: plans — docs/FAULTS.md); see :func:`chaos_plan` for the grammar
CHAOS_ENV = "REPRO_HARNESS_CHAOS"

#: times a point's worker may die under it, while it runs alone, before
#: the point stops the batch
CRASH_ATTEMPTS = 3


class ExecutionInterrupted(ReproError):
    """A batch was interrupted (SIGINT) after draining in-flight work.

    Everything completed before the interrupt has already been
    checkpointed through ``on_result``; re-running the same command
    with the same cache serves those points from it.
    """

    def __init__(self, completed: int, total: int) -> None:
        self.completed = completed
        self.total = total
        super().__init__(
            f"interrupted after {completed} of {total} fresh points "
            f"(completed work is checkpointed)"
        )


class PointFailed(ReproError):
    """A point stopped the batch without raising an exception of its
    own: it overran its host deadline, or its worker kept dying.

    The points that finished before the batch stopped are checkpointed
    through ``on_result``.
    """

    def __init__(self, spec: PointSpec, reason: str) -> None:
        self.token = spec_token(spec)
        super().__init__(f"point {self.token} {reason}")


@dataclass(frozen=True)
class ChaosPlan:
    """Parsed ``REPRO_HARNESS_CHAOS`` directives (all default to off)."""

    kill_substr: Optional[str] = None
    kill_attempts: int = 1
    sleep_substr: Optional[str] = None
    sleep_seconds: float = 0.0
    interrupt_after: Optional[int] = None

    @property
    def active(self) -> bool:
        return (
            self.kill_substr is not None
            or self.sleep_substr is not None
            or self.interrupt_after is not None
        )


def chaos_plan(env: Optional[str] = None) -> ChaosPlan:
    """Parse harness-chaos directives (``;``-separated):

    - ``kill-worker:SUBSTR[:N]`` — a worker about to run a task whose
      spec token contains ``SUBSTR`` SIGKILLs itself, on the first
      ``N`` attempts (default 1: the resubmit succeeds).
    - ``sleep:SUBSTR:SECONDS`` — the worker sleeps (host time) before
      running a matching task — the deterministic stand-in for a hung
      simulation.
    - ``interrupt-after:N`` — the parent behaves as if it received a
      SIGINT after N fresh completions (stop submitting, drain,
      checkpoint, raise :class:`ExecutionInterrupted`).
    """
    raw = os.environ.get(CHAOS_ENV, "") if env is None else env
    plan = ChaosPlan()
    for directive in filter(None, (p.strip() for p in raw.split(";"))):
        name, _, rest = directive.partition(":")
        if name == "kill-worker" and rest:
            substr, _, n = rest.rpartition(":")
            if substr and n.isdigit():
                plan = replace(plan, kill_substr=substr, kill_attempts=int(n))
            else:
                plan = replace(plan, kill_substr=rest, kill_attempts=1)
        elif name == "sleep" and rest:
            substr, _, seconds = rest.rpartition(":")
            try:
                value = float(seconds)
            except ValueError:
                value = math.nan
            if not substr or not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"{CHAOS_ENV}: {directive!r} needs sleep:SUBSTR:SECONDS "
                    f"with SECONDS a finite number >= 0"
                )
            plan = replace(plan, sleep_substr=substr, sleep_seconds=value)
        elif name == "interrupt-after" and rest.isdigit():
            plan = replace(plan, interrupt_after=int(rest))
        else:
            raise ConfigError(
                f"{CHAOS_ENV}: unknown directive {directive!r} "
                f"(known: kill-worker:SUBSTR[:N], sleep:SUBSTR:SECONDS, "
                f"interrupt-after:N)"
            )
    return plan


def _resilient_task(task: PointTask, attempt: int) -> PointResult:
    """Worker-side entry point (module-level, hence picklable).

    ``attempt`` is the zero-based try number — chaos directives key off
    it so a "crash once" scenario crashes exactly once.  Delegates to
    the one worker entry, so the modelled run and its record are
    identical to the serial executor's.
    """
    chaos = chaos_plan()
    if chaos.active:
        token = spec_token(task.spec)
        if (
            chaos.kill_substr is not None
            and chaos.kill_substr in token
            and attempt < chaos.kill_attempts
        ):
            os.kill(os.getpid(), signal.SIGKILL)
        if chaos.sleep_substr is not None and chaos.sleep_substr in token:
            time.sleep(chaos.sleep_seconds)
    return _run_task_observed(task)


@dataclass
class RunStats:
    """Crash accounting for one ``run_tasks`` call."""

    #: points resubmitted because their worker died
    retried: int = 0
    #: pool crashes (BrokenProcessPool)
    crashes: int = 0


@dataclass
class _Pending:
    """Book-keeping for one submitted attempt."""

    index: int
    deadline: Optional[float]
    overdue: bool = False


class ResilientParallelExecutor:
    """Fan tasks out over a process pool, surviving worker crashes and
    interrupts, and failing once like :class:`SerialExecutor`.

    Satisfies the executor protocol (``results[i]`` corresponds to
    ``tasks[i]``).  Modelled results are bit-identical to
    :class:`SerialExecutor`'s — a resubmitted point re-runs the same
    pure function with the same content-hash seed.
    """

    def __init__(self, jobs: int = 2, point_timeout: Optional[float] = None) -> None:
        if jobs < 1:
            raise ConfigError(f"ResilientParallelExecutor needs jobs >= 1, got {jobs}")
        if point_timeout is not None and not (
            math.isfinite(point_timeout) and point_timeout > 0
        ):
            raise ConfigError(
                f"point_timeout must be a finite number > 0, got {point_timeout}"
            )
        self.jobs = jobs
        self.point_timeout = point_timeout
        self.last_stats = RunStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResilientParallelExecutor(jobs={self.jobs}, "
            f"point_timeout={self.point_timeout})"
        )

    # -- main loop -----------------------------------------------------------
    def run_tasks(
        self,
        tasks: Sequence[PointTask],
        on_result: Optional[Callable[[PointTask, PointResult], None]] = None,
    ) -> List[PointResult]:
        self.last_stats = stats = RunStats()
        if not tasks:
            return []
        n = len(tasks)
        results: Dict[int, PointResult] = {}
        attempts = [0] * n  # tries started
        crashes = [0] * n  # times a task's worker died under it alone
        queue: Deque[int] = deque(range(n))
        running: Dict["Future[PointResult]", _Pending] = {}
        pool: Optional[ProcessPoolExecutor] = None
        chaos = chaos_plan()
        sigints = 0
        # the first point failure; once set, nothing more is submitted
        # and it is raised when the in-flight points have drained
        failure: Optional[BaseException] = None
        interrupted = False
        hard_stop = False
        # culprit isolation: a pool crash kills every in-flight attempt,
        # so the culprit cannot be told from its collateral.  After a
        # multi-victim crash the victims' next `solo_pending` attempts
        # run one at a time, so the culprit crashes alone (and is
        # charged alone) while innocents complete.
        solo_pending = 0

        def on_sigint(signum: int, frame: Optional[FrameType]) -> None:
            nonlocal sigints
            sigints += 1

        def ensure_pool() -> ProcessPoolExecutor:
            nonlocal pool
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=min(self.jobs, n))
            return pool

        def teardown_pool(kill: bool) -> None:
            nonlocal pool
            if pool is None:
                return
            if kill:
                procs = getattr(pool, "_processes", None) or {}
                for proc in list(procs.values()):
                    proc.terminate()
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
            running.clear()

        def submit(index: int) -> None:
            fut = ensure_pool().submit(_resilient_task, tasks[index], attempts[index])
            attempts[index] += 1
            deadline = (
                time.monotonic() + self.point_timeout
                if self.point_timeout is not None
                else None
            )
            running[fut] = _Pending(index=index, deadline=deadline)

        in_main_thread = threading.current_thread() is threading.main_thread()
        prev_handler: Any = None
        if in_main_thread:
            prev_handler = signal.signal(signal.SIGINT, on_sigint)
        try:
            while True:
                if sigints >= 2:
                    hard_stop = True
                    break
                if sigints >= 1:
                    interrupted = True
                # submission window = jobs: a submitted task starts (nearly)
                # immediately, so per-point deadlines measure actual runtime,
                # a stop leaves queued work unsubmitted, and a pool crash
                # dooms at most `jobs` attempts
                if failure is None and not interrupted:
                    window = 1 if solo_pending > 0 else self.jobs
                    while queue and len(running) < window:
                        submit(queue.popleft())
                # an overdue attempt is abandoned, not waited for: its
                # worker is killed with the pool once the rest drain
                live = {fut: p for fut, p in running.items() if not p.overdue}
                if not live:
                    break
                wait_timeout = 0.1
                deadlines = [p.deadline for p in live.values() if p.deadline is not None]
                if deadlines:
                    wait_timeout = min(
                        wait_timeout, max(0.0, min(deadlines) - time.monotonic())
                    )
                done, _ = wait(set(live), timeout=wait_timeout, return_when=FIRST_COMPLETED)
                crash_victims: List[int] = []
                for fut in sorted(done, key=lambda f: running[f].index):
                    index = running.pop(fut).index
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        crash_victims.append(index)
                        continue
                    except Exception as exc:  # simlint: disable=SL006 -- a point's own exception stops the batch and is re-raised after the in-flight points drain
                        if failure is None:
                            failure = exc
                        continue
                    results[index] = result
                    solo_pending = max(0, solo_pending - 1)
                    if on_result is not None:
                        on_result(tasks[index], result)
                    if (
                        chaos.interrupt_after is not None
                        and len(results) >= chaos.interrupt_after
                    ):
                        interrupted = True
                if crash_victims:
                    # the pool is broken: every in-flight attempt died with it
                    stats.crashes += 1
                    victims = sorted(
                        set(crash_victims) | {p.index for p in running.values()}
                    )
                    teardown_pool(kill=False)
                    if failure is not None or interrupted:
                        continue  # stopping: nothing is resubmitted
                    if len(victims) > 1:
                        # can't tell the culprit from its collateral:
                        # run each victim alone, before anything else
                        queue.extendleft(reversed(victims))
                        solo_pending = len(victims)
                    else:
                        # it crashed alone: it is the culprit
                        (index,) = victims
                        crashes[index] += 1
                        solo_pending = max(0, solo_pending - 1)
                        if crashes[index] >= CRASH_ATTEMPTS:
                            failure = PointFailed(
                                tasks[index].spec,
                                f"lost its worker on {CRASH_ATTEMPTS} attempts "
                                f"(BrokenProcessPool)",
                            )
                            continue
                        queue.append(index)  # queued innocents run first
                    stats.retried += len(victims)
                    continue
                if self.point_timeout is not None:
                    now = time.monotonic()
                    for p in sorted(running.values(), key=lambda p: p.index):
                        if p.deadline is not None and p.deadline <= now and not p.overdue:
                            p.overdue = True
                            if failure is None:
                                failure = PointFailed(
                                    tasks[p.index].spec,
                                    f"overran --point-timeout={self.point_timeout}s",
                                )
        finally:
            if in_main_thread:
                signal.signal(signal.SIGINT, prev_handler)
            # anything still running is hung or abandoned: kill it
            teardown_pool(kill=bool(running))
        if hard_stop:
            raise KeyboardInterrupt
        if failure is not None:
            raise failure
        if interrupted:
            raise ExecutionInterrupted(completed=len(results), total=n)
        return [results[i] for i in range(n)]
