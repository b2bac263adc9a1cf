"""Resilient campaign execution: ride through worker crashes, hangs
and interrupts without losing finished work.

The modelled systems already survive component failure (PR 5 gave the
simulated clients retry/failover); this module gives the *harness* the
same property.  Four mechanisms, all host-side, all wrapped *around*
the simulations so modelled numbers stay a pure function of
``(spec, reps, base_seed)``:

- **Incremental checkpointing** — :class:`ResilientParallelExecutor`
  reports every completed point through ``on_result`` the moment its
  future resolves, so :func:`~repro.harness.executor.execute_plans`
  can ``cache.put`` it immediately.  The result cache is the one
  checkpoint: re-running an interrupted command serves every finished
  point from the cache with zero recomputation.
- **Per-point timeout + bounded retry** — each task gets a host
  wall-clock deadline (``--point-timeout``).  An overdue task's worker
  is terminated, innocent in-flight tasks are resubmitted without
  penalty, and the overdue task retries on a fresh worker with
  exponential backoff from :data:`RETRY_BACKOFF`, at most
  ``--max-retries`` extra attempts.
- **Crash containment** — a ``BrokenProcessPool`` (worker SIGKILLed,
  OOM-killed, or segfaulted) respawns the pool and resubmits the
  in-flight tasks instead of aborting the batch.
- **Quarantine & graceful interrupt** — a task that exhausts its
  attempts lands in a structured :class:`Quarantine` file (spec token,
  attempts, exception, traceback) and the batch carries on.  The first
  SIGINT stops submitting and drains in-flight work (everything drained
  is checkpointed); the second hard-stops.

Workers run points through the one worker entry the serial executor
uses too, so each result carries its own telemetry record; a retried
point returns exactly one result — the successful attempt's — and
:func:`~repro.harness.executor.execute_plans` merges records in plan
order, so ``--jobs N`` telemetry equals the serial run's even across
retries.

Deterministic chaos (for CI and tests) is injected via the
``REPRO_HARNESS_CHAOS`` environment variable; see :func:`chaos_plan`.

Wall-clock note: this module intentionally reads the host clock
(deadlines, backoff sleeps) — it is on the simlint SL001 allowlist
because none of it can reach modelled results.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import signal
import threading
import time
import traceback as traceback_mod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from types import FrameType
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, ReproError
from repro.harness.executor import PointTask, _run_task_observed
from repro.harness.experiment import PointResult, PointSpec, spec_token

__all__ = [
    "ResilientParallelExecutor",
    "ExecutionInterrupted",
    "RunStats",
    "TaskFailure",
    "Quarantine",
    "hole_result",
    "chaos_plan",
    "CHAOS_ENV",
    "RETRY_BACKOFF",
]

#: environment variable carrying deterministic fault-injection directives
#: for the harness itself (the modelled systems have their own fault
#: plans — docs/FAULTS.md); see :func:`chaos_plan` for the grammar
CHAOS_ENV = "REPRO_HARNESS_CHAOS"

#: host seconds before a point's first retry, doubled per further attempt
RETRY_BACKOFF = 0.25


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
      ``N`` attempts (default 1: the retry succeeds).
    - ``sleep:SUBSTR:SECONDS`` — the worker sleeps (host time) before
      running a matching task, on every attempt — the deterministic
      stand-in for a hung simulation.
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
    """Resilience accounting for one ``run_tasks`` call."""

    retried: int = 0
    timed_out: int = 0
    quarantined: int = 0
    crashes: int = 0
    interrupted: bool = False


@dataclass(frozen=True)
class TaskFailure:
    """A task that exhausted its attempt budget (executor-side record;
    :func:`~repro.harness.executor.execute_plans` persists it into the
    :class:`Quarantine` file)."""

    index: int
    task: PointTask
    attempts: int
    reason: str  # "error" | "timeout" | "worker-crash"
    error: str
    traceback: str


class Quarantine:
    """Structured record of tasks that exhausted their retry budget.

    JSON document keyed by the point's cache key; each entry round-trips
    the spec token plus attempts/exception/traceback, so a human (or a
    later tool) can re-run exactly the failing point.
    """

    SCHEMA = 1

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.entries: Dict[str, Dict[str, Any]] = {}
        if self.path.exists():
            try:
                with open(self.path) as fh:
                    doc = json.load(fh)
                entries = doc.get("entries", {})  # AttributeError: not an object
                if not isinstance(entries, dict):
                    raise ValueError(f"quarantine entries are a {type(entries).__name__}")
                if doc.get("schema") == self.SCHEMA:
                    self.entries = dict(entries)
            except (OSError, ValueError, AttributeError):
                self.entries = {}  # corrupt quarantine: start fresh

    def has(self, key: str) -> bool:
        return key in self.entries

    def add(
        self,
        key: str,
        token: str,
        reps: int,
        base_seed: int,
        attempts: int,
        reason: str,
        error: str,
        traceback: str = "",
    ) -> None:
        self.entries[key] = {
            "spec_token": token,
            "reps": reps,
            "base_seed": base_seed,
            "attempts": attempts,
            "reason": reason,
            "error": error,
            "traceback": traceback,
        }
        self.save()

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"schema": self.SCHEMA, "entries": self.entries}
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path)

    def __len__(self) -> int:
        return len(self.entries)


def hole_result(spec: PointSpec, reps: int) -> PointResult:
    """An explicitly-NaN placeholder for a missing point.

    Used by ``--allow-partial`` assembly: the figure keeps its shape,
    the hole is unmistakable in every series, and the figure's notes
    name the missing specs.
    """
    nan = float("nan")
    return PointResult(
        spec=spec,
        write_bw=(nan, nan),
        read_bw=(nan, nan),
        write_iops=(nan, nan),
        read_iops=(nan, nan),
        reps=reps,
    )


@dataclass
class _Pending:
    """Book-keeping for one submitted attempt."""

    index: int
    deadline: Optional[float]


class ResilientParallelExecutor:
    """Fan tasks out over a process pool, surviving worker crashes,
    hung points and interrupts.

    Satisfies the executor protocol (``results[i]`` corresponds to
    ``tasks[i]``); a slot is ``None`` only when that task exhausted its
    retry budget (details in :attr:`last_failures`) or the run was
    interrupted before it could execute.  Modelled results are
    bit-identical to :class:`SerialExecutor`'s — retries re-run the same
    pure function with the same content-hash seed.
    """

    def __init__(
        self,
        jobs: int = 2,
        point_timeout: Optional[float] = None,
        max_retries: int = 2,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"ResilientParallelExecutor needs jobs >= 1, got {jobs}")
        if max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
        if point_timeout is not None and not (
            math.isfinite(point_timeout) and point_timeout > 0
        ):
            raise ConfigError(
                f"point_timeout must be a finite number > 0, got {point_timeout}"
            )
        self.jobs = jobs
        self.point_timeout = point_timeout
        self.max_retries = max_retries
        self.last_stats = RunStats()
        self.last_failures: List[TaskFailure] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResilientParallelExecutor(jobs={self.jobs}, "
            f"point_timeout={self.point_timeout}, max_retries={self.max_retries})"
        )

    # -- main loop -----------------------------------------------------------
    def run_tasks(
        self,
        tasks: Sequence[PointTask],
        on_result: Optional[Callable[[PointTask, PointResult], None]] = None,
    ) -> List[Optional[PointResult]]:
        self.last_stats = stats = RunStats()
        self.last_failures = failures = []
        if not tasks:
            return []
        n = len(tasks)
        results: List[Optional[PointResult]] = [None] * n
        settled = [False] * n  # success or quarantine: will never produce more work
        attempts = [0] * n  # tries started
        queue: Deque[int] = deque(range(n))
        retry_heap: List[Tuple[float, int]] = []  # (host time ready, index)
        running: Dict["Future[PointResult]", _Pending] = {}
        pool: Optional[ProcessPoolExecutor] = None
        completed = 0
        chaos = chaos_plan()
        sigints = 0
        # culprit isolation: a pool crash kills every in-flight attempt,
        # so a task that crashes its worker on every try would keep
        # taking innocent co-scheduled tasks down with it (and eat their
        # retry budgets).  After a multi-victim crash the next
        # `solo_pending` attempts run one at a time, so the culprit
        # crashes alone (and is charged alone) while innocents complete.
        solo_pending = 0

        def on_sigint(signum: int, frame: Optional[FrameType]) -> None:
            nonlocal sigints
            sigints += 1

        def max_attempts() -> int:
            return 1 + self.max_retries

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

        def budget_fail(index: int, reason: str, error: str, tb: str) -> None:
            nonlocal solo_pending
            if attempts[index] >= max_attempts():
                solo_pending = max(0, solo_pending - 1)
                stats.quarantined += 1
                settled[index] = True
                failures.append(
                    TaskFailure(
                        index=index,
                        task=tasks[index],
                        attempts=attempts[index],
                        reason=reason,
                        error=error,
                        traceback=tb,
                    )
                )
            else:
                stats.retried += 1
                ready = time.monotonic() + RETRY_BACKOFF * (
                    2 ** (attempts[index] - 1)
                )
                heapq.heappush(retry_heap, (ready, index))

        in_main_thread = threading.current_thread() is threading.main_thread()
        prev_handler: Any = None
        if in_main_thread:
            prev_handler = signal.signal(signal.SIGINT, on_sigint)
        soft_stop = False
        hard_stop = False
        try:
            while queue or running or retry_heap:
                if sigints >= 2:
                    hard_stop = True
                    break
                if sigints >= 1:
                    soft_stop = True
                if soft_stop:
                    stats.interrupted = True
                    queue.clear()
                    retry_heap.clear()
                    if not running:
                        break
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    _, index = heapq.heappop(retry_heap)
                    queue.append(index)
                # submission window = jobs: a submitted task starts (nearly)
                # immediately, so per-point deadlines measure actual runtime,
                # a SIGINT leaves queued work unsubmitted, and a pool crash
                # dooms at most `jobs` attempts
                window = 1 if solo_pending > 0 else self.jobs
                while queue and not soft_stop and len(running) < window:
                    submit(queue.popleft())
                if not running:
                    if retry_heap:
                        time.sleep(min(0.05, max(0.0, retry_heap[0][0] - now)) or 0.005)
                    continue
                wait_timeout = 0.1
                deadlines = [p.deadline for p in running.values() if p.deadline is not None]
                if deadlines:
                    wait_timeout = min(wait_timeout, max(0.0, min(deadlines) - now))
                done, _ = wait(
                    set(running), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )
                crash_victims: List[int] = []
                for fut in sorted(done, key=lambda f: running[f].index):
                    index = running.pop(fut).index
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        stats.crashes += 1
                        crash_victims.append(index)
                        continue
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as exc:  # simlint: disable=SL006 -- any worker exception becomes a retry/quarantine entry instead of aborting the batch
                        error = f"{type(exc).__name__}: {exc}"
                        tb = "".join(
                            traceback_mod.format_exception(
                                type(exc), exc, exc.__traceback__
                            )
                        )
                        budget_fail(index, "error", error, tb)
                        continue
                    results[index] = result
                    settled[index] = True
                    solo_pending = max(0, solo_pending - 1)
                    completed += 1
                    if on_result is not None:
                        on_result(tasks[index], result)
                    if (
                        chaos.interrupt_after is not None
                        and completed >= chaos.interrupt_after
                    ):
                        soft_stop = True
                if crash_victims:
                    # the pool is broken: every in-flight attempt died with it
                    crash_victims.extend(p.index for p in running.values())
                    teardown_pool(kill=False)
                    victims = sorted(set(crash_victims))
                    for index in victims:
                        budget_fail(
                            index,
                            "worker-crash",
                            "worker process died (BrokenProcessPool); "
                            "task resubmitted to a fresh pool",
                            "",
                        )
                    if len(victims) > 1:
                        # can't tell the culprit from its collateral:
                        # isolate the survivors' next attempts
                        solo_pending = sum(
                            1 for index in victims if not settled[index]
                        )
                    continue
                if self.point_timeout is not None and running:
                    now = time.monotonic()
                    overdue = sorted(
                        p.index
                        for p in running.values()
                        if p.deadline is not None and p.deadline <= now
                    )
                    if overdue:
                        innocents = sorted(
                            p.index for p in running.values() if p.index not in overdue
                        )
                        # a running future cannot be cancelled: terminate the
                        # workers, then resubmit — overdue tasks on their next
                        # attempt, innocents without touching their budget
                        teardown_pool(kill=True)
                        for index in innocents:
                            attempts[index] -= 1
                            queue.append(index)
                        for index in overdue:
                            stats.timed_out += 1
                            budget_fail(
                                index,
                                "timeout",
                                f"point exceeded --point-timeout="
                                f"{self.point_timeout}s (attempt {attempts[index]})",
                                "",
                            )
        finally:
            if in_main_thread:
                signal.signal(signal.SIGINT, prev_handler)
            teardown_pool(kill=hard_stop or stats.interrupted)
        if hard_stop:
            raise KeyboardInterrupt
        if stats.interrupted:
            raise ExecutionInterrupted(completed=completed, total=n)
        return results
