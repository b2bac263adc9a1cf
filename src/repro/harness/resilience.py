"""Resilient campaign execution: run each point in its own process,
checkpoint each one the moment it finishes, and fail a batch once.

A point is a pure function of ``(spec, reps, base_seed)``, so a point
that raises or hangs does the same again on every attempt.  The
parallel executor therefore fails like the serial one: a point runs
once, and its failure stops the batch.  Only a process that dies
without reporting is not a property of the point, and only its point
is rerun.  All of this is host-side, wrapped *around* the simulations,
so modelled numbers stay a pure function of ``(spec, reps,
base_seed)``:

- **One process per point** — :class:`ResilientParallelExecutor` forks
  a fresh child for every point attempt (at most ``jobs`` alive at
  once), and the child sends ``(ok, result-or-exception)`` back over a
  one-way pipe.  Nothing is shared between points, so a crash, a
  timeout or a kill touches exactly one point.  A child dies with its
  parent, so a killed CLI leaves no point running.
- **Incremental checkpointing** — every completed point is reported
  through ``on_result`` the moment its child reports, so
  :func:`~repro.harness.executor.execute_plans` can ``cache.put`` it
  immediately.  The result cache is the only persistent harness state:
  re-running a failed or interrupted command serves every finished
  point from the cache with zero recomputation.
- **Fail once** — a point that raises stops new starts; the points
  already running finish (and are checkpointed), then the point's own
  exception is re-raised, the type and message
  :class:`~repro.harness.executor.SerialExecutor` raises.  A point that
  overruns its host wall-clock deadline (``--point-timeout``) has its
  child killed and stops the batch the same way with
  :class:`PointFailed`.
- **Crash containment** — a child that ends without reporting
  (SIGKILLed, OOM-killed, or segfaulted) is its own point's crash and
  nobody else's; the point is rerun, and its :data:`CRASH_ATTEMPTS`-th
  crash stops the batch with :class:`PointFailed`.
- **Graceful interrupt** — children ignore SIGINT.  The first SIGINT
  stops starting points and drains those in flight (everything drained
  is checkpointed); the second kills every child and raises
  ``KeyboardInterrupt``.

Children run points through the one worker entry the serial executor
uses too, so each result carries its own telemetry record, and
:func:`~repro.harness.executor.execute_plans` merges records in plan
order, so ``--jobs N`` telemetry equals the serial run's even across
crash reruns.

Deterministic chaos (for CI and tests) is injected via the
``REPRO_HARNESS_CHAOS`` environment variable; see :func:`chaos_plan`.

Wall-clock note: this module intentionally reads the host clock
(deadlines, chaos sleeps) — it is on the simlint SL001 allowlist
because none of it can reach modelled results.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from types import FrameType
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

# every point draws from numpy.random, which numpy imports lazily: import
# it once here, in the process the points are forked from, not per child
import numpy.random  # noqa: F401

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

#: times a point's process may die under it before the point stops the
#: batch
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
    own: it overran its host deadline, or its process kept dying.

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


def _count(text: str, directive: str) -> int:
    """A directive's count: an ASCII decimal N >= 1, else a ConfigError."""
    if text.isascii() and text.isdigit() and int(text) >= 1:
        return int(text)
    raise ConfigError(
        f"{CHAOS_ENV}: {directive!r} needs a count N written as an "
        f"ASCII decimal >= 1"
    )


def chaos_plan(env: Optional[str] = None) -> ChaosPlan:
    """Parse harness-chaos directives (``;``-separated):

    - ``kill-worker:SUBSTR[:N]`` — the process about to run a task whose
      spec token contains ``SUBSTR`` SIGKILLs itself, on the first
      ``N`` attempts (default 1: the rerun succeeds).  The text after
      the last colon is ``N`` unless it holds a letter or a quote.
    - ``sleep:SUBSTR:SECONDS`` — the process sleeps (host time) before
      running a matching task — the deterministic stand-in for a hung
      simulation.
    - ``interrupt-after:N`` — the parent behaves as if it received a
      SIGINT after N fresh completions (stop starting points, drain,
      checkpoint, raise :class:`ExecutionInterrupted`).

    Every count ``N`` is an ASCII decimal >= 1 and every ``SUBSTR`` is
    non-empty.
    """
    raw = os.environ.get(CHAOS_ENV, "") if env is None else env
    plan = ChaosPlan()
    for directive in filter(None, (p.strip() for p in raw.split(";"))):
        name, _, rest = directive.partition(":")
        if name == "kill-worker" and rest:
            substr, sep, n = rest.rpartition(":")
            if sep and not any(c.isalpha() or c == "'" for c in n):
                if not substr:
                    raise ConfigError(
                        f"{CHAOS_ENV}: {directive!r} needs kill-worker:SUBSTR[:N] "
                        f"with SUBSTR not empty"
                    )
                plan = replace(
                    plan, kill_substr=substr, kill_attempts=_count(n, directive)
                )
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
        elif name == "interrupt-after" and rest:
            plan = replace(plan, interrupt_after=_count(rest, directive))
        else:
            raise ConfigError(
                f"{CHAOS_ENV}: unknown directive {directive!r} "
                f"(known: kill-worker:SUBSTR[:N], sleep:SUBSTR:SECONDS, "
                f"interrupt-after:N)"
            )
    return plan


def _resilient_task(task: PointTask, attempt: int) -> PointResult:
    """Run one point attempt, applying the chaos directives first.

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


#: Linux ``prctl`` option: the signal the kernel sends when the parent dies
_PR_SET_PDEATHSIG = 1


def _die_with_parent(parent_pid: int) -> None:
    """Have the kernel SIGKILL this process when its parent dies, and
    end at once if the parent already died between fork and this call.

    Without it a SIGTERM or SIGKILL to the parent leaves its point
    processes running on under pid 1.  Where ``prctl`` is missing (not
    Linux) only the parent-pid check remains.
    """
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass
    if os.getppid() != parent_pid:
        os._exit(1)


def _point_child(conn: Connection, task: PointTask, attempt: int, parent_pid: int) -> None:
    """A point's forked process: run the attempt, send ``(ok, value)``
    once, and end without running any of the parent's exit handlers.

    The process dies with ``parent_pid`` (see :func:`_die_with_parent`).
    A point's own exception is sent with its traceback as a note (where
    the Python has ``add_note``), so the parent re-raises the same type
    and message and still shows where it was raised.
    """
    _die_with_parent(parent_pid)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        try:
            message: Tuple[bool, Any] = (True, _resilient_task(task, attempt))
        except BaseException as exc:  # simlint: disable=SL006 -- the parent re-raises it, as the serial executor would
            if hasattr(exc, "add_note"):  # Python >= 3.11
                exc.add_note(f"raised in the point's process:\n{traceback.format_exc()}")
            message = (False, exc)
        try:
            conn.send(message)
        except Exception as exc:  # simlint: disable=SL006 -- an unpicklable result or exception is reported as the pickling error
            conn.send((False, exc))
    finally:
        os._exit(0)


@dataclass
class RunStats:
    """Crash accounting for one ``run_tasks`` call."""

    #: points rerun because their process died
    retried: int = 0
    #: processes that ended without reporting a result
    crashes: int = 0


class ResilientParallelExecutor:
    """Run each task in its own forked process, at most ``jobs`` at
    once, surviving crashes and interrupts, and failing once like
    :class:`SerialExecutor`.

    Satisfies the executor protocol (``results[i]`` corresponds to
    ``tasks[i]``).  Modelled results are bit-identical to
    :class:`SerialExecutor`'s — a rerun point re-runs the same pure
    function with the same content-hash seed.
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
        # times a task's process died under it: also its next attempt's
        # zero-based number, since only a crash reruns a point
        crashes = [0] * n
        queue: Deque[int] = deque(range(n))
        # read end of each live child's pipe -> (task index, child, deadline)
        running: Dict[Connection, Tuple[int, BaseProcess, float]] = {}
        ctx = multiprocessing.get_context("fork")
        chaos = chaos_plan()
        sigints = 0
        # the first point failure; once set, nothing more is started and
        # it is raised when the in-flight points have drained
        failure: Optional[BaseException] = None
        interrupted = False

        def on_sigint(signum: int, frame: Optional[FrameType]) -> None:
            nonlocal sigints
            sigints += 1

        def start(index: int) -> None:
            recv_end, send_end = ctx.Pipe(duplex=False)
            child = ctx.Process(
                target=_point_child,
                args=(send_end, tasks[index], crashes[index], os.getpid()),
                daemon=True,
            )
            child.start()
            # the child holds the only write end, so its death is EOF here
            send_end.close()
            deadline = time.monotonic() + (self.point_timeout or math.inf)
            running[recv_end] = (index, child, deadline)

        def reap(conn: Connection, kill: bool) -> Tuple[int, Optional[int]]:
            index, child, _ = running.pop(conn)
            if kill:
                child.kill()
            child.join()
            conn.close()
            return index, child.exitcode

        in_main_thread = threading.current_thread() is threading.main_thread()
        prev_handler: Any = None
        if in_main_thread:
            prev_handler = signal.signal(signal.SIGINT, on_sigint)
        try:
            while sigints < 2:
                if sigints:
                    interrupted = True
                if failure is None and not interrupted:
                    while queue and len(running) < self.jobs:
                        start(queue.popleft())
                if not running:
                    break
                soonest = min(deadline for _, _, deadline in running.values())
                ready = wait(list(running), min(0.1, max(0.0, soonest - time.monotonic())))
                for conn in sorted(ready, key=lambda c: running[c][0]):
                    if sigints >= 2:
                        break  # a hard stop takes no more results
                    try:
                        ok, value = conn.recv()
                    except (EOFError, OSError):
                        # the child ended without reporting: its point's crash
                        index, exitcode = reap(conn, kill=False)
                        stats.crashes += 1
                        if failure is not None or interrupted:
                            continue  # stopping: nothing is rerun
                        crashes[index] += 1
                        if crashes[index] >= CRASH_ATTEMPTS:
                            failure = PointFailed(
                                tasks[index].spec,
                                f"lost its worker on {CRASH_ATTEMPTS} attempts "
                                f"(exit code {exitcode})",
                            )
                        else:
                            stats.retried += 1
                            queue.append(index)  # queued points run first
                        continue
                    index, _ = reap(conn, kill=False)
                    if not ok:
                        if failure is None:
                            failure = value
                        continue
                    results[index] = value
                    if on_result is not None:
                        on_result(tasks[index], value)
                    if (
                        chaos.interrupt_after is not None
                        and len(results) >= chaos.interrupt_after
                    ):
                        interrupted = True
                now = time.monotonic()
                for conn in sorted(running, key=lambda c: running[c][0]):
                    if running[conn][2] <= now:
                        index, _ = reap(conn, kill=True)
                        if failure is None:
                            failure = PointFailed(
                                tasks[index].spec,
                                f"overran --point-timeout={self.point_timeout}s",
                            )
        finally:
            if in_main_thread:
                signal.signal(signal.SIGINT, prev_handler)
            # a second SIGINT, or an error out of on_result: kill the rest
            for conn in list(running):
                reap(conn, kill=True)
        if sigints >= 2:
            raise KeyboardInterrupt
        if failure is not None:
            raise failure
        if interrupted:
            raise ExecutionInterrupted(completed=len(results), total=n)
        return [results[i] for i in range(n)]
