"""Event loop, processes, and elementary waitables.

The kernel is a classic calendar-queue discrete-event simulator:

- :class:`Simulator` owns the clock and a hybrid event calendar: a
  FIFO lane for zero-delay events (the overwhelmingly common case —
  every signal fire and process start schedules at the current time)
  plus a binary heap for everything in the future.  Zero-delay events
  are appended in sequence order, so the FIFO head is always its
  minimum and the next event overall is the lesser ``(time, seq)`` of
  the two heads; dispatch order is identical to a single global heap.
- :class:`Process` wraps a Python generator.  The generator ``yield``\\ s
  *waitables* — :class:`Timeout`, :class:`Signal`, another
  :class:`Process`, or the :class:`AnyOf` combinator — and is
  resumed when the waitable completes, receiving the waitable's value as
  the result of the ``yield`` expression.
- :class:`Signal` is the one-shot event every higher-level primitive
  (barriers, flow completions) is built from.

Design notes
------------
Event ordering is (time, sequence) so simultaneous events run in
scheduling order, which makes runs fully deterministic for a given seed.
Unhandled exceptions inside a process are re-raised out of
:meth:`Simulator.run` unless some other process is joined on the failing
process (in which case the exception is delivered to the joiner, like a
failed future).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

__all__ = [
    "Simulator",
    "Process",
    "Signal",
    "Timeout",
    "AnyOf",
    "Interrupt",
    "EventHandle",
]


#: completion callback: ``callback(value, exc)`` with exactly one non-None
DoneCallback = Callable[[Any, Optional[BaseException]], None]
#: returned by ``_subscribe``; detaches the callback (AnyOf losers)
Unsubscribe = Callable[[], None]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class EventHandle:
    """A scheduled callback; supports O(1) cancellation (lazy deletion).

    A cancelled handle is tombstoned in place and skipped when it
    surfaces; the owning :class:`Simulator` counts pending tombstones so
    it can compact the calendar when more than half of it is dead (see
    :meth:`Simulator.run`) and so its queue-depth accounting reports
    live events only.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: back-reference while the event is pending; cleared on dispatch
        #: (or first cancel) so late cancels of executed events are no-ops
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call twice."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            # Still pending: it leaves the live population now and turns
            # into a tombstone the calendar will skip (or compact away).
            self.sim = None
            sim._live -= 1
            tombstones = sim._tombstones + 1
            sim._tombstones = tombstones
            # Compact once tombstones outnumber live heap entries: one
            # O(n) sweep + heapify instead of log-cost lazy pops, and the
            # calendar's memory stays proportional to live events.
            # Checking here (tombstones only grow on cancel) keeps the
            # test out of the dispatch hot path.
            if tombstones >= sim._COMPACT_MIN and tombstones * 2 > len(sim._heap):
                sim._compact()

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Waitable:
    """Interface for things a process may ``yield``."""

    def _subscribe(self, sim: "Simulator", callback: DoneCallback) -> Unsubscribe:
        """Arrange for ``callback(value, exc)`` when done; return an
        unsubscribe function (used by :class:`AnyOf` losers)."""
        raise NotImplementedError


class Timeout(Waitable):
    """Completes ``delay`` simulated seconds after the process yields it."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay
        self.value = value

    def _subscribe(self, sim: "Simulator", callback: DoneCallback) -> Unsubscribe:
        handle = sim.schedule(self.delay, callback, self.value, None)
        return handle.cancel


class Signal(Waitable):
    """One-shot event: processes waiting on it resume when it fires.

    A signal may succeed (with a value) or fail (with an exception); a
    signal that already fired completes new waiters immediately at the
    current simulation time.
    """

    __slots__ = ("sim", "fired", "value", "exc", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.fired = False
        self.value: Any = None
        self.exc: Optional[BaseException] = None
        # lazily-unsubscribed slots are overwritten with None
        self._waiters: list[Optional[DoneCallback]] = []

    def succeed(self, value: Any = None) -> None:
        """Fire the signal successfully, resuming all waiters."""
        self._fire(value, None)

    def fail(self, exc: BaseException) -> None:
        """Fire the signal with an exception, which propagates to waiters."""
        self._fire(None, exc)

    def _fire(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.value = value
        self.exc = exc
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            if cb is not None:
                self.sim.schedule(0.0, cb, value, exc)

    def _subscribe(self, sim: "Simulator", callback: DoneCallback) -> Unsubscribe:
        if self.fired:
            handle = sim.schedule(0.0, callback, self.value, self.exc)
            return handle.cancel
        self._waiters.append(callback)
        index = len(self._waiters) - 1

        def unsubscribe() -> None:
            # Lazy removal: overwrite with None (cheap, preserves order).
            if index < len(self._waiters) and self._waiters[index] is callback:
                self._waiters[index] = None

        return unsubscribe

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "pending"
        return f"<Signal {self.name!r} {state}>"


class AnyOf(Waitable):
    """Completes when the first child completes; value is ``(index, value)``."""

    def __init__(self, waitables: Iterable[Waitable]) -> None:
        self.waitables = list(waitables)
        if not self.waitables:
            raise SimulationError("AnyOf needs at least one waitable")

    def _subscribe(self, sim: "Simulator", callback: DoneCallback) -> Unsubscribe:
        state = {"done": False}
        unsubs: list[Unsubscribe] = []

        def make_child(i: int) -> DoneCallback:
            def child_done(value: Any, exc: Optional[BaseException]) -> None:
                if state["done"]:
                    return
                state["done"] = True
                for u in unsubs:
                    u()
                if exc is not None:
                    callback(None, exc)
                else:
                    callback((i, value), None)

            return child_done

        for i, w in enumerate(self.waitables):
            unsubs.append(w._subscribe(sim, make_child(i)))

        def unsubscribe() -> None:
            for u in unsubs:
                u()

        return unsubscribe


ProcessGenerator = Generator[Waitable, Any, Any]


class Process(Waitable):
    """A simulated thread of control driving a generator.

    Joining: yielding a process waits for it to finish and evaluates to
    its return value (``return x`` inside the generator).  If the target
    process raised, the exception is re-raised in the joiner.
    """

    __slots__ = ("sim", "gen", "name", "done", "_current_unsub", "_result_consumed")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator, name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Signal(sim, name=f"done:{self.name}")
        self._current_unsub: Optional[Unsubscribe] = None
        # Start on the next tick so the creator finishes its own step first.
        sim.schedule(0.0, self._step, None, None)

    # -- waitable protocol ------------------------------------------------
    def _subscribe(self, sim: "Simulator", callback: DoneCallback) -> Unsubscribe:
        # A join counts as observing the process's outcome: its exception
        # (if any) is delivered to the joiner instead of Simulator.run().
        self.sim._joined.add(id(self))
        return self.done._subscribe(sim, callback)

    # -- execution ---------------------------------------------------------
    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        self._current_unsub = None
        try:
            if exc is not None:
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        except Interrupt as intr:
            # An interrupt escaping the generator terminates it quietly.
            self.done.succeed(intr.cause)
            return
        except BaseException as err:  # simlint: disable=SL006 -- the kernel delivers the exception to joiners via done.fail; Simulator.run re-raises it if unobserved
            self.sim._record_failure(self, err)
            self.done.fail(err)
            return
        if not isinstance(target, Waitable):
            err = SimulationError(
                f"process {self.name!r} yielded {target!r}, which is not a Waitable"
            )
            self.sim._record_failure(self, err)
            self.done.fail(err)
            return
        self._current_unsub = target._subscribe(self.sim, self._step)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.done.fired:
            return
        if self._current_unsub is not None:
            self._current_unsub()
            self._current_unsub = None
        self.sim.schedule(0.0, self._step, None, Interrupt(cause))

    @property
    def finished(self) -> bool:
        return self.done.fired

    @property
    def result(self) -> Any:
        if not self.done.fired:
            raise SimulationError(f"process {self.name!r} has not finished")
        if self.done.exc is not None:
            raise self.done.exc
        return self.done.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.done.fired else "running"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """The event loop.

    Typical usage::

        sim = Simulator()
        def worker():
            yield sim.timeout(1.0)
            return sim.now
        proc = sim.process(worker())
        sim.run()
        assert math.isclose(proc.result, 1.0)

    (``0.0 + 1.0`` happens to be exact in binary floating point, but
    simulated timestamps are generally sums of many float delays, so
    per SL003 comparisons against them use :func:`math.isclose`.)
    """

    #: tombstone compaction threshold: never rebuild heaps smaller than
    #: this (the O(n) sweep would dominate) — see :meth:`_compact`
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[EventHandle] = []
        #: zero-delay lane: events scheduled at the current time, in seq
        #: order (appended with nondecreasing (time, seq), so the head
        #: is always the lane's minimum)
        self._fifo: deque[EventHandle] = deque()
        self._seq: int = 0
        #: pending events that are neither dispatched nor cancelled
        self._live: int = 0
        #: high-water mark of ``_live`` over the simulator's lifetime
        self._live_peak: int = 0
        #: cancelled handles still sitting in the calendar
        self._tombstones: int = 0
        self._failures: list[tuple[Process, BaseException]] = []
        self._joined: set[int] = set()
        #: optional :class:`repro.obs.MetricsRegistry`; purely passive —
        #: the kernel writes counters into it but never reads it, so
        #: attaching one cannot change scheduling decisions.
        self.metrics: Optional[Any] = None
        #: optional :class:`repro.obs.profile.ProfileRecorder`; like
        #: ``metrics`` it is purely passive — when attached, the run
        #: loop routes each dispatch through it so events are counted
        #: per callback site and wall time is attributed, but the
        #: recorder never feeds back into scheduling, so modelled
        #: results are bit-identical with and without one.
        self.profile: Optional[Any] = None
        #: optional callable ``probe(t_new)`` invoked whenever the clock
        #: is about to advance to ``t_new`` (strictly greater than
        #: ``now``), *before* the event at ``t_new`` executes.  Between
        #: two event executions no simulation state changes, so a probe
        #: observes exact piecewise-constant state (flow rates, queue
        #: depths) at any instant in ``(now, t_new]``.  Probes never
        #: schedule events and never mutate simulation state, so
        #: attaching one cannot change modelled results (the
        #: :class:`repro.obs.timeline.TimelineSampler` rides this hook).
        self.time_probe: Optional[Callable[[float], None]] = None

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        live = self._live + 1
        self._live = live
        if live > self._live_peak:
            self._live_peak = live
        if delay == 0.0:  # exact: only a literal 0.0 delay takes the FIFO lane
            # Fast path: no heap churn for the dominant zero-delay case
            # (signal fires, process starts).  FIFO order == (time, seq)
            # order because time is the nondecreasing clock.
            handle = EventHandle(self.now, self._seq, fn, args, self)
            self._fifo.append(handle)
        else:
            handle = EventHandle(self.now + delay, self._seq, fn, args, self)
            heapq.heappush(self._heap, handle)
        return handle

    def process(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Register a generator as a new simulated process."""
        return Process(self, gen, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Waitable that completes ``delay`` seconds from now."""
        return Timeout(delay, value)

    def signal(self, name: str = "") -> Signal:
        """Create a fresh one-shot signal bound to this simulator."""
        return Signal(self, name=name)

    def any_of(self, waitables: Iterable[Waitable]) -> AnyOf:
        return AnyOf(waitables)

    # -- failure tracking ----------------------------------------------------
    def _record_failure(self, proc: Process, err: BaseException) -> None:
        self._failures.append((proc, err))

    # -- main loop -----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the calendar is empty (or ``until``).

        Returns the final simulation time.  Re-raises the first unhandled
        process exception that no other process observed via a join.
        """
        heap = self._heap
        fifo = self._fifo
        executed = 0
        probe = self.time_probe
        profile = self.profile
        heappop = heapq.heappop
        limit = math.inf if until is None else until
        while heap or fifo:
            # The global next event is the lesser (time, seq) of the two
            # lane heads (each head is its lane's minimum).
            if not fifo:
                handle = heap[0]
                from_heap = True
            elif not heap:
                handle = fifo[0]
                from_heap = False
            else:
                handle = heap[0]
                head = fifo[0]
                ht = handle.time
                ft = head.time
                # exact: equal-time lane heads tie-break on seq
                from_heap = ht < ft or (ht == ft and handle.seq < head.seq)
                if not from_heap:
                    handle = head
            t = handle.time
            if t > limit:
                if probe is not None and until > self.now:
                    probe(until)
                self.now = until
                break
            if from_heap:
                heappop(heap)
            else:
                fifo.popleft()
            if handle.cancelled:
                self._tombstones -= 1
                continue
            handle.sim = None
            self._live -= 1
            now = self.now
            if t > now:
                if probe is not None:
                    probe(t)
                self.now = t
            elif t < now - 1e-12:
                raise SimulationError("event time went backwards")
            executed += 1
            if profile is None:
                handle.fn(*handle.args)
            else:
                profile.dispatch(handle.fn, handle.args)
        else:
            if until is not None:
                self.now = max(self.now, until)
        if profile is not None:
            profile.note_run(self._live_peak)
        if self.metrics is not None:
            self.metrics.counter(
                "sim.events_executed", unit="events",
                description="calendar events dispatched by Simulator.run",
            ).inc(executed)
            self.metrics.gauge(
                "sim.heap_peak", unit="events",
                description="largest live (uncancelled) pending-event "
                            "population observed",
            ).set_max(self._live_peak)
        for proc, err in self._failures:
            if id(proc) not in self._joined:
                raise err
        return self.now

    def _compact(self) -> None:
        """Rebuild the calendar without cancelled tombstones.

        Triggered by :meth:`EventHandle.cancel` when tombstones exceed
        half the heap; the FIFO lane is swept too (it drains within the
        current timestamp anyway, but the recount keeps ``_tombstones``
        exact).  Mutates the containers in place so :meth:`run`'s local
        aliases stay valid when a dispatched callback cancels events.
        """
        self._heap[:] = [h for h in self._heap if not h.cancelled]
        heapq.heapify(self._heap)
        if self._fifo:
            live_fifo = [h for h in self._fifo if not h.cancelled]
            self._fifo.clear()
            self._fifo.extend(live_fifo)
        self._tombstones = 0

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the calendar is empty."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._tombstones -= 1
        fifo = self._fifo
        while fifo and fifo[0].cancelled:
            fifo.popleft()
            self._tombstones -= 1
        if not heap:
            return fifo[0].time if fifo else None
        if not fifo:
            return heap[0].time
        return min(heap[0].time, fifo[0].time)
