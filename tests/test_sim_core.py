"""Discrete-event kernel: scheduling, processes, signals, combinators."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import AnyOf, Interrupt, Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(2.0, log.append, "b")
    sim.schedule(1.0, log.append, "a")
    sim.schedule(3.0, log.append, "c")
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_fifo_by_schedule_order():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, 1)
    sim.schedule(1.0, log.append, 2)
    sim.schedule(1.0, log.append, 3)
    sim.run()
    assert log == [1, 2, 3]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    log = []
    handle = sim.schedule(1.0, log.append, "x")
    handle.cancel()
    sim.run()
    assert log == []


def test_run_until_stops_clock():
    sim = Simulator()
    log = []
    sim.schedule(5.0, log.append, "late")
    sim.run(until=2.0)
    assert sim.now == 2.0
    assert log == []
    sim.run()
    assert log == ["late"]


def test_peek_skips_cancelled():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    assert sim.peek() == 2.0


def test_process_timeout_and_return_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.5)
        return sim.now

    proc = sim.process(worker())
    sim.run()
    assert proc.result == 1.5


def test_process_join_returns_child_value():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "done"

    def parent():
        value = yield sim.process(child())
        return (sim.now, value)

    proc = sim.process(parent())
    sim.run()
    assert proc.result == (1.0, "done")


def test_join_already_finished_process():
    sim = Simulator()

    def child():
        yield sim.timeout(0.5)
        return 7

    cp = sim.process(child())

    def parent():
        yield sim.timeout(2.0)
        value = yield cp
        return value

    pp = sim.process(parent())
    sim.run()
    assert pp.result == 7
    assert sim.now == 2.0


def test_unjoined_process_exception_propagates_from_run():
    sim = Simulator()

    def boom():
        yield sim.timeout(1.0)
        raise ValueError("kaboom")

    sim.process(boom())
    with pytest.raises(ValueError, match="kaboom"):
        sim.run()


def test_joined_process_exception_delivered_to_joiner():
    sim = Simulator()

    def boom():
        yield sim.timeout(1.0)
        raise ValueError("kaboom")

    def parent():
        try:
            yield sim.process(boom())
        except ValueError as err:
            return f"caught {err}"

    proc = sim.process(parent())
    sim.run()
    assert proc.result == "caught kaboom"


def test_yielding_non_waitable_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError, match="not a Waitable"):
        sim.run()


def test_signal_wakes_all_waiters_with_value():
    sim = Simulator()
    sig = sim.signal("go")
    results = []

    def waiter(tag):
        value = yield sig
        results.append((tag, value, sim.now))

    sim.process(waiter("a"))
    sim.process(waiter("b"))
    sim.schedule(3.0, sig.succeed, 99)
    sim.run()
    assert sorted(results) == [("a", 99, 3.0), ("b", 99, 3.0)]


def test_signal_fires_immediately_if_already_fired():
    sim = Simulator()
    sig = sim.signal()
    sig.succeed("early")

    def waiter():
        value = yield sig
        return (sim.now, value)

    proc = sim.process(waiter())
    sim.run()
    assert proc.result == (0.0, "early")


def test_signal_double_fire_rejected():
    sim = Simulator()
    sig = sim.signal()
    sig.succeed()
    with pytest.raises(SimulationError):
        sig.succeed()


def test_signal_fail_raises_in_waiter():
    sim = Simulator()
    sig = sim.signal()

    def waiter():
        try:
            yield sig
        except RuntimeError:
            return "failed as expected"

    proc = sim.process(waiter())
    sim.schedule(1.0, sig.fail, RuntimeError("down"))
    sim.run()
    assert proc.result == "failed as expected"


def test_any_of_returns_first_completion():
    sim = Simulator()

    def sleeper(dt):
        yield sim.timeout(dt)
        return dt

    def parent():
        procs = [sim.process(sleeper(d)) for d in (3.0, 1.0, 2.0)]
        index, value = yield AnyOf(procs)
        return (sim.now, index, value)

    proc = sim.process(parent())
    sim.run()
    assert proc.result == (1.0, 1, 1.0)


def test_any_of_with_timeout_acts_as_deadline():
    sim = Simulator()

    def slow():
        yield sim.timeout(10.0)
        return "slow"

    def parent():
        index, _ = yield AnyOf([sim.process(slow()), sim.timeout(2.0)])
        return (sim.now, index)

    proc = sim.process(parent())
    sim.run()
    assert proc.result == (2.0, 1)


def test_any_of_requires_children():
    with pytest.raises(SimulationError):
        AnyOf([])


def test_interrupt_terminates_blocked_process():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)

    proc = sim.process(sleeper())
    sim.schedule(1.0, proc.interrupt, "shutdown")
    sim.run()
    assert proc.result == ("interrupted", "shutdown", 1.0)
    assert sim.now == pytest.approx(1.0)


def test_interrupt_after_finish_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return "ok"

    proc = sim.process(quick())
    sim.run()
    proc.interrupt()
    sim.run()
    assert proc.result == "ok"


def test_uncaught_interrupt_finishes_process_with_cause():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(100.0)

    proc = sim.process(sleeper())
    sim.schedule(1.0, proc.interrupt, "cause-value")
    sim.run()
    assert proc.result == "cause-value"


def test_result_before_finish_raises():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(1.0)

    proc = sim.process(sleeper())
    with pytest.raises(SimulationError):
        _ = proc.result


def test_nested_process_chain_timing():
    sim = Simulator()

    def level(n):
        if n == 0:
            yield sim.timeout(1.0)
            return 1
        value = yield sim.process(level(n - 1))
        yield sim.timeout(1.0)
        return value + 1

    proc = sim.process(level(4))
    sim.run()
    assert proc.result == 5
    assert sim.now == 5.0


def test_many_processes_deterministic():
    def run_once():
        sim = Simulator()
        order = []

        def worker(i):
            yield sim.timeout(i * 0.1)
            order.append(i)

        for i in range(50):
            sim.process(worker(i))
        sim.run()
        return order

    assert run_once() == run_once() == sorted(range(50))
