"""Unit tests for the discrete-event engine."""

import gc
import weakref

import pytest

from repro.sim import Event, Interrupt, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []

    def proc():
        yield 1.5
        fired.append(sim.now)
        yield 2.5
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert fired == [1.5, 4.0]


def test_process_result_delivered_to_joiner():
    sim = Simulator()

    def child():
        yield 1.0
        return 42

    def parent():
        result = yield sim.spawn(child())
        return result + 1

    process = sim.spawn(parent())
    assert sim.run_process(process) == 43


def test_event_value_passed_through_yield():
    sim = Simulator()
    event = sim.event()
    got = []

    def waiter():
        value = yield event
        got.append(value)

    sim.spawn(waiter())
    sim.call_soon(event.succeed, "hello")
    sim.run()
    assert got == ["hello"]


def test_event_failure_raises_in_waiter():
    sim = Simulator()
    event = sim.event()

    def waiter():
        with pytest.raises(ValueError):
            yield event
        return "handled"

    process = sim.spawn(waiter())
    sim.call_soon(event.fail, ValueError("boom"))
    assert sim.run_process(process) == "handled"


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_already_triggered_event_resumes_waiter():
    sim = Simulator()
    event = sim.event()
    event.succeed("early")

    def waiter():
        value = yield event
        return value

    process = sim.spawn(waiter())
    assert sim.run_process(process) == "early"


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield 0.1
        raise RuntimeError("child failed")

    def parent():
        try:
            yield sim.spawn(child())
        except RuntimeError as exc:
            return str(exc)

    process = sim.spawn(parent())
    assert sim.run_process(process) == "child failed"


def test_interrupt_is_raised_inside_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 100.0
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    process = sim.spawn(sleeper())

    def interrupter():
        yield 3.0
        process.interrupt("wake up")

    sim.spawn(interrupter())
    sim.run()
    assert log == [(3.0, "wake up")]


def test_kill_terminates_without_resuming():
    sim = Simulator()
    log = []

    def victim():
        yield 100.0
        log.append("should not happen")

    process = sim.spawn(victim())

    def killer():
        yield 1.0
        process.kill()

    sim.spawn(killer())
    sim.run()
    assert process.finished
    assert log == []


def test_run_until_stops_clock():
    sim = Simulator()

    def ticker():
        while True:
            yield 1.0

    sim.spawn(ticker())
    sim.run(until=5.0)
    assert sim.now == 5.0


def test_any_of_triggers_on_first():
    sim = Simulator()
    results = []

    def waiter():
        value = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
        results.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert results == [(1.0, "fast")]


def test_all_of_collects_every_result():
    sim = Simulator()
    results = []

    def waiter():
        values = yield sim.all_of([sim.timeout(2.0, "a"), sim.timeout(1.0, "b")])
        results.append((sim.now, values))

    sim.spawn(waiter())
    sim.run()
    assert results == [(2.0, ["a", "b"])]


def test_deterministic_rng_with_same_seed():
    draws_a = [Simulator(seed=7).rng.random() for _ in range(1)]
    draws_b = [Simulator(seed=7).rng.random() for _ in range(1)]
    assert draws_a == draws_b


def test_fifo_ordering_of_simultaneous_callbacks():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.call_soon(order.append, i)
    sim.run()
    assert order == list(range(10))


def test_deadlock_detection_in_run_process():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    process = sim.spawn(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(process)


def test_yielding_garbage_fails_process():
    sim = Simulator()

    def bad():
        yield "not an event"

    process = sim.spawn(bad())
    sim.run()
    with pytest.raises(SimulationError):
        _ = process.result


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_event_add_callback_after_trigger_still_fires():
    sim = Simulator()
    event = sim.event()
    event.succeed("v")
    seen = []
    event.add_callback(lambda ev: seen.append(ev.value))
    sim.run()
    assert seen == ["v"]


def _mixed_same_timestamp_log():
    """Record ``(now, label)`` for a scripted mix of everything that can
    share a timestamp: numeric sleeps (int, float and zero), ``timeout``
    yields, ``call_soon`` with 0/1/2 arguments, events succeeded with and
    without waiters, already-triggered events, joins, ``any_of``/``all_of``
    and an interrupted sleeper."""
    sim = Simulator()
    log = []

    def mark(label):
        log.append((sim.now, label))

    def mark0():
        mark("call0")

    def mark2(a, b):
        mark(f"{a}{b}")

    gate = sim.event()
    early = sim.event()
    early.succeed("pre")
    idle = sim.event()

    def child():
        mark("child start")
        yield 1
        mark("child woke")
        return "c"

    def sleeper(name, delay):
        mark(f"{name} start")
        yield delay
        mark(f"{name} woke")

    def timeout_user():
        value = yield sim.timeout(1, "tv")
        mark(f"timeout {value}")
        yield sim.timeout(0)
        mark("timeout0")

    def gate_waiter(index):
        value = yield gate
        mark(f"gate{index} {value}")
        value = yield early
        mark(f"early{index} {value}")

    def joiner(proc):
        result = yield proc
        mark(f"joined {result}")
        values = yield sim.all_of([sim.timeout(1, "a"), gate, early])
        mark(f"all {values}")
        first = yield sim.any_of([sim.timeout(2, "slow"),
                                  sim.timeout(1, "fast")])
        mark(f"any {first}")
        result = yield proc
        mark(f"rejoined {result}")

    def victim():
        try:
            yield 5
            mark("victim overslept")
        except Interrupt as interrupt:
            mark(f"victim interrupted {interrupt.cause}")
        yield 0
        mark("victim after")

    def driver(target):
        mark("driver start")
        yield 1.0
        sim.call_soon(mark0)
        sim.call_soon(mark, "call1")
        sim.call_soon(mark2, "call", 2)
        gate.succeed("g")
        idle.succeed("nobody")
        early.add_callback(lambda event: mark(f"late cb {event.value}"))
        target.interrupt("poke")
        yield 0
        mark("driver zero")
        yield 1
        mark("driver end")

    child_proc = sim.spawn(child())
    sim.spawn(joiner(child_proc))
    sim.spawn(sleeper("s1", 1))
    sim.spawn(sleeper("s0", 0))
    sim.spawn(timeout_user())
    sim.spawn(gate_waiter(1))
    sim.spawn(gate_waiter(2))
    target = sim.spawn(victim())
    sim.spawn(sleeper("s2", 2.0))
    sim.spawn(driver(target))
    sim.run()
    return log


def test_same_timestamp_order_is_pinned():
    # Recorded on the engine whose heap entries were closures and whose
    # numeric sleeps built a Timeout; any engine change must keep it.
    assert _mixed_same_timestamp_log() == [
        (0.0, "child start"),
        (0.0, "s1 start"),
        (0.0, "s0 start"),
        (0.0, "s2 start"),
        (0.0, "driver start"),
        (0.0, "s0 woke"),
        (1.0, "child woke"),
        (1.0, "s1 woke"),
        (1.0, "timeout tv"),
        (1.0, "joined c"),
        (1.0, "timeout0"),
        (1.0, "call0"),
        (1.0, "call1"),
        (1.0, "call2"),
        (1.0, "gate1 g"),
        (1.0, "gate2 g"),
        (1.0, "late cb pre"),
        (1.0, "victim interrupted poke"),
        (1.0, "driver zero"),
        (1.0, "early1 pre"),
        (1.0, "early2 pre"),
        (1.0, "victim after"),
        (2.0, "s2 woke"),
        (2.0, "driver end"),
        (2.0, "all ['a', 'g', 'pre']"),
        (3.0, "any fast"),
        (3.0, "rejoined c"),
    ]


def test_stale_wake_never_resumes_interrupted_sleeper():
    sim = Simulator()
    gate = sim.event()
    log = []

    def sleeper():
        try:
            yield 5
        except Interrupt:
            log.append((sim.now, "interrupted"))
        # The voided wake at t=5 must not resume this wait.
        value = yield gate
        log.append((sim.now, value))
        try:
            yield 1.0
        except Interrupt:
            log.append((sim.now, "interrupted again"))

    process = sim.spawn(sleeper())

    def interrupter():
        yield 1
        process.interrupt()
        yield 9
        gate.succeed("opened")
        # Runs just before the sleeper's wake on the same timestamp.
        yield 1
        process.interrupt()

    sim.spawn(interrupter())
    sim.run()
    assert log == [(1.0, "interrupted"), (10.0, "opened"),
                   (11.0, "interrupted again")]


def test_stale_wake_never_resumes_killed_sleeper():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 5.0
            log.append("resumed")
        finally:
            log.append((sim.now, "closed"))

    process = sim.spawn(sleeper())

    def killer():
        yield 1
        process.kill()

    sim.spawn(killer())
    sim.run()
    assert process.finished
    assert log == [(1.0, "closed")]
    assert sim.now == 5.0


def test_finished_process_is_released():
    sim = Simulator()

    def short():
        yield 1.0
        return 7

    process = sim.spawn(short())
    assert sim.run_process(process) == 7
    ref = weakref.ref(process)
    del process
    gc.collect()
    assert ref() is None


def test_process_blocked_on_unreferenced_event_is_not_finalized():
    sim = Simulator()
    log = []

    def blocked():
        try:
            yield sim.event()
        finally:
            log.append("finalized")

    def collector():
        for _ in range(3):
            yield 1.0
            gc.collect()

    sim.spawn(blocked())
    sim.spawn(collector())
    sim.run()
    gc.collect()
    assert log == []
