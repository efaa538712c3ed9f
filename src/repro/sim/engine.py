"""Core discrete-event simulation engine.

The engine is deliberately small: a binary heap of timestamped callbacks, a
virtual clock, and generator-based processes.  Determinism is a hard
requirement for the reproduction (DESIGN.md decision 1), so ties on the heap
are broken by a monotonically increasing sequence number and all random
choices are drawn from a single seeded ``random.Random``.

Heap entries are ``(when, seq, fn, arg)`` and run as ``fn(arg)``, so the
common one-argument callbacks need no closure.  Only work that can do
something takes a heap entry: an event triggered with no waiters schedules
nothing, and a process sleeping on a number wakes from its own entry.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(Exception):
    """Raised for misuse of the engine (e.g. running a finished simulator)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """Raised inside a process when it is forcibly killed."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is triggered exactly once via
    :meth:`succeed` or :meth:`fail`.  Processes waiting on it are resumed in
    FIFO order on the same virtual timestamp.
    """

    __slots__ = ("sim", "_callbacks", "triggered", "ok", "value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: list[Callable[[Event], None]] = []
        self.triggered = False
        self.ok = True
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering *value* to waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = True
        self.value = value
        if self._callbacks:
            self.sim._push(0.0, Event._run_callbacks, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, raised in each waiter."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = False
        self.value = exception
        if self._callbacks:
            self.sim._push(0.0, Event._run_callbacks, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke *callback* when the event triggers."""
        if self.triggered:
            # Already triggered: deliver on the current timestamp.
            self.sim._push(0.0, callback, self)
        else:
            self._callbacks.append(callback)

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires automatically after a delay."""

    __slots__ = ("delay", "_fire_value")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._fire_value = value
        sim._push(delay, Timeout._fire, self)

    def _fire(self) -> None:
        self.triggered = True
        self.ok = True
        self.value = self._fire_value
        self._run_callbacks()


class Process:
    """A cooperatively scheduled activity wrapping a generator.

    The generator may yield:

    * an :class:`Event` — suspend until it triggers; ``yield`` evaluates to
      the event's value (or raises its failure exception);
    * an ``int``/``float`` — sleep for that many virtual seconds;
    * another :class:`Process` — join it; ``yield`` evaluates to its result.

    The generator's ``return`` value becomes the process result and is
    delivered to joiners.
    """

    __slots__ = ("sim", "name", "_gen", "_done", "_waiting_on", "_sleep",
                 "_result", "_exception", "finished", "__weakref__")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._done = Event(sim)
        self._waiting_on: Optional[Event] = None
        # The pending wake's token while sleeping on a number; a wake whose
        # token is no longer this one is stale and does nothing.
        self._sleep: Optional[tuple] = None
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self.finished = False
        sim._live.add(self)
        sim._push(0.0, self._step, None)

    @property
    def result(self) -> Any:
        """The finished process's return value (raises if failed)."""
        if not self.finished:
            raise SimulationError(f"process {self.name!r} not finished")
        if self._exception is not None:
            raise self._exception
        return self._result

    @property
    def done_event(self) -> Event:
        """Event that triggers when the process finishes."""
        return self._done

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resumption."""
        if self.finished:
            return
        self._detach()
        self.sim._push(0.0, self._step_throw, Interrupt(cause))

    def kill(self) -> None:
        """Terminate the process without running further user code."""
        if self.finished:
            return
        self._detach()
        self._gen.close()
        self._finish(None, None)

    def _detach(self) -> None:
        waiting = self._waiting_on
        if waiting is not None and not waiting.triggered:
            try:
                waiting._callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self._sleep = None

    # -- stepping machinery -------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event.ok:
            self._step(event.value)
        else:
            self._step_throw(event.value)

    def _step(self, value: Any) -> None:
        if self.finished:
            return
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to joiners
            self._finish(None, exc)
            return
        self._wait_on(yielded)

    def _step_throw(self, exc: BaseException) -> None:
        if self.finished:
            return
        try:
            yielded = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as err:  # noqa: BLE001
            self._finish(None, err)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        # Exact types first: the generic checks only see subclasses (a
        # ``bool`` sleeps, like any ``int``) and bad yields.
        kind = type(yielded)
        if kind is not float and kind is not int:
            if kind is Process:
                yielded = yielded._done
            elif kind is not Event and kind is not Timeout:
                if isinstance(yielded, Process):
                    yielded = yielded._done
                elif isinstance(yielded, (int, float)):
                    self._wait_on(float(yielded))
                    return
                elif not isinstance(yielded, Event):
                    self._step_throw(SimulationError(
                        f"process {self.name!r} yielded {yielded!r}; expected "
                        "an Event, Process, or numeric delay"))
                    return
            self._waiting_on = yielded
            yielded.add_callback(self._resume)
            return
        # A numeric sleep pushes its own wake entry, whose token interrupt
        # and kill void.
        if yielded < 0:
            raise SimulationError(
                f"negative timeout delay: {float(yielded)}")
        self._sleep = token = (self,)
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (sim.now + yielded, sim._seq, _wake, token))

    def _finish(self, result: Any, exc: Optional[BaseException]) -> None:
        self.sim._live.discard(self)
        self.finished = True
        self._result = result
        self._exception = exc
        if exc is None:
            self._done.succeed(result)
        else:
            self._done.fail(exc)


def _wake(token: tuple) -> None:
    """Resume a process sleeping on a number, unless *token* went stale."""
    process = token[0]
    if process._sleep is token:
        process._sleep = None
        process._step(None)


def _call_with(call: tuple[Callable[..., None], tuple]) -> None:
    fn, args = call
    fn(*args)


class Simulator:
    """Owner of the virtual clock, event heap, and deterministic RNG."""

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        # Unfinished processes.  A process blocked on an event nobody else
        # holds is reachable only from here; without this set the collector
        # could finalize its generator mid-run and run its ``finally``.
        self._live: set[Process] = set()

    # -- scheduling ----------------------------------------------------------

    def _push(self, delay: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``fn(arg)`` *delay* seconds from now."""
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, fn, arg))

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Run *fn(\\*args)* at the current timestamp, after pending work."""
        if len(args) == 1:
            self._push(0.0, fn, args[0])
        else:
            self._push(0.0, _call_with, (fn, args))

    # -- factories -----------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a timeout event firing after *delay* seconds."""
        return Timeout(self, delay, value)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers when the first of *events* triggers."""
        composite = self.event()

        def on_trigger(event: Event) -> None:
            """Composite-event callback."""
            if composite.triggered:
                return
            if event.ok:
                composite.succeed(event.value)
            else:
                composite.fail(event.value)

        for event in events:
            event.add_callback(on_trigger)
        return composite

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers when every one of *events* has triggered."""
        events = list(events)
        composite = self.event()
        remaining = len(events)
        if remaining == 0:
            composite.succeed([])
            return composite
        results: list[Any] = [None] * remaining

        def make_callback(index: int) -> Callable[[Event], None]:
            """Build the per-event completion callback."""
            def on_trigger(event: Event) -> None:
                """Composite-event callback."""
                nonlocal remaining
                if composite.triggered:
                    return
                if not event.ok:
                    composite.fail(event.value)
                    return
                results[index] = event.value
                remaining -= 1
                if remaining == 0:
                    composite.succeed(results)
            return on_trigger

        for index, event in enumerate(events):
            event.add_callback(make_callback(index))
        return composite

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Run the next scheduled callback.  Returns False when idle."""
        if not self._heap:
            return False
        when, _seq, fn, arg = heappop(self._heap)
        self.now = when
        fn(arg)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock reaches *until*."""
        if until is None:
            while self.step():
                pass
            return
        heap = self._heap
        while heap and heap[0][0] <= until:
            self.step()
        if self.now < until:
            self.now = until

    def run_process(self, process: Process,
                    until: Optional[float] = None) -> Any:
        """Run until *process* completes (or *until*), returning its result."""
        heap = self._heap
        while not process.finished:
            if until is not None and heap and heap[0][0] > until:
                raise SimulationError(
                    f"process {process.name!r} did not finish by t={until}")
            if not self.step():
                raise SimulationError(
                    f"deadlock: process {process.name!r} never finished")
        return process.result
