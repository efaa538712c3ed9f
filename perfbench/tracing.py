"""In-memory span tracer for the traced benchmark run.

The traced run wraps calls into each layer's public entry points from
the benchmark's own files (nothing in ``src/`` is edited): the wrapper
records one span per call with its name, start, end, parent span and
the request id the harness has set.  Spans stay in memory and are
written out once, at the end of the run.

Self time of a span is its duration minus the durations of its direct
children, so the self times of every span in a tree add up to the
root's duration: the per-layer table checks that identity against the
traced wall time.
"""

from __future__ import annotations

import gzip
import os
from time import perf_counter
from typing import Callable

#: span name -> layer.  Layers use the repo's module names; ``bench`` is
#: the harness itself (round and phase spans).
LAYER_OF = {
    "round": "bench",
    "phase.run": "bench",
    "phase.commit": "bench",
    "phase.query": "bench",
    "phase.replay": "bench",
    "sim.run": "sim",
    "sim.run_process": "sim",
    "kernel.fire": "kernel",
    "agent.poll": "agent",
    "agent.ship": "agent",
    "server.ingest": "server",
    "server.trace": "server",
    "store.flush": "server",
    "store.commit": "server",
    "streaming.on_spans": "streaming",
    "streaming.tick": "streaming",
    "streaming.finalize": "streaming",
    "export.trace": "export",
}

LAYERS = ("bench", "sim", "kernel", "agent", "server", "streaming",
          "export")


class Tracer:
    """Records nested spans in parallel lists (one entry per span)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self._stack: list[int] = [-1]
        #: Request id stamped on spans begun from now on; the harness
        #: sets it to the queried root span id or the shipment index.
        self.request = 0
        #: Wrapped calls record spans only while the traced phase runs.
        self.active = False

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str) -> int:
        """Open a span as a child of the innermost open span."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        """Close span *index*, which must be the innermost open span."""
        self.ends[index] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out "
                               "of order")

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Return *fn* with every call recorded as a span *name*."""
        begin = self.begin
        end = self.end

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return traced

    # -- analysis ---------------------------------------------------------

    def durations(self) -> list[float]:
        """Wall seconds of every span."""
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Duration minus the part covered by direct children."""
        durations = self.durations()
        own = list(durations)
        parents = self.parents
        for index, duration in enumerate(durations):
            parent = parents[index]
            if parent >= 0:
                own[parent] -= duration
        return own

    def busy(self, names: set[str]) -> float:
        """Wall seconds inside spans named in *names*, counting a span
        nested in another span of the set only once (outermost wins)."""
        inside = [False] * len(self.names)
        total = 0.0
        names_list = self.names
        parents = self.parents
        for index, name in enumerate(names_list):
            parent = parents[index]
            covered = parent >= 0 and (inside[parent]
                                       or names_list[parent] in names)
            inside[index] = covered
            if name in names and not covered:
                total += self.ends[index] - self.starts[index]
        return total

    def count(self, name: str) -> int:
        """Number of spans called *name*."""
        return sum(1 for span_name in self.names if span_name == name)

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: busy seconds, self seconds and span count."""
        selfs = self.self_times()
        table = {layer: {"busy_s": 0.0, "self_s": 0.0, "spans": 0}
                 for layer in LAYERS}
        for name, own in zip(self.names, selfs):
            row = table[LAYER_OF[name]]
            row["self_s"] += own
            row["spans"] += 1
        for layer in LAYERS:
            names = {name for name, owner in LAYER_OF.items()
                     if owner == layer}
            table[layer]["busy_s"] = self.busy(names)
        return table

    def wall(self) -> float:
        """Duration of the first root span (the traced round)."""
        for index, parent in enumerate(self.parents):
            if parent < 0:
                return self.ends[index] - self.starts[index]
        return 0.0

    def write(self, path: str) -> None:
        """Write every span as gzipped TSV: id, name, layer, start and
        end in microseconds from the first span, parent id, request."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id\tname\tlayer\tstart_us\tend_us\tparent\t"
                      "request\n")
            for index, name in enumerate(self.names):
                out.write(
                    f"{index}\t{name}\t{LAYER_OF[name]}\t"
                    f"{(self.starts[index] - origin) * 1e6:.3f}\t"
                    f"{(self.ends[index] - origin) * 1e6:.3f}\t"
                    f"{self.parents[index]}\t{self.requests[index]}\n")


def instrument(tracer: Tracer, *, sim=None, kernels=(), agents=(),
               server=None, exporter=None) -> dict[str, int]:
    """Wrap each layer's entry points on these objects with spans.

    Every wrapper is an instance attribute, so the library's own
    ``self.method()`` calls go through it too (an agent's ``flush``
    reaches the wrapped ``poll``/``ship``, a server's ``ingest_spans``
    the wrapped ``on_spans``).  ``Simulator.step`` runs far too often
    for a span each; it is counted instead.  Returns the live counter
    dict (``sim.steps``).
    """
    counters = {"sim.steps": 0}
    wrap = tracer.wrap
    if sim is not None:
        step = sim.step

        def counted_step():
            counters["sim.steps"] += 1
            return step()

        sim.step = counted_step
        sim.run = wrap(sim.run, "sim.run")
        sim.run_process = wrap(sim.run_process, "sim.run_process")
    for kernel in kernels:
        kernel.hooks.fire = wrap(kernel.hooks.fire, "kernel.fire")
    for agent in agents:
        agent.poll = wrap(agent.poll, "agent.poll")
        agent.ship = wrap(agent.ship, "agent.ship")
    if server is not None:
        server.ingest_spans = wrap(server.ingest_spans, "server.ingest")
        server.trace = wrap(server.trace, "server.trace")
        store = server.store
        store.flush = wrap(store.flush, "store.flush")
        # The lazy commit each read (or push-path event drain) forces:
        # the sharded store brings every shard and the boundary forest
        # up to date in one step, a single store commits its key index.
        if hasattr(store, "_ensure_traceable"):
            store._ensure_traceable = wrap(store._ensure_traceable,
                                           "store.commit")
        else:
            store._commit_keys = wrap(store._commit_keys, "store.commit")
        streaming = server.streaming
        if streaming is not None:
            streaming.on_spans = wrap(streaming.on_spans,
                                      "streaming.on_spans")
            streaming.tick = wrap(streaming.tick, "streaming.tick")
            streaming.finalize_pending = wrap(streaming.finalize_pending,
                                              "streaming.finalize")
    if exporter is not None:
        exporter.export_trace = wrap(exporter.export_trace,
                                     "export.trace")
    return counters
