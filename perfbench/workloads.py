"""The benchmark's three workloads, each defined once.

Every workload drives the real span path: a simulated app (Bookinfo or
the Spring Boot demo from :mod:`repro.apps`) under a wrk2-style
:class:`repro.apps.loadgen.LoadGenerator`, kernel hooks, three agents
polling and shipping on their own phase, and a
:class:`repro.server.server.DeepFlowServer` that makes spans queryable
(pull path) or assembles and exports them continuously (push path).

* ``bookinfo-pull`` — Istio Bookinfo, 18 spans per request, agents ship
  every 10 ms, then ``trace()`` for every client root span.  A bare
  twin (same seed, no agents) prices DeepFlow's overhead.
* ``springboot-push`` — the Spring Boot demo, 10 spans per request,
  streaming on at default assembler parameters with the sim heartbeat,
  agents shipping every 100 ms, OTLP/JSON export.
* ``replay-mixed`` — a Bookinfo run's shipments recorded once, then
  replayed into a 4-shard server with reads of recently finished
  requests after every shipment (each read forces a lazy commit).

A workload receives only the :class:`Inputs` generated from its seed:
the seed of the per-device network jitter stream, the request count and
the (evenly staggered) agent poll phases.  One call of
:meth:`Workload.run_round` is one complete measurement; the harness in
``run.py`` repeats rounds and takes medians.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import random
import tracemalloc
from dataclasses import dataclass, field
from operator import attrgetter
from time import perf_counter
from typing import Callable, Optional

from repro.apps import bookinfo, springboot
from repro.apps.loadgen import LoadGenerator
from repro.core.export import OtlpStreamExporter, decode_otlp_json
from repro.core.span import Span, SpanSide
from repro.network.faults import LatencyFault
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator

from speed import METER, at_reference
from tracing import Tracer, instrument

#: Every app here runs on three nodes, so three agents.
NODE_COUNT = 3
#: One-way jitter drawn per device and segment, uniform in [0, this).
JITTER_S = 0.0001
#: Every n-th request's pull trace is checked against the iterative
#: Algorithm 1 reference (``trace(use_index=False)``).
REFERENCE_EVERY = 25
#: Every n-th exported OTLP payload is decoded by the strict decoder.
VALIDATE_EVERY = 50
#: Sim seconds each world advances per turn in :func:`drive`.
SLICE_S = 0.05
#: Passes over every request's trace in a pull query phase: more read
#: samples over a longer window, for a steadier tail percentile.
QUERY_PASSES = 10


def _signature(*entries: tuple[tuple[str, str, str], int]) -> tuple:
    """Expected span set of one request: sorted (process, side, protocol)
    triples, with multiplicity."""
    out = []
    for triple, count in entries:
        out.extend([triple] * count)
    return tuple(sorted(out))


def signature_of(spans) -> tuple:
    """The (process, side, protocol) signature of a span collection."""
    return tuple(sorted((span.process_name, span.side.value, span.protocol)
                        for span in spans))


@dataclass(frozen=True)
class AppSpec:
    """How one demo app is deployed and loaded."""

    build: Callable
    path: str
    rate: float              # offered requests per sim second
    requests: int            # requests per round at scale 1
    connections: int
    ship_interval: float     # agent poll-and-ship period, sim seconds
    settle_s: float          # sim time run after the load ends
    expected: tuple          # signature of one whole request's trace


BOOKINFO = AppSpec(
    build=bookinfo.build, path="/productpage", rate=250.0, requests=1000,
    connections=16, ship_interval=0.010, settle_s=0.05,
    expected=_signature(
        (("details", "s", "http"), 1),
        (("details-sidecar", "c", "http"), 1),
        (("details-sidecar", "s", "http"), 1),
        (("istio-ingress", "c", "http"), 1),
        (("istio-ingress", "s", "http"), 1),
        (("productpage", "c", "http"), 2),
        (("productpage", "s", "http"), 1),
        (("productpage-sidecar", "c", "http"), 1),
        (("productpage-sidecar", "s", "http"), 1),
        (("ratings", "s", "http"), 1),
        (("ratings-sidecar", "c", "http"), 1),
        (("ratings-sidecar", "s", "http"), 1),
        (("reviews", "c", "http"), 1),
        (("reviews", "s", "http"), 1),
        (("reviews-sidecar", "c", "http"), 1),
        (("reviews-sidecar", "s", "http"), 1),
        (("wrk2", "c", "http"), 1)))

SPRINGBOOT = AppSpec(
    build=springboot.build, path="/api/orders", rate=300.0, requests=1000,
    connections=16, ship_interval=0.100, settle_s=0.5,
    expected=_signature(
        (("api-gateway", "c", "http"), 1),
        (("api-gateway", "s", "http"), 1),
        (("mysql", "s", "mysql"), 1),
        (("order-service", "c", "http"), 1),
        (("order-service", "c", "mysql"), 1),
        (("order-service", "c", "redis"), 1),
        (("order-service", "s", "http"), 1),
        (("redis", "s", "redis"), 1),
        (("user-service", "s", "http"), 1),
        (("wrk2", "c", "http"), 1)))


@dataclass(frozen=True)
class Inputs:
    """Everything a workload receives, generated from the seed."""

    seed: int
    sim_seed: int                 # seeds the network jitter stream
    requests: int
    phases: tuple[float, ...]     # first poll of each agent, sim seconds


def make_inputs(spec: AppSpec, seed: int, scale: float = 1.0) -> Inputs:
    """Draw one workload's inputs from *seed* (same seed, same inputs).

    The seed drives the network jitter.  Agent phases are staggered
    evenly across the ship interval and do not depend on the seed: a
    random phase would shift every finish lag by up to a heartbeat
    period and swamp the per-seed spread of the lag metrics.
    """
    rng = random.Random(seed)
    return Inputs(
        seed=seed,
        sim_seed=rng.getrandbits(32),
        requests=max(10, round(spec.requests * scale)),
        phases=tuple((index + 0.5) / NODE_COUNT * spec.ship_interval
                     for index in range(NODE_COUNT)))


# -- helpers ----------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(p * n).  With
    n >= 1000 the 99th has at least 10 samples beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = math.ceil(p * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]


_span_fields = attrgetter(*(f.name for f in dataclasses.fields(Span)))


def fresh_copy(span: Span) -> Span:
    """A span as the agent shipped it, with its own tag dicts (ingest
    enriches tags in place and assembly sets ``parent_id``)."""
    clone = Span(*_span_fields(span))
    clone.tags = dict(span.tags)
    clone.metrics = dict(span.metrics)
    return clone


def client_roots(spans) -> list:
    """The wrk2 client spans (one per request), in id order."""
    return sorted((span for span in spans
                   if span.process_name == "wrk2"
                   and span.side is SpanSide.CLIENT),
                  key=lambda span: span.span_id)


@dataclass
class RoundResult:
    """One round's measurements (wall-clock and deterministic)."""

    #: Passes over every trace in a pull query phase.
    query_passes: int = QUERY_PASSES
    #: Wall seconds of the whole timed phase (the traced run's root).
    wall_s: float = 0.0
    #: Spans made queryable or exported, the wall seconds of the work
    #: that made them, and the mean probe time over that work.
    spans: int = 0
    busy_s: float = 0.0
    busy_probe_s: float = 0.0
    #: Wall seconds of each read, one list of repeats (passes) per
    #: read in the round's (deterministic) read order; and the probe
    #: times taken among the reads.
    query_s: list = field(default_factory=list)
    query_probes: list = field(default_factory=list)
    #: Wall seconds of the DeepFlow sim run, and of its bare twin (None
    #: when the round ran without one).
    run_s: float = 0.0
    bare_s: Optional[float] = None
    mem_peak_mb: Optional[float] = None
    #: Sim-time figures and counts that must repeat exactly per seed.
    deterministic: dict = field(default_factory=dict)
    attempted: int = 0
    failures: dict = field(default_factory=dict)
    #: Per-layer counts the traced run reads from the system's state.
    layer_counts: dict = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    @property
    def spans_per_s(self) -> float:
        """Spans per wall second at the reference speed."""
        if not self.busy_s:
            return 0.0
        return self.spans / at_reference(self.busy_s, self.busy_probe_s)

    def fail(self, reason: str, count: int = 1) -> None:
        """Count *count* failed operations under *reason*."""
        if count:
            self.failures[reason] = self.failures.get(reason, 0) + count

    @property
    def failed(self) -> int:
        """Total failed operations."""
        return sum(self.failures.values())


class Timed:
    """Phase timer: wall seconds per phase, plus a span per phase when
    a tracer is attached."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.walls: dict[str, float] = {}

    def __call__(self, name: str, fn: Callable, *args):
        tracer = self.tracer
        index = tracer.begin(f"phase.{name}") if tracer else -1
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.walls[name] = (self.walls.get(name, 0.0)
                                + perf_counter() - start)
            if tracer:
                tracer.end(index)


# -- deployment ---------------------------------------------------------------


class CapturingExporter:
    """The OTLP/JSON exporter the push path writes to, keeping every
    ``VALIDATE_EVERY``-th payload (with its trace's span count) for the
    strict decoder."""

    def __init__(self) -> None:
        self.inner = OtlpStreamExporter(keep_payloads=False)
        self.samples: list[tuple[int, dict]] = []

    def export_trace(self, trace):
        """Encode through the real exporter, sampling the payload."""
        payload = self.inner.export_trace(trace)
        if self.inner.exported_traces % VALIDATE_EVERY == 1:
            self.samples.append((len(trace), payload))
        return payload


class World:
    """One deployed app: sim, cluster with network jitter, and, unless
    bare, a DeepFlow server with one agent per node on its own phase."""

    def __init__(self, spec: AppSpec, inputs: Inputs, *, deepflow: bool,
                 streaming: bool = False, capture: bool = False) -> None:
        self.spec = spec
        self.sim = sim = Simulator(seed=inputs.sim_seed)
        self.app = app = spec.build(sim)
        for device in app.cluster.all_devices():
            device.add_fault(LatencyFault(0.0, jitter=JITTER_S))
        self.server: Optional[DeepFlowServer] = None
        self.exporter: Optional[CapturingExporter] = None
        self.agents = []
        #: Filled by the round: wrk2 run and report, client roots, pull
        #: traces.
        self.load = None
        self.report = None
        self.roots: list = []
        self.traces: list = []
        #: (agent clock, spans) per shipment: pre-ingest copies when
        #: *capture* is set, else the shipped list itself.
        self.shipments: list[tuple[float, list]] = []
        #: (vpc, ip, tags) registrations, replayable on a fresh server.
        self.registrations: list[tuple] = []
        if deepflow:
            server = self.server = DeepFlowServer()
            register = server.register_resource_tags

            def logged_register(vpc, ip, tags):
                self.registrations.append((vpc, ip, dict(tags)))
                register(vpc, ip, tags)

            server.register_resource_tags = logged_register
            if streaming:
                self.exporter = CapturingExporter()
                server.enable_streaming(exporter=self.exporter)
                server.streaming.run(sim)
            for node, phase in zip(app.cluster.nodes, inputs.phases):
                agent = server.new_agent(node.kernel, node=node)
                agent.deploy()
                self._log_shipments(agent, capture)
                self.agents.append(agent)
                sim.spawn(self._poll_loop(agent, phase, spec.ship_interval),
                          name=f"bench-poll:{agent.host}")
        pod = app.pods["loadgen"]
        self.loadgen = LoadGenerator(
            pod.node, app.entry_ip, app.entry_port, rate=spec.rate,
            duration=inputs.requests / spec.rate,
            connections=spec.connections, path=spec.path, pod=pod)

    def _log_shipments(self, agent, capture: bool) -> None:
        ship = agent.ship
        shipments = self.shipments
        sim = self.sim

        def logged_ship():
            # ship() hands the pending list to the server and starts a
            # new one, so keeping the list itself costs no copy; only a
            # capturing (untimed) world copies the spans.
            pending = agent.pending_spans
            if pending:
                shipments.append((sim.now, [fresh_copy(span)
                                            for span in pending]
                                  if capture else pending))
            return ship()

        agent.ship = logged_ship

    @staticmethod
    def _poll_loop(agent, phase: float, interval: float):
        """The agent's user-space loop: drain, then ship, every
        *interval* sim seconds starting at *phase*."""
        yield phase
        while True:
            agent.poll()
            agent.ship()
            yield interval

    @property
    def kernels(self) -> list:
        """Every node's kernel."""
        return [node.kernel for node in self.app.cluster.nodes]

    def start(self) -> None:
        """Spawn the wrk2 run."""
        self.load = self.loadgen.run()

    def finish(self) -> None:
        """After the load: let agents settle, flush them, force-finish
        what the push path still holds, and keep the wrk2 report."""
        sim = self.sim
        sim.run(until=sim.now + self.spec.settle_s)
        for agent in self.agents:
            agent.flush(expire=True)
        streaming = self.server.streaming if self.server else None
        if streaming is not None:
            streaming.drain(sim.now)
        self.report = self.load.result

    def instrument(self, tracer: Tracer) -> dict:
        """Put the traced run's spans around this world's layers."""
        return instrument(tracer, sim=self.sim, kernels=self.kernels,
                          agents=self.agents, server=self.server,
                          exporter=self.exporter)


def drive(worlds: list[World]) -> list[float]:
    """Run the worlds' loads to completion in lockstep slices of
    ``SLICE_S`` sim seconds, then finish each; returns each world's wall
    seconds.  Interleaving a DeepFlow world with its bare twin exposes
    both to the same machine noise, which steadies their ratio.  The
    speed probe runs between slices."""
    walls = [0.0] * len(worlds)
    for world in worlds:
        world.start()
    limit = max(world.loadgen.duration for world in worlds) * 20 + 10.0
    now = 0.0
    while not all(world.load.finished for world in worlds):
        now += SLICE_S
        if now > limit:
            raise RuntimeError(f"wrk2 run unfinished at sim t={now:.1f}")
        for index, world in enumerate(worlds):
            if not world.load.finished:
                METER.tick()
                start = perf_counter()
                world.sim.run(until=now)
                walls[index] += perf_counter() - start
    for index, world in enumerate(worlds):
        METER.tick()
        start = perf_counter()
        world.finish()
        walls[index] += perf_counter() - start
    return walls


def load_failures(report) -> int:
    """wrk2 requests that errored, were refused or never finished."""
    return report.errors + (report.sent - report.completed - report.errors)


def sim_ms(values, p: float) -> float:
    """Percentile of sim seconds, in sim milliseconds."""
    return percentile(values, p) * 1e3


# -- workloads ----------------------------------------------------------------


class Workload:
    """Common round structure: set up, run the timed phase, check."""

    name = ""
    spec: AppSpec

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.inputs = make_inputs(self.spec, seed, scale)

    def prepare(self) -> None:
        """One-off input generation before any round (untimed)."""

    def setup(self):
        """Build what one round needs (``setup_s`` times it)."""
        raise NotImplementedError

    def timed(self, state, twin: Optional[World], result: RoundResult,
              timer: Timed) -> None:
        """The timed phase; fills *result*."""
        raise NotImplementedError

    def after(self, state, result: RoundResult) -> None:
        """Untimed correctness checks and sim-time metrics."""

    def layer_counts(self, state) -> dict:
        """Per-layer counts read from the system after a round."""
        return {}

    def twin(self) -> Optional[World]:
        """The bare twin a round runs beside its DeepFlow world."""
        return World(self.spec, self.inputs, deepflow=False)

    def overhead_ratios(self, rounds: list) -> list[float]:
        """DeepFlow sim-run wall over bare-twin wall, per paired run."""
        return [result.run_s / result.bare_s for result in rounds
                if result.bare_s]

    def drive_pair(self, world: World, twin: Optional[World],
                   result: RoundResult) -> None:
        """Drive *world* (and *twin*, interleaved) to the end of the
        load; records both sim-run walls and the twin's failures."""
        walls = drive([world] if twin is None else [world, twin])
        result.run_s = walls[0]
        if twin is not None:
            result.bare_s = walls[1]
            result.attempted += twin.report.sent
            result.fail("bare-twin request failed",
                        load_failures(twin.report))

    def run_round(self, *, tracer: Optional[Tracer] = None,
                  memory: bool = False, bare: bool = True) -> RoundResult:
        """One full round.  *memory* measures the timed phase's peak
        traced allocation (slow: never combined with timings that
        count) and reads each trace once, since later passes repeat the
        same reads; *bare* also runs the bare twin when the workload has
        one."""
        result = RoundResult(query_passes=1 if memory else QUERY_PASSES)
        state = self.setup()
        twin = self.twin() if bare else None
        counters = {}
        if tracer is not None:
            counters = state.instrument(tracer)
        timer = Timed(tracer)
        if memory:
            tracemalloc.start()
        if tracer is not None:
            tracer.active = True
            root = tracer.begin("round")
        start = perf_counter()
        self.timed(state, twin, result, timer)
        result.wall_s = perf_counter() - start
        if tracer is not None:
            tracer.end(root)
            tracer.active = False
            result.tracer = tracer
        if memory:
            result.mem_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
        self.after(state, result)
        if tracer is not None:
            result.layer_counts = {**self.layer_counts(state), **counters}
        return result


class PullWorkload(Workload):
    """bookinfo-pull: load, commit once, read every request's trace."""

    name = "bookinfo-pull"
    spec = BOOKINFO

    def setup(self):
        return World(self.spec, self.inputs, deepflow=True)

    def timed(self, world: World, twin: Optional[World],
              result: RoundResult, timer: Timed) -> None:
        mark = METER.mark()
        timer("run", self.drive_pair, world, twin, result)
        server = world.server
        METER.tick()
        timer("commit", server.store.flush)
        result.spans = len(server.store)
        result.busy_s = result.run_s + timer.walls["commit"]
        result.busy_probe_s = _mean(METER.since(mark))
        world.roots = [span.span_id
                       for span in client_roots(server.store.all_spans())]
        world.traces = timer("query", _timed_queries, server, world.roots,
                             result, timer.tracer)

    def after(self, world: World, result: RoundResult) -> None:
        report = world.report
        result.attempted += report.sent
        result.fail("wrk2 request failed", load_failures(report))
        shipped_at = {span.span_id: clock for clock, batch in world.shipments
                      for span in batch}
        lags = _delivery_lags(shipped_at, world.traces)
        whole = 0
        for spans in world.traces:
            result.attempted += 1
            if signature_of(spans) == self.spec.expected:
                whole += 1
            else:
                result.fail("pull trace is not the expected span set")
        _reference_checks(world.server, world.roots, result)
        result.deterministic = {
            "app_latency_p50_ms": sim_ms(report.latencies, 0.50),
            "app_latency_p99_ms": sim_ms(report.latencies, 0.99),
            "finish_lag_p50_ms": sim_ms(lags, 0.50),
            "finish_lag_p99_ms": sim_ms(lags, 0.99),
            "trace_completeness": whole / max(1, report.sent),
            "spans": len(world.server.store),
            "requests": report.sent,
        }

    def layer_counts(self, world: World) -> dict:
        return _world_counts(world)


class PushWorkload(Workload):
    """springboot-push: streaming assembly and OTLP export at default
    assembler parameters."""

    name = "springboot-push"
    spec = SPRINGBOOT

    def setup(self):
        return World(self.spec, self.inputs, deepflow=True, streaming=True)

    def timed(self, world: World, twin: Optional[World],
              result: RoundResult, timer: Timed) -> None:
        mark = METER.mark()
        timer("run", self.drive_pair, world, twin, result)
        result.spans = world.exporter.inner.exported_spans
        result.busy_s = result.run_s
        result.busy_probe_s = _mean(METER.since(mark))
        # Not part of the push path: the pull traces that score it.
        world.roots = [span.span_id for span in
                       client_roots(world.server.store.all_spans())]
        world.traces = timer("query", _timed_queries, world.server,
                             world.roots, result, timer.tracer)

    def after(self, world: World, result: RoundResult) -> None:
        report = world.report
        result.attempted += report.sent
        result.fail("wrk2 request failed", load_failures(report))
        exporter = world.exporter
        finished = world.server.streaming.finished
        exported = {}   # span id -> span ids of the trace that exported it
        for record in finished:
            ids = frozenset(span.span_id for span in record.trace)
            for span_id in ids:
                exported[span_id] = ids
        whole = 0
        for root, spans in zip(world.roots, world.traces):
            result.attempted += 1
            if signature_of(spans) != self.spec.expected:
                result.fail("pull trace is not the expected span set")
                continue
            if exported.get(root) == frozenset(span.span_id
                                               for span in spans):
                whole += 1
        for length, payload in exporter.samples:
            result.attempted += 1
            try:
                decoded = decode_otlp_json(payload)
            except ValueError:
                result.fail("OTLP payload does not decode")
                continue
            if sum(len(resource["spans"])
                   for resource in decoded["resources"]) != length:
                result.fail("OTLP payload lost spans")
        _reference_checks(world.server, world.roots, result)
        lags = [record.finished_at
                - max(span.end_time for span in record.trace)
                for record in finished]
        stats = world.server.streaming.stats()
        result.deterministic = {
            "app_latency_p50_ms": sim_ms(report.latencies, 0.50),
            "app_latency_p99_ms": sim_ms(report.latencies, 0.99),
            "finish_lag_p50_ms": sim_ms(lags, 0.50),
            "finish_lag_p99_ms": sim_ms(lags, 0.99),
            "trace_completeness": whole / max(1, report.sent),
            "exported_traces": exporter.inner.exported_traces,
            "exported_spans": exporter.inner.exported_spans,
            "fragments": exporter.inner.exported_traces - whole,
            "forced": sum(1 for record in finished
                          if record.reason == "forced"),
            "merges": stats["merges"],
        }

    def layer_counts(self, world: World) -> dict:
        counts = _world_counts(world)
        stats = world.server.streaming.stats()
        counts.update({
            "streaming.merges": stats["merges"],
            "streaming.finished": stats["finished"],
            "export.traces": world.exporter.inner.exported_traces,
            "export.spans": world.exporter.inner.exported_spans,
        })
        return counts


class ReplayState:
    """One replay round: fresh span copies and an empty sharded server."""

    def __init__(self, recording: "Recording") -> None:
        self.shipments = [(clock, [fresh_copy(span) for span in batch])
                          for clock, batch in recording.shipments]
        self.server = DeepFlowServer(shards=ReplayWorkload.SHARDS)
        for vpc, ip, tags in recording.registrations:
            self.server.register_resource_tags(vpc, ip, tags)
        self.traces: list = []
        self.queried: list = []

    def instrument(self, tracer: Tracer) -> dict:
        return instrument(tracer, server=self.server)


@dataclass
class Recording:
    """A Bookinfo run's shipments, recorded once per benchmark run."""

    shipments: list
    registrations: list
    #: (end time, span id) of every client root span, by end time.
    roots: list
    report: object
    #: (label, wrk2 report) of every run made to record and to pair.
    loads: list
    #: DeepFlow ÷ bare-twin wall of each uncaptured paired run.
    ratios: list


class ReplayWorkload(Workload):
    """replay-mixed: recorded shipments replayed into a sharded server
    with reads beside writes."""

    name = "replay-mixed"
    spec = BOOKINFO
    SHARDS = 4
    #: Read requests whose client span ended this long before the
    #: shipment (two ship periods: every span of them has arrived).
    LAG_S = 2 * BOOKINFO.ship_interval

    #: Paired DeepFlow/bare runs that price the recorded run's overhead.
    RATIO_PAIRS = 2

    def prepare(self) -> None:
        """Record the shipments, then time the overhead ratio on paired
        runs that do not capture (copying spans would count as
        DeepFlow's work)."""
        world = World(self.spec, self.inputs, deepflow=True, capture=True)
        drive([world])
        loads = [("wrk2", world.report)]
        ratios = []
        for _ in range(self.RATIO_PAIRS):
            paired = World(self.spec, self.inputs, deepflow=True)
            twin = World(self.spec, self.inputs, deepflow=False)
            gc.collect()
            gc.freeze()
            try:
                deepflow_s, bare_s = drive([paired, twin])
            finally:
                gc.unfreeze()
            ratios.append(deepflow_s / bare_s)
            loads += [("wrk2", paired.report), ("bare-twin", twin.report)]
        self.recording_checked = False
        roots = sorted((span.end_time, span.span_id)
                       for clock, batch in world.shipments
                       for span in batch
                       if span.process_name == "wrk2"
                       and span.side is SpanSide.CLIENT)
        self.recording = Recording(
            shipments=world.shipments, registrations=world.registrations,
            roots=roots, report=world.report, loads=loads, ratios=ratios)

    def setup(self):
        return ReplayState(self.recording)

    def twin(self) -> None:
        """The replay has no sim; its recording ran the twin."""
        return None

    def overhead_ratios(self, rounds: list) -> list[float]:
        """The replay has no sim: the ratios are of runs made beside
        its recording."""
        return self.recording.ratios

    def timed(self, state: ReplayState, twin: None, result: RoundResult,
              timer: Timed) -> None:
        result.query_passes = 1   # each read runs once per round
        timer("replay", self._replay, state, result, timer.tracer)
        result.spans = sum(len(batch) for _clock, batch in state.shipments)

    def _replay(self, state: ReplayState, result: RoundResult,
                tracer: Optional[Tracer]) -> None:
        server = state.server
        roots = self.recording.roots
        next_root = 0
        mark = METER.mark()
        busy = 0.0
        for index, (clock, batch) in enumerate(state.shipments):
            if tracer is not None:
                tracer.request = index
            METER.tick()
            start = perf_counter()
            server.ingest_spans(batch, now=clock)
            due = clock - self.LAG_S
            while next_root < len(roots) and roots[next_root][0] <= due:
                self._read_root(state, roots[next_root][1], result, tracer)
                next_root += 1
            busy += perf_counter() - start
        METER.tick()
        start = perf_counter()
        for _end, root_id in roots[next_root:]:
            self._read_root(state, root_id, result, tracer)
        result.busy_s = busy + perf_counter() - start
        result.query_probes = METER.since(mark)
        result.busy_probe_s = _mean(result.query_probes)

    @staticmethod
    def _read_root(state: ReplayState, root_id: int, result: RoundResult,
                   tracer: Optional[Tracer]) -> None:
        """One timed read; a root not yet stored is a failed read,
        recorded as ``None``."""
        if tracer is not None:
            tracer.request = root_id
        try:
            spans, seconds = _read(state.server.trace, root_id)
        except KeyError:
            spans = None
        else:
            result.query_s.append([seconds])
            state.queried.append(root_id)
        state.traces.append(spans)

    def after(self, state: ReplayState, result: RoundResult) -> None:
        recording = self.recording
        report = recording.report
        if not self.recording_checked:
            self.recording_checked = True
            for label, run in recording.loads:
                result.attempted += run.sent
                result.fail(f"{label} request failed", load_failures(run))
        whole = 0
        for spans in state.traces:
            result.attempted += 1
            if spans is not None and signature_of(spans) == \
                    self.spec.expected:
                whole += 1
            else:
                result.fail("pull trace is not the expected span set")
        _reference_checks(state.server, state.queried, result)
        shipped_at = {span.span_id: clock
                      for clock, batch in recording.shipments
                      for span in batch}
        lags = _delivery_lags(shipped_at, state.traces)
        stats = state.server.store.shard_stats()
        result.deterministic = {
            "app_latency_p50_ms": sim_ms(report.latencies, 0.50),
            "app_latency_p99_ms": sim_ms(report.latencies, 0.99),
            "finish_lag_p50_ms": sim_ms(lags, 0.50),
            "finish_lag_p99_ms": sim_ms(lags, 0.99),
            "trace_completeness": whole / max(1, len(recording.roots)),
            "spans": stats["spans"],
            "boundary_links": stats["boundary_links"],
        }

    def layer_counts(self, state: ReplayState) -> dict:
        stats = state.server.store.shard_stats()
        return {
            "server.boundary_links": stats["boundary_links"],
            "server.shard_imbalance": stats["imbalance"],
            "server.spans_per_query": _mean_size(state.traces),
        }


def _read(trace, root_id) -> tuple:
    """One timed ``trace()`` call with the cyclic collector paused;
    returns the trace and the call's wall seconds.

    The benchmark process also holds the simulated apps, agents and
    inputs, so a collection landing inside a read would charge the
    read for objects a real server does not have.  The paused work runs
    at the next allocation after the read, inside the phase timers.
    """
    gc.disable()
    try:
        start = perf_counter()
        result = trace(root_id)
        seconds = perf_counter() - start
    finally:
        gc.enable()
    return result, seconds


def _timed_queries(server, roots, result: RoundResult,
                   tracer: Optional[Tracer]) -> list:
    """``trace()`` for every root span, in ``result.query_passes``
    passes, each read timed on its own into ``result.query_s``.
    Returns the first pass's traces."""
    trace = server.trace
    times = [[] for _ in roots]
    first = []
    mark = METER.mark()
    for _ in range(result.query_passes):
        for index, root_id in enumerate(roots):
            if tracer is not None:
                tracer.request = root_id
            METER.tick()
            spans, seconds = _read(trace, root_id)
            times[index].append(seconds)
            if len(first) < len(roots):
                first.append(spans)
    result.query_s = times
    result.query_probes = METER.since(mark)
    return first


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _reference_checks(server, roots, result: RoundResult) -> None:
    """Every ``REFERENCE_EVERY``-th indexed trace must equal the
    iterative Algorithm 1 reference."""
    for root_id in roots[::REFERENCE_EVERY]:
        result.attempted += 1
        indexed = {span.span_id for span in server.trace(root_id)}
        reference = {span.span_id
                     for span in server.trace(root_id, use_index=False)}
        if indexed != reference:
            result.fail("indexed trace differs from the reference")


def _delivery_lags(shipped_at: dict, traces: list) -> list[float]:
    """Sim seconds from each trace's last span end to the shipment that
    delivered the last of its spans (failed reads are skipped)."""
    return [max(shipped_at[span.span_id] for span in spans)
            - max(span.end_time for span in spans)
            for spans in traces if spans is not None]


def _mean_size(traces: list) -> float:
    """Mean span count of the traces read (a failed read counts 0)."""
    sizes = [len(trace) if trace is not None else 0 for trace in traces]
    return sum(sizes) / len(sizes) if sizes else 0.0


def _world_counts(world: World) -> dict:
    """Per-layer counts a DeepFlow world keeps itself (one unsharded
    store: no boundary links, no imbalance)."""
    agents = world.agents
    return {
        "kernel.hook_fires": sum(kernel.hooks.total_firings
                                 for kernel in world.kernels),
        "kernel.ring_drops": sum(agent.perf.dropped for agent in agents),
        "agent.events": sum(agent.stats["events_processed"]
                            for agent in agents),
        "agent.spans": sum(agent.stats["spans_shipped"]
                           for agent in agents),
        "server.boundary_links": 0,
        "server.shard_imbalance": 1.0,
        "server.spans_per_query": _mean_size(world.traces),
    }


WORKLOADS = {
    workload.name: workload
    for workload in (PullWorkload, PushWorkload, ReplayWorkload)
}
