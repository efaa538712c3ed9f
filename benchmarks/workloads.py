"""Benchmark workloads: one definition of each generated input and driver.

The pytest benches in this directory assert the paper's shapes on these
workloads, and ``tools/bench_report.py`` records their figures in
``BENCH_results.json``.  Each harness keeps its own measurement
procedure (sizes, repeats, aggregation, GC pausing); what they share is
defined here once, so the two harnesses cannot drift apart.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

from repro.agent.agent import AgentConfig
from repro.apps.loadgen import LoadGenerator
from repro.apps.runtime import HttpService, Response
from repro.core.export import OtlpStreamExporter
from repro.core.span import Span, SpanKind, SpanSide
from repro.kernel.sockets import FiveTuple
from repro.kernel.syscalls import Direction, SyscallRecord
from repro.network.topology import ClusterBuilder
from repro.network.transport import Network
from repro.protocols import http1
from repro.server.database import SpanStore
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator

# -- agent pipeline ----------------------------------------------------------


def synthetic_records(count: int) -> list[SyscallRecord]:
    """Alternating request/response records across 8 fake connections."""
    request = http1.encode_request("GET", "/api/items")
    response = http1.encode_response(200, body=b"[]")
    records = []
    t = 0.0
    for index in range(count // 2):
        socket_id = index % 8
        ft = FiveTuple("10.0.0.1", 40000 + socket_id, "10.0.0.2", 80)
        for direction, abi, payload in (
                (Direction.INGRESS, "read", request),
                (Direction.EGRESS, "write", response)):
            t += 1e-4
            records.append(SyscallRecord(
                pid=1, tid=100 + socket_id, coroutine_id=None,
                process_name="svc", socket_id=socket_id, five_tuple=ft,
                tcp_seq=index * 100 + 1, enter_time=t,
                exit_time=t + 1e-5, direction=direction, abi=abi,
                byte_len=len(payload), payload=payload,
                ret=len(payload), host_name="node-1"))
    return records


# -- span store and Algorithm 1 ----------------------------------------------


def store_spans(count: int,
                next_id: Optional[Callable[[], int]] = None) -> list[Span]:
    """Groups of four spans share a systrace id; flows cycle over 977
    keys.  Span ids come from *next_id* when given, else the index."""
    return [Span(
        span_id=next_id() if next_id is not None else index,
        kind=SpanKind.SYSCALL,
        side=SpanSide.CLIENT if index % 2 else SpanSide.SERVER,
        start_time=index * 1e-4, end_time=index * 1e-4 + 1e-3,
        systrace_id=index // 4, flow_key=("flow", index % 977),
        req_tcp_seq=index) for index in range(count)]


def chain_store(groups: int, chain: int) -> tuple[SpanStore, list[Span]]:
    """A committed store of *groups* chain-shaped trace components of
    *chain* spans each.

    Adjacent spans alternate systrace and X-Request-ID pair links, so
    each component is a path graph: the worst case for the iterative
    reference (the frontier advances one hop per round) while the
    union-find answers it in one lookup.  ``chain`` stays well under the
    30-iteration default so the reference still converges and the two
    paths return identical span sets.
    """
    store = SpanStore()
    spans = []
    span_id = 0
    for group in range(groups):
        for pos in range(chain):
            spans.append(Span(
                span_id=span_id, kind=SpanKind.SYSCALL,
                side=SpanSide.CLIENT if pos % 2 else SpanSide.SERVER,
                start_time=span_id * 1e-4, end_time=span_id * 1e-4 + 1e-3,
                # pairs (0,1), (2,3), ... share a systrace id
                systrace_id=group * chain + pos // 2,
                # pairs (1,2), (3,4), ... share an X-Request-ID
                x_request_id=(f"x-{group}-{(pos + 1) // 2}"
                              if pos > 0 else None)))
            span_id += 1
    store.insert_many(spans)
    store.flush()
    return store, spans


# -- sharded ingest ------------------------------------------------------------

#: Modeled size of the routing fleet: agents route client-side (the
#: router is stateless), so routing cost divides across the agent fleet
#: regardless of how many shards it feeds.
ROUTER_CLIENTS = 8
#: Routing time window of the sharded stores, seconds.
SHARD_WINDOW = 0.5


def sharding_spans(count: int) -> list[Span]:
    """Groups of four spans share a systrace id (the routing key); every
    tenth group also carries the previous group's X-Request-ID, so a
    slice of the population associates across routing keys — and, near
    window edges, across shards — keeping the boundary-merge machinery
    on the measured path."""
    spans = []
    for index in range(count):
        group = index // 4
        xreq = None
        if group % 10 == 0 and group > 0 and index % 4 == 0:
            xreq = f"xr-{group - 1}"
        elif group % 10 == 9 and index % 4 == 3:
            xreq = f"xr-{group}"
        spans.append(Span(
            span_id=index, kind=SpanKind.SYSCALL,
            side=SpanSide.CLIENT if index % 2 else SpanSide.SERVER,
            start_time=index * 1e-4, end_time=index * 1e-4 + 1e-3,
            systrace_id=group, x_request_id=xreq,
            flow_key=("flow", index % 977), req_tcp_seq=index))
    return spans


class PhaseTimes(NamedTuple):
    """Wall-clock seconds of each member of each ingest phase."""

    route: list[float]
    shard: list[float]
    partition: list[float]
    apply: float

    @property
    def modeled(self) -> float:
        """Parallel deployment: each phase costs its slowest member."""
        return (max(self.route) + max(self.shard) + max(self.partition)
                + self.apply)

    @property
    def serial(self) -> float:
        """This single process: every member runs in turn."""
        return (sum(self.route) + sum(self.shard) + sum(self.partition)
                + self.apply)


def ingest_phased(store, spans: list[Span]) -> PhaseTimes:
    """Ingest *spans* into a fresh ``ShardedSpanStore`` phase by phase,
    timing every member a sharded deployment runs in parallel.

    Routing is stateless and done client-side, split over
    :data:`ROUTER_CLIENTS` clients.  Each shard then inserts, commits
    and seals its first-seen keys; each boundary partition probes its
    owner table; the one serial step applies the cross-shard links.
    The caller owns GC pausing.
    """
    chunk = (len(spans) + ROUTER_CLIENTS - 1) // ROUTER_CLIENTS
    route_times, client_batches = [], []
    for begin in range(0, len(spans), chunk):
        clock = time.perf_counter()
        client_batches.append(
            store.route_batches(spans[begin:begin + chunk]))
        route_times.append(time.perf_counter() - clock)
    merged = [[] for _ in range(store.shard_count)]
    for batches in client_batches:
        for index, batch in enumerate(batches):
            merged[index].extend(batch)
    shard_times = []
    for index, batch in enumerate(merged):
        clock = time.perf_counter()
        store.shards[index].insert_many(batch)
        store.shards[index].flush()
        store.seal_shard(index)
        shard_times.append(time.perf_counter() - clock)
    partition_times, links = [], []
    for partition in range(store.partition_count):
        clock = time.perf_counter()
        links.extend(store.probe_partition(partition))
        partition_times.append(time.perf_counter() - clock)
    clock = time.perf_counter()
    store.apply_boundary_links(links)
    apply_seconds = time.perf_counter() - clock
    return PhaseTimes(route_times, shard_times, partition_times,
                      apply_seconds)


# -- agent self-protection under overload --------------------------------------

#: The ramp deliberately overruns the agent: at the 12k rps crest the
#: node produces ~24k syscall records/s against a 128-slot perf ring
#: polled every 10 ms — roughly 10x what FULL-fidelity draining absorbs.
START_RPS = 100.0
END_RPS = 12_000.0
RAMP_SECONDS = 1.5
PERF_CAPACITY = 128
POLL_INTERVAL = 0.01
SERVICE_TIME = 0.00005
OVERLOAD_SEED = 11


def run_overloaded_world(protection: bool) -> dict:
    """One node hosting both the generator and the service, so a single
    agent observes both sides of every flow; returns the measurements
    the tests and the table share."""
    sim = Simulator(seed=OVERLOAD_SEED)
    builder = ClusterBuilder(node_count=1)
    wrk_pod = builder.add_pod(0, "wrk2-pod")
    web_pod = builder.add_pod(0, "web-pod")
    cluster = builder.build()
    Network(sim, cluster)
    server = DeepFlowServer()
    config = AgentConfig(perf_buffer_capacity=PERF_CAPACITY,
                         overload_protection=protection)
    node = cluster.nodes[0]
    agent = server.new_agent(node.kernel, node=node, config=config)
    agent.deploy(mode="full")

    service = HttpService("web", web_pod.node, 80, pod=web_pod,
                          service_time=SERVICE_TIME)

    @service.route("/")
    def index(worker, request):
        return Response(200, body=b"ok")
        yield

    service.start()
    agent.start_polling(interval=POLL_INTERVAL)
    generator = LoadGenerator(wrk_pod.node, web_pod.ip, 80, rate=1.0,
                              duration=1.0, connections=16, pod=wrk_pod,
                              name="wrk2")
    generator.ramp(START_RPS, END_RPS, RAMP_SECONDS)
    report = sim.run_process(generator.run())
    sim.run(until=sim.now + 0.5)
    agent.flush(expire=True)

    health = agent.health()
    spans, whole, torn, completeness = trace_stats(server, sim)
    return {
        "report": report,
        "health": health,
        "transitions": list(health.get("transitions", [])),
        "dropped": health["perf"]["dropped"],
        "kernel_cost_ms": node.kernel.hooks.total_cost_ns / 1e6,
        "spans": spans,
        "whole": whole,
        "torn": torn,
        "completeness": completeness,
    }


def trace_stats(server, sim):
    """(syscall spans, whole traces, torn traces, completeness).

    A trace here is one request/response exchange keyed by
    ``(flow_key, req_tcp_seq)``; it is *whole* when both vantage points
    (CLIENT and SERVER side) produced a healthy span, and *torn* when
    only one side survived or the session surfaced as an error — the
    shredding signature of non-atomic record loss.
    """
    spans = [span for span in server.span_list(0.0, sim.now + 1000.0)
             if span.kind is SpanKind.SYSCALL]
    sides_by_exchange = defaultdict(set)
    errors = 0
    for span in spans:
        if span.tags.get("error.kind"):
            errors += 1
            continue
        sides_by_exchange[(span.flow_key, span.req_tcp_seq)].add(
            span.side.name)
    whole = sum(1 for sides in sides_by_exchange.values()
                if len(sides) == 2)
    torn = sum(1 for sides in sides_by_exchange.values()
               if len(sides) < 2) + errors
    return len(spans), whole, torn, whole / max(1, whole + torn)


# -- continuous pipeline ---------------------------------------------------------

#: Spans per ingest call of the push-path run (one agent shipment).
STREAM_BATCH = 512


def make_streaming_spans(count: int) -> list[Span]:
    """Groups of four spans per trace; the group's first span is a
    server-side entry that encloses the rest, so finished traces retire
    through the root-complete heuristic while ingest is still running
    (the continuous pipeline's steady state, not a terminal drain)."""
    spans = []
    for index in range(count):
        group = index // 4
        pos = index % 4
        group_t = group * 4e-5
        start = group_t + pos * 1e-6
        end = group_t + (2e-3 if pos == 0 else 1e-3 + pos * 1e-6)
        spans.append(Span(
            span_id=index + 1, kind=SpanKind.SYSCALL,
            side=SpanSide.SERVER if pos == 0 else SpanSide.CLIENT,
            start_time=start, end_time=end,
            host="n1", process_name=f"svc-{group % 7}",
            protocol="http", operation="GET", resource="/api",
            status="ok", status_code=200,
            systrace_id=group))
    return spans


def run_streaming_workload(spans: list[Span], *, repeats: int = 3) -> dict:
    """Best-of-*repeats* wall clock for the full push path (ingest →
    assembly → OTLP export) on fresh servers; returns its figures and,
    under ``"server"``, the last run's server.

    The collector is paused while it runs: a whole-process gen-2 pass
    landing mid-measurement is a single-process artifact, not a cost of
    the pipeline.
    """
    elapsed = None
    server = None
    exporter = None
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _attempt in range(repeats):
            server = DeepFlowServer()
            exporter = OtlpStreamExporter(keep_payloads=False)
            server.enable_streaming(exporter=exporter)
            clock = time.perf_counter()
            for start in range(0, len(spans), STREAM_BATCH):
                batch = spans[start:start + STREAM_BATCH]
                server.ingest_spans(batch, now=batch[-1].end_time)
            end_time = spans[-1].end_time
            server.streaming.tick(end_time + 0.06)  # root-grace finish
            server.streaming.drain(end_time + 0.06)  # stragglers
            run = time.perf_counter() - clock
            elapsed = run if elapsed is None else min(elapsed, run)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    assert exporter.exported_spans == len(spans)
    lag = server.pipeline_metrics.get("stream.finish_lag_s")
    stream = server.streaming.stats()
    return {
        "spans": len(spans),
        "traces": exporter.exported_traces,
        "spans_per_second": round(len(spans) / elapsed),
        "elapsed_ms": round(elapsed * 1e3, 1),
        "p99_finish_lag_ms": round(lag.percentile(0.99) * 1e3, 1),
        "mean_finish_lag_ms": round(lag.mean() * 1e3, 2),
        "merges": stream["merges"],
        "forced_finishes": sum(
            1 for record in server.streaming.finished
            if record.reason == "forced"),
        "server": server,
    }
