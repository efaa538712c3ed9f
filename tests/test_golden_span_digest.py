"""Golden span digests: the span path's output, pinned bit for bit.

Two small fixed-seed worlds run at production-default agent and
assembler parameters — Bookinfo on the pull path and the Spring Boot
demo with streaming assembly and OTLP export — and everything they
produce is hashed: every stored span's fields (floats via
``float.hex()``, tags and metrics in insertion order, ``parent_id``),
the wrk2 latencies and, on the push path, the exported OTLP payloads.

``test_determinism_and_scale`` compares two runs of one version; these
digests compare against the recorded output of earlier versions, so a
change meant to be output-neutral (a performance change, a refactor)
must leave them untouched.  Update a digest only with a change that
alters the span output on purpose, and say why in its description.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

from repro.apps import bookinfo, springboot
from repro.apps.loadgen import LoadGenerator
from repro.core.span import Span, SpanSide
from repro.network.faults import LatencyFault
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator

BOOKINFO_DIGEST = (
    "27531c790121213eaee82b7fe3f2d661e126d70500053d1b13f71a8eeb66ad20")
SPRINGBOOT_DIGEST = (
    "49c7f5b4e765f4880bbfe4d1b8298186bacba30762d477295d8b4f4d5ff89dda")

#: Fields of :class:`Span`, in declaration order.
SPAN_FIELDS = tuple(field.name for field in dataclasses.fields(Span))


def _canon(value) -> str:
    """Exact, type-tagged text for a span field value."""
    if isinstance(value, float):
        return "f" + value.hex()
    if isinstance(value, enum.Enum):
        return "e" + _canon(value.value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canon(item) for item in value) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_canon(key)}:{_canon(item)}"
                              for key, item in value.items()) + "}"
    return repr(value)


def _digest(server: DeepFlowServer, report, payloads=()) -> str:
    sha = hashlib.sha256()
    spans = sorted(server.store.all_spans(), key=lambda span: span.span_id)
    for span in spans:
        for name in SPAN_FIELDS:
            sha.update(f"{name}={_canon(getattr(span, name))};".encode())
        sha.update(b"\n")
    sha.update(f"spans={len(spans)}\n".encode())
    sha.update(f"sent={report.sent} completed={report.completed} "
               f"errors={report.errors}\n".encode())
    sha.update(_canon(report.latencies).encode())
    for payload in payloads:
        sha.update(json.dumps(payload).encode())
    return sha.hexdigest()


def _world(build, seed: int, streaming: bool):
    sim = Simulator(seed=seed)
    app = build(sim)
    for device in app.cluster.all_devices():
        device.add_fault(LatencyFault(0.0, jitter=0.0001))
    server = DeepFlowServer(streaming=streaming)
    if streaming:
        server.streaming.run(sim)
    agents = []
    for node in app.cluster.nodes:
        agent = server.new_agent(node.kernel, node=node)
        agent.deploy()
        agent.start_polling()
        agents.append(agent)
    return sim, app, server, agents


def _drive(sim, app, agents, path: str, rate: float, requests: int,
           settle: float):
    pod = app.pods["loadgen"]
    generator = LoadGenerator(pod.node, app.entry_ip, app.entry_port,
                              rate=rate, duration=requests / rate,
                              connections=8, path=path, pod=pod)
    report = sim.run_process(generator.run())
    sim.run(until=sim.now + settle)
    for agent in agents:
        agent.flush(expire=True)
    return report


def bookinfo_digest() -> str:
    """Pull path: load, flush, assemble every wrk2 root's trace."""
    sim, app, server, agents = _world(bookinfo.build, 4242, False)
    report = _drive(sim, app, agents, "/productpage", 250.0, 100, 0.05)
    roots = sorted((span for span in server.store.all_spans()
                    if span.process_name == "wrk2"
                    and span.side is SpanSide.CLIENT),
                   key=lambda span: span.span_id)
    for root in roots:
        server.trace(root.span_id)
    return _digest(server, report)


def springboot_digest() -> str:
    """Push path: streaming assembly and OTLP export at defaults."""
    sim, app, server, agents = _world(springboot.build, 4343, True)
    report = _drive(sim, app, agents, "/api/orders", 300.0, 100, 0.5)
    server.streaming.drain(sim.now)
    return _digest(server, report, server.streaming.exporter.trace_payloads)


def test_bookinfo_pull_span_digest_is_golden():
    assert bookinfo_digest() == BOOKINFO_DIGEST


def test_springboot_push_span_digest_is_golden():
    assert springboot_digest() == SPRINGBOOT_DIGEST
