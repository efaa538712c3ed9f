"""Explicit-context-propagation tracers (Jaeger-like and Zipkin-like).

Mechanics reproduced from the intrusive frameworks the paper compares
against (§5.4):

* per-request **trace id** minted at the edge and carried in message
  headers (the explicit propagation DeepFlow avoids);
* a **server span** per handled request and a **client span** per
  downstream call, linked by parent span ids;
* **per-operation overhead** charged to the application thread
  (instrumentation, id generation, serialization, reporting);
* spans live in the tracer's own collector; they can additionally be
  exported to DeepFlow as third-party spans (§3.3.2's integration).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.core.span import Span, SpanKind, SpanSide


@dataclass
class AppSpanHandle:
    """An in-flight application span."""

    tracer: "IntrusiveTracer"
    name: str
    trace_id: str
    span_id: str
    parent_span_id: Optional[str]
    side: str  # "server" | "client"
    start_time: float
    component_name: str = ""
    host: str = ""
    pid: int = 0
    finished: bool = False


class IntrusiveTracer:
    """Base explicit-propagation tracer."""

    #: Propagation header style; subclasses override.
    header_format = "w3c"
    name = "intrusive"

    def __init__(self, sim, *, overhead: float = 120e-6,
                 export_server=None):
        self.sim = sim
        self.overhead = overhead
        self.export_server = export_server
        self.spans: list[Span] = []
        self._id_counter = itertools.count(1)

    # -- id generation -----------------------------------------------------

    def _new_trace_id(self) -> str:
        return f"{next(self._id_counter):032x}"

    def _new_span_id(self) -> str:
        return f"{next(self._id_counter):016x}"

    # -- context extraction / injection ---------------------------------

    def extract(self, headers: dict[str, str]
                ) -> tuple[Optional[str], Optional[str]]:
        """(trace_id, parent_span_id) from incoming headers, if present."""
        if self.header_format == "w3c":
            value = headers.get("traceparent")
            if value:
                parts = value.split("-")
                if len(parts) >= 3:
                    return parts[1], parts[2]
        else:
            value = headers.get("b3")
            if value:
                parts = value.split("-")
                if len(parts) >= 2:
                    return parts[0], parts[1]
        return None, None

    def inject(self, handle: AppSpanHandle) -> dict[str, str]:
        """Headers carrying *handle*'s context (explicit propagation)."""
        if self.header_format == "w3c":
            return {"traceparent":
                    f"00-{handle.trace_id}-{handle.span_id}-01"}
        return {"b3": f"{handle.trace_id}-{handle.span_id}-1"}

    # -- span lifecycle ----------------------------------------------------

    def start_server_span(self, component, headers: dict[str, str],
                          name: str) -> AppSpanHandle:
        """Open a server-side span for an incoming request."""
        trace_id, parent_span_id = self.extract(headers)
        if trace_id is None:
            trace_id = self._new_trace_id()
        handle = AppSpanHandle(
            tracer=self, name=name, trace_id=trace_id,
            span_id=self._new_span_id(), parent_span_id=parent_span_id,
            side="server", start_time=self.sim.now,
            component_name=component.name,
            host=component.kernel.host_name,
            pid=component.process.pid if component.process else 0)
        return handle

    def start_client_span(self, component,
                          parent: Optional[AppSpanHandle],
                          name: str) -> AppSpanHandle:
        """Open a client-side span for an outgoing call."""
        trace_id = parent.trace_id if parent else self._new_trace_id()
        handle = AppSpanHandle(
            tracer=self, name=name, trace_id=trace_id,
            span_id=self._new_span_id(),
            parent_span_id=parent.span_id if parent else None,
            side="client", start_time=self.sim.now,
            component_name=component.name,
            host=component.kernel.host_name,
            pid=component.process.pid if component.process else 0)
        return handle

    def finish_span(self, handle: AppSpanHandle, status: str = "ok",
                    status_code: Optional[int] = None) -> Span:
        """Close the span, export it, and return it."""
        if handle.finished:
            raise RuntimeError(f"span {handle.span_id} already finished")
        handle.finished = True
        span = Span(
            span_id=int(handle.span_id, 16),
            kind=SpanKind.APP,
            side=SpanSide.APP,
            start_time=handle.start_time,
            end_time=self.sim.now,
            host=handle.host,
            process_name=handle.component_name,
            pid=handle.pid,
            operation=handle.name,
            status=status,
            status_code=status_code,
            otel_trace_id=handle.trace_id,
            otel_span_id=handle.span_id,
            otel_parent_span_id=handle.parent_span_id,
        )
        span.tags["tracer"] = self.name
        self.spans.append(span)
        if self.export_server is not None:
            self.export_server.ingest_spans([span])
        return span

    # -- analysis helpers ----------------------------------------------------

    def traces(self) -> dict[str, list[Span]]:
        """Finished spans grouped by trace id."""
        grouped: dict[str, list[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.otel_trace_id, []).append(span)
        return grouped

    def spans_per_trace(self) -> float:
        """Average finished spans per trace id."""
        grouped = self.traces()
        if not grouped:
            return 0.0
        return len(self.spans) / len(grouped)


class JaegerTracer(IntrusiveTracer):
    """Jaeger-like: W3C trace-context propagation."""

    header_format = "w3c"
    name = "jaeger"


class ZipkinTracer(IntrusiveTracer):
    """Zipkin-like: B3 single-header propagation."""

    header_format = "b3"
    name = "zipkin"
