"""Trace export to interchange formats.

Assembled traces can be handed to existing visualization and pipeline
tooling in two forms, registered in :data:`FORMATS`:

* ``jaeger`` — the Jaeger UI JSON layout (one object per trace with
  ``spans`` and ``processes``);
* ``otlp`` (also registered as ``otlp-json``) — the one OTLP encoding,
  the canonical OTLP/JSON shape the continuous pipeline emits:
  ``resourceSpans`` → resource (attribute kv-list) →
  ``scopeSpans`` → scope → spans, with 32-hex trace ids, 16-hex span
  ids, int64 timestamps as decimal strings, and span attributes that
  follow the OBI naming conventions (``net.host.name``,
  ``http.method``, ``http.route``, ``http.status_code``) documented in
  :data:`SPAN_ATTRIBUTE_CONVENTIONS`.

The OTLP form is round-trippable: :func:`decode_otlp_json`
validates the full schema (raising :class:`OtlpDecodeError` on any
deviation) and :func:`encode_decoded` re-encodes the decoded form to
the byte-identical payload — export → decode → re-export is a fixed
point, which the property tests in ``tests/test_otlp_roundtrip.py``
enforce.  Pipeline self-metrics export through the matching
``resourceMetrics`` shape (:func:`metrics_to_otlp_json`).
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Optional

from repro.core.metrics import PipelineMetrics
from repro.core.span import Span, SpanSide, Trace

#: Scope identity stamped on every exported payload.
SCOPE_NAME = "repro.deepflow"
SCOPE_VERSION = "0.1.0"

#: OTLP enum values accepted by the decoder.
SPAN_KIND_VALUES = frozenset({
    "SPAN_KIND_SERVER", "SPAN_KIND_CLIENT", "SPAN_KIND_INTERNAL",
    "SPAN_KIND_PRODUCER", "SPAN_KIND_CONSUMER",
})
STATUS_CODE_VALUES = frozenset({
    "STATUS_CODE_UNSET", "STATUS_CODE_OK", "STATUS_CODE_ERROR",
})

#: Message-queue protocols whose client/server sides map to the OTLP
#: producer/consumer span kinds instead of client/server.
MESSAGING_PROTOCOLS = frozenset({"amqp", "kafka", "mqtt"})

#: Exact attribute keys the ``otlp-json`` exporter may emit, with their
#: OTLP value type.  ``net.host.name`` / ``http.*`` follow the OBI
#: conventions (SNIPPETS.md §1); ``deepflow.*`` carries the
#: repo-specific fields that have no standard key.
SPAN_ATTRIBUTE_CONVENTIONS: dict[str, tuple[str, str]] = {
    "net.host.name": ("string", "host the span was captured on"),
    "process.pid": ("int", "pid of the traced process"),
    "http.method": ("string", "request method, http-family spans"),
    "http.route": ("string", "request route, http-family spans"),
    "http.status_code": ("int", "response status, http-family spans"),
    "deepflow.source": ("string", "data source: ebpf / ebpf-uprobe / "
                                  "cbpf / app"),
    "deepflow.side": ("string", "vantage point: s / c / net / app"),
    "deepflow.protocol": ("string", "inferred application protocol"),
    "deepflow.operation": ("string", "operation, non-http spans"),
    "deepflow.resource": ("string", "resource, non-http spans"),
    "deepflow.status_code": ("int", "numeric status, non-http spans"),
    "deepflow.request_bytes": ("int", "request payload size"),
    "deepflow.response_bytes": ("int", "response payload size"),
}

#: Namespaced prefixes for the open-ended correlation payload (§3.4):
#: tag values export as strings, metric values as doubles.
SPAN_ATTRIBUTE_PREFIXES: dict[str, tuple[str, str]] = {
    "deepflow.tag.": ("string", "span tag from the correlation payload"),
    "deepflow.metric.": ("double", "span metric from the correlation "
                                   "payload"),
}


class OtlpDecodeError(ValueError):
    """An OTLP-shaped payload failed schema validation."""


#: Precomputed id masks/format specs: _hex_id runs three times per
#: exported span, so the per-call ``16 ** width`` exponentiation and
#: f-string spec assembly are worth hoisting.
_HEX_SPEC = {16: ((1 << 64) - 1, "016x"), 32: ((1 << 128) - 1, "032x")}


def _hex_id(value: int | None, width: int = 16) -> str:
    if value is None:
        return ""
    mask, spec = _HEX_SPEC[width]
    return format(value & mask, spec)


# ---------------------------------------------------------------------------
# Jaeger form
# ---------------------------------------------------------------------------

def span_to_jaeger(span: Span, trace_id: str) -> dict[str, Any]:
    """One span in Jaeger UI JSON form."""
    tags = [{"key": key, "type": "string", "value": str(value)}
            for key, value in sorted(span.tags.items())]
    tags.append({"key": "span.kind", "type": "string",
                 "value": span.kind.value})
    tags.append({"key": "deepflow.side", "type": "string",
                 "value": span.side.value})
    if span.status_code is not None:
        tags.append({"key": "http.status_code", "type": "int64",
                     "value": span.status_code})
    for key, value in sorted(span.metrics.items()):
        tags.append({"key": key, "type": "float64", "value": value})
    references = []
    if span.parent_id is not None:
        references.append({"refType": "CHILD_OF", "traceID": trace_id,
                           "spanID": _hex_id(span.parent_id)})
    return {
        "traceID": trace_id,
        "spanID": _hex_id(span.span_id),
        "operationName": span.endpoint or span.protocol or "span",
        "references": references,
        "startTime": int(span.start_time * 1e6),
        "duration": max(1, int(span.duration * 1e6)),
        "tags": tags,
        "processID": f"p-{span.process_name or span.device_name}",
    }


def trace_to_jaeger(trace: Trace) -> dict[str, Any]:
    """A whole trace in the Jaeger UI's ``{data: [...]}`` element form."""
    roots = trace.roots()
    trace_id = _hex_id(roots[0].span_id if roots else 0, width=32)
    processes = {}
    for span in trace:
        key = f"p-{span.process_name or span.device_name}"
        processes.setdefault(key, {
            "serviceName": span.process_name or span.device_name,
            "tags": [{"key": "host", "type": "string",
                      "value": span.host}],
        })
    return {
        "traceID": trace_id,
        "spans": [span_to_jaeger(span, trace_id) for span in trace],
        "processes": processes,
    }


# ---------------------------------------------------------------------------
# Canonical OTLP/JSON form
# ---------------------------------------------------------------------------

def _span_kind(span: Span) -> str:
    """OTLP span kind: messaging sides map to producer/consumer."""
    side = span.side
    if span.protocol in MESSAGING_PROTOCOLS:
        if side is SpanSide.CLIENT:
            return "SPAN_KIND_PRODUCER"
        if side is SpanSide.SERVER:
            return "SPAN_KIND_CONSUMER"
    if side is SpanSide.SERVER:
        return "SPAN_KIND_SERVER"
    if side is SpanSide.CLIENT:
        return "SPAN_KIND_CLIENT"
    return "SPAN_KIND_INTERNAL"


def _span_status(span: Span) -> tuple[str, Optional[str]]:
    """(status code, optional message) per the OTLP status mapping."""
    if span.is_error:
        message = str(span.tags.get("error.kind", "")) or "error"
        return "STATUS_CODE_ERROR", message
    if span.status:
        return "STATUS_CODE_OK", None
    return "STATUS_CODE_UNSET", None


def span_attribute_tuples(span: Span) -> list[tuple[str, str, Any]]:
    """Typed ``(key, value_type, value)`` attributes for *span*.

    Every key is either an exact entry in
    :data:`SPAN_ATTRIBUTE_CONVENTIONS` or namespaced under one of
    :data:`SPAN_ATTRIBUTE_PREFIXES` — the convention the property test
    locks down.  Sorted by key (the canonical encoding order).
    """
    attrs: list[tuple[str, str, Any]] = []
    if span.host:
        attrs.append(("net.host.name", "string", span.host))
    if span.pid:
        attrs.append(("process.pid", "int", span.pid))
    attrs.append(("deepflow.source", "string", span.kind.value))
    attrs.append(("deepflow.side", "string", span.side.value))
    if span.protocol:
        attrs.append(("deepflow.protocol", "string", span.protocol))
    http_family = span.protocol.startswith("http") \
        or span.protocol == "grpc"
    if http_family:
        if span.operation:
            attrs.append(("http.method", "string", span.operation))
        if span.resource:
            attrs.append(("http.route", "string", span.resource))
        if span.status_code is not None:
            attrs.append(("http.status_code", "int", span.status_code))
    else:
        if span.operation:
            attrs.append(("deepflow.operation", "string",
                          span.operation))
        if span.resource:
            attrs.append(("deepflow.resource", "string", span.resource))
        if span.status_code is not None:
            attrs.append(("deepflow.status_code", "int",
                          span.status_code))
    if span.request_bytes:
        attrs.append(("deepflow.request_bytes", "int",
                      span.request_bytes))
    if span.response_bytes:
        attrs.append(("deepflow.response_bytes", "int",
                      span.response_bytes))
    for key, value in span.tags.items():
        attrs.append((f"deepflow.tag.{key}", "string", str(value)))
    for key, value in span.metrics.items():
        value = float(value)
        if math.isfinite(value):
            attrs.append((f"deepflow.metric.{key}", "double", value))
    # One final sort canonicalizes the whole list (tag/metric insertion
    # order included), so no per-dict pre-sorting is needed.  Keys are
    # distinct, so plain tuple order == sort-by-key, without a key
    # callable on the hot export path.
    attrs.sort()
    return attrs


def _encode_attr(key: str, value_type: str, value: Any) -> dict[str, Any]:
    """One OTLP KeyValue; int64 values are decimal strings (proto3
    JSON mapping)."""
    if value_type == "string":
        encoded: dict[str, Any] = {"stringValue": str(value)}
    elif value_type == "int":
        encoded = {"intValue": str(int(value))}
    elif value_type == "double":
        encoded = {"doubleValue": float(value)}
    elif value_type == "bool":
        encoded = {"boolValue": bool(value)}
    else:
        raise ValueError(f"unknown attribute value type {value_type!r}")
    return {"key": key, "value": encoded}


def _encode_attrs(attrs: list[tuple[str, str, Any]]) -> list[dict]:
    # The string/int cases are inlined: this runs once per attribute of
    # every span the continuous pipeline exports, and the call overhead
    # of _encode_attr is measurable at 50k spans/s.
    out = []
    for key, value_type, value in attrs:
        if value_type == "string":
            out.append({"key": key, "value": {"stringValue": str(value)}})
        elif value_type == "int":
            out.append({"key": key,
                        "value": {"intValue": str(int(value))}})
        else:
            out.append(_encode_attr(key, value_type, value))
    return out


def _service_name(span: Span) -> str:
    return span.process_name or span.device_name or span.host or "unknown"


def decompose_trace(trace: Trace) -> dict[str, Any]:
    """The decoded (typed-tuple) form of *trace* — the same structure
    :func:`decode_otlp_json` returns, so encoding is shared."""
    roots = trace.roots()
    trace_hex = _hex_id(roots[0].span_id if roots else 0, width=32)
    groups: dict[str, list[Span]] = {}
    for span in trace:
        groups.setdefault(_service_name(span), []).append(span)
    resources = []
    for service in sorted(groups):
        spans = []
        for span in groups[service]:
            status_code, status_message = _span_status(span)
            spans.append({
                "trace_id": trace_hex,
                "span_id": _hex_id(span.span_id),
                "parent_span_id": _hex_id(span.parent_id),
                "name": span.endpoint or span.protocol or "span",
                "kind": _span_kind(span),
                "start_ns": int(span.start_time * 1e9),
                "end_ns": int(span.end_time * 1e9),
                "status_code": status_code,
                "status_message": status_message,
                "attributes": span_attribute_tuples(span),
            })
        resources.append({
            "attributes": [("service.name", "string", service),
                           ("telemetry.sdk.name", "string", SCOPE_NAME)],
            "scope": (SCOPE_NAME, SCOPE_VERSION),
            "spans": spans,
        })
    return {"resources": resources}


def encode_decoded(decoded: dict[str, Any]) -> dict[str, Any]:
    """Re-encode a decoded form back to the OTLP/JSON payload.

    ``encode_decoded(decode_otlp_json(p)) == p`` for any payload this
    module produced — the fixed point the round-trip property checks.
    """
    resource_spans = []
    for resource in decoded["resources"]:
        scope_name, scope_version = resource["scope"]
        spans = []
        for span in resource["spans"]:
            status: dict[str, Any] = {"code": span["status_code"]}
            if span["status_message"] is not None:
                status["message"] = span["status_message"]
            spans.append({
                "traceId": span["trace_id"],
                "spanId": span["span_id"],
                "parentSpanId": span["parent_span_id"],
                "name": span["name"],
                "kind": span["kind"],
                "startTimeUnixNano": str(span["start_ns"]),
                "endTimeUnixNano": str(span["end_ns"]),
                "attributes": _encode_attrs(span["attributes"]),
                "status": status,
            })
        resource_spans.append({
            "resource": {
                "attributes": _encode_attrs(resource["attributes"]),
            },
            "scopeSpans": [{
                "scope": {"name": scope_name, "version": scope_version},
                "spans": spans,
            }],
        })
    return {"resourceSpans": resource_spans}


def trace_to_otlp_json(trace: Trace) -> dict[str, Any]:
    """A whole trace in canonical OTLP/JSON ``resourceSpans`` form."""
    return encode_decoded(decompose_trace(trace))


# ---------------------------------------------------------------------------
# Schema-validating decoder
# ---------------------------------------------------------------------------

def _expect_mapping(obj: Any, required: tuple[str, ...],
                    optional: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise OtlpDecodeError(f"{where}: expected an object, got "
                              f"{type(obj).__name__}")
    keys = set(obj)
    missing = set(required) - keys
    if missing:
        raise OtlpDecodeError(f"{where}: missing {sorted(missing)}")
    extra = keys - set(required) - set(optional)
    if extra:
        raise OtlpDecodeError(f"{where}: unexpected {sorted(extra)}")


def _expect_hex(value: Any, width: int, where: str,
                empty_ok: bool = False) -> str:
    if not isinstance(value, str):
        raise OtlpDecodeError(f"{where}: id must be a string")
    if value == "" and empty_ok:
        return value
    if len(value) != width or any(c not in "0123456789abcdef"
                                  for c in value):
        raise OtlpDecodeError(f"{where}: expected {width} lowercase hex "
                              f"chars, got {value!r}")
    return value


def _expect_int64(value: Any, where: str) -> int:
    """proto3 JSON int64: a canonical decimal string."""
    if not isinstance(value, str):
        raise OtlpDecodeError(f"{where}: int64 must be a decimal string")
    try:
        parsed = int(value)
    except ValueError:
        raise OtlpDecodeError(f"{where}: bad int64 {value!r}") from None
    if str(parsed) != value:
        raise OtlpDecodeError(f"{where}: non-canonical int64 {value!r}")
    return parsed


def _decode_attrs(items: Any, where: str) -> list[tuple[str, str, Any]]:
    if not isinstance(items, list):
        raise OtlpDecodeError(f"{where}: attributes must be a list")
    out: list[tuple[str, str, Any]] = []
    previous: Optional[str] = None
    for position, item in enumerate(items):
        slot = f"{where}[{position}]"
        _expect_mapping(item, ("key", "value"), (), slot)
        key = item["key"]
        if not isinstance(key, str):
            raise OtlpDecodeError(f"{slot}: key must be a string")
        if previous is not None and key <= previous:
            raise OtlpDecodeError(f"{slot}: keys must be strictly "
                                  f"ascending ({key!r} after "
                                  f"{previous!r})")
        previous = key
        value = item["value"]
        if not isinstance(value, dict) or len(value) != 1:
            raise OtlpDecodeError(f"{slot}: value must hold exactly one "
                                  f"typed field")
        (field, payload), = value.items()
        if field == "stringValue":
            if not isinstance(payload, str):
                raise OtlpDecodeError(f"{slot}: stringValue must be a "
                                      f"string")
            out.append((key, "string", payload))
        elif field == "intValue":
            out.append((key, "int", _expect_int64(payload, slot)))
        elif field == "doubleValue":
            if isinstance(payload, bool) \
                    or not isinstance(payload, (int, float)) \
                    or not math.isfinite(payload):
                raise OtlpDecodeError(f"{slot}: doubleValue must be a "
                                      f"finite number")
            out.append((key, "double", float(payload)))
        elif field == "boolValue":
            if not isinstance(payload, bool):
                raise OtlpDecodeError(f"{slot}: boolValue must be a "
                                      f"bool")
            out.append((key, "bool", payload))
        else:
            raise OtlpDecodeError(f"{slot}: unknown value type {field!r}")
    return out


def _decode_span(obj: Any, where: str) -> dict[str, Any]:
    _expect_mapping(obj, ("traceId", "spanId", "parentSpanId", "name",
                          "kind", "startTimeUnixNano",
                          "endTimeUnixNano", "attributes", "status"),
                    (), where)
    trace_id = _expect_hex(obj["traceId"], 32, f"{where}.traceId")
    span_id = _expect_hex(obj["spanId"], 16, f"{where}.spanId")
    parent = _expect_hex(obj["parentSpanId"], 16,
                         f"{where}.parentSpanId", empty_ok=True)
    if not isinstance(obj["name"], str) or not obj["name"]:
        raise OtlpDecodeError(f"{where}.name: must be a non-empty string")
    if obj["kind"] not in SPAN_KIND_VALUES:
        raise OtlpDecodeError(f"{where}.kind: unknown kind "
                              f"{obj['kind']!r}")
    start_ns = _expect_int64(obj["startTimeUnixNano"],
                             f"{where}.startTimeUnixNano")
    end_ns = _expect_int64(obj["endTimeUnixNano"],
                           f"{where}.endTimeUnixNano")
    if end_ns < start_ns:
        raise OtlpDecodeError(f"{where}: endTimeUnixNano precedes "
                              f"startTimeUnixNano")
    status = obj["status"]
    _expect_mapping(status, ("code",), ("message",), f"{where}.status")
    if status["code"] not in STATUS_CODE_VALUES:
        raise OtlpDecodeError(f"{where}.status.code: unknown code "
                              f"{status['code']!r}")
    message = status.get("message")
    if message is not None and not isinstance(message, str):
        raise OtlpDecodeError(f"{where}.status.message: must be a "
                              f"string")
    return {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_span_id": parent,
        "name": obj["name"],
        "kind": obj["kind"],
        "start_ns": start_ns,
        "end_ns": end_ns,
        "status_code": status["code"],
        "status_message": message,
        "attributes": _decode_attrs(obj["attributes"],
                                    f"{where}.attributes"),
    }


def decode_otlp_json(payload: Any) -> dict[str, Any]:
    """Validate an ``otlp-json`` payload and return the decoded form.

    Accepts the payload dict or its JSON text.  Raises
    :class:`OtlpDecodeError` on any schema deviation: wrong key sets,
    malformed ids, non-canonical int64 strings, unsorted attribute
    keys, unknown enum values, or inverted time ranges.
    """
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise OtlpDecodeError(f"payload is not JSON: {exc}") from None
    _expect_mapping(payload, ("resourceSpans",), (), "payload")
    if not isinstance(payload["resourceSpans"], list):
        raise OtlpDecodeError("resourceSpans must be a list")
    resources = []
    for index, entry in enumerate(payload["resourceSpans"]):
        where = f"resourceSpans[{index}]"
        _expect_mapping(entry, ("resource", "scopeSpans"), (), where)
        _expect_mapping(entry["resource"], ("attributes",), (),
                        f"{where}.resource")
        resource_attrs = _decode_attrs(entry["resource"]["attributes"],
                                       f"{where}.resource.attributes")
        scope_spans = entry["scopeSpans"]
        if not isinstance(scope_spans, list) or len(scope_spans) != 1:
            raise OtlpDecodeError(f"{where}.scopeSpans: expected exactly "
                                  f"one scope")
        scope_entry = scope_spans[0]
        _expect_mapping(scope_entry, ("scope", "spans"), (),
                        f"{where}.scopeSpans[0]")
        scope = scope_entry["scope"]
        _expect_mapping(scope, ("name", "version"), (),
                        f"{where}.scopeSpans[0].scope")
        if not isinstance(scope["name"], str) \
                or not isinstance(scope["version"], str):
            raise OtlpDecodeError(f"{where}: scope name/version must be "
                                  f"strings")
        spans_obj = scope_entry["spans"]
        if not isinstance(spans_obj, list):
            raise OtlpDecodeError(f"{where}.scopeSpans[0].spans: must "
                                  f"be a list")
        spans = [
            _decode_span(span, f"{where}.scopeSpans[0].spans[{i}]")
            for i, span in enumerate(spans_obj)
        ]
        resources.append({
            "attributes": resource_attrs,
            "scope": (scope["name"], scope["version"]),
            "spans": spans,
        })
    return {"resources": resources}


# ---------------------------------------------------------------------------
# Pipeline self-metrics in the matching OTLP shape
# ---------------------------------------------------------------------------

def metrics_to_otlp_json(metrics: PipelineMetrics,
                         now: float) -> dict[str, Any]:
    """Every registered instrument as an OTLP ``resourceMetrics``
    payload, stamped with sim time *now* (seconds)."""
    now_ns = str(int(now * 1e9))
    entries = []
    for instrument in metrics.instruments():
        entry: dict[str, Any] = {"name": instrument.name}
        if instrument.description:
            entry["description"] = instrument.description
        if instrument.kind == "counter":
            entry["sum"] = {
                "aggregationTemporality":
                    "AGGREGATION_TEMPORALITY_CUMULATIVE",
                "isMonotonic": True,
                "dataPoints": [{
                    "startTimeUnixNano": "0",
                    "timeUnixNano": now_ns,
                    "asInt": str(instrument.value),
                }],
            }
        elif instrument.kind == "gauge":
            entry["gauge"] = {
                "dataPoints": [{
                    "timeUnixNano": now_ns,
                    "asDouble": float(instrument.value),
                }],
            }
        else:
            entry["histogram"] = {
                "aggregationTemporality":
                    "AGGREGATION_TEMPORALITY_CUMULATIVE",
                "dataPoints": [{
                    "startTimeUnixNano": "0",
                    "timeUnixNano": now_ns,
                    "count": str(instrument.count),
                    "sum": instrument.sum,
                    "max": instrument.max,
                    "bucketCounts": [str(c) for c in instrument.counts],
                    "explicitBounds": list(instrument.bounds),
                }],
            }
        entries.append(entry)
    return {
        "resourceMetrics": [{
            "resource": {
                "attributes": _encode_attrs(
                    [("service.name", "string", metrics.service),
                     ("telemetry.sdk.name", "string", SCOPE_NAME)]),
            },
            "scopeMetrics": [{
                "scope": {"name": SCOPE_NAME, "version": SCOPE_VERSION},
                "metrics": entries,
            }],
        }],
    }


def decode_otlp_metrics(payload: Any) -> dict[str, dict[str, Any]]:
    """Validate a ``resourceMetrics`` payload; return name → summary.

    Counters report ``{"kind": "counter", "value": int}``, gauges their
    float value, histograms count/sum/buckets.  Raises
    :class:`OtlpDecodeError` on shape violations.
    """
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise OtlpDecodeError(f"payload is not JSON: {exc}") from None
    _expect_mapping(payload, ("resourceMetrics",), (), "payload")
    out: dict[str, dict[str, Any]] = {}
    if not isinstance(payload["resourceMetrics"], list):
        raise OtlpDecodeError("resourceMetrics must be a list")
    for index, entry in enumerate(payload["resourceMetrics"]):
        where = f"resourceMetrics[{index}]"
        _expect_mapping(entry, ("resource", "scopeMetrics"), (), where)
        _expect_mapping(entry["resource"], ("attributes",), (),
                        f"{where}.resource")
        _decode_attrs(entry["resource"]["attributes"],
                      f"{where}.resource.attributes")
        for scope_entry in entry["scopeMetrics"]:
            _expect_mapping(scope_entry, ("scope", "metrics"), (),
                            f"{where}.scopeMetrics")
            for metric in scope_entry["metrics"]:
                _expect_mapping(metric, ("name",),
                                ("description", "sum", "gauge",
                                 "histogram"),
                                f"{where}.metrics")
                name = metric["name"]
                slot = f"{where}.metrics[{name}]"
                bodies = [k for k in ("sum", "gauge", "histogram")
                          if k in metric]
                if len(bodies) != 1:
                    raise OtlpDecodeError(f"{slot}: expected exactly one "
                                          f"of sum/gauge/histogram")
                body = metric[bodies[0]]
                points = body.get("dataPoints")
                if not isinstance(points, list) or len(points) != 1:
                    raise OtlpDecodeError(f"{slot}: expected one data "
                                          f"point")
                point = points[0]
                if bodies[0] == "sum":
                    out[name] = {
                        "kind": "counter",
                        "value": _expect_int64(point["asInt"],
                                               f"{slot}.asInt"),
                    }
                elif bodies[0] == "gauge":
                    out[name] = {"kind": "gauge",
                                 "value": float(point["asDouble"])}
                else:
                    counts = [_expect_int64(c, f"{slot}.bucketCounts")
                              for c in point["bucketCounts"]]
                    bounds = point["explicitBounds"]
                    if len(counts) != len(bounds) + 1:
                        raise OtlpDecodeError(
                            f"{slot}: bucketCounts must have one more "
                            f"entry than explicitBounds")
                    out[name] = {
                        "kind": "histogram",
                        "count": _expect_int64(point["count"],
                                               f"{slot}.count"),
                        "sum": float(point["sum"]),
                        "buckets": counts,
                    }
    return out


# ---------------------------------------------------------------------------
# Streaming exporter sink
# ---------------------------------------------------------------------------

class OtlpStreamExporter:
    """Collects OTLP-shaped payloads from the continuous pipeline.

    Stands in for an OTLP/HTTP push endpoint: the continuous assembler
    hands it every finished trace, the server hands it metric
    snapshots, and tests/benches read ``trace_payloads`` /
    ``metric_payloads`` back.  ``validate=True`` runs every payload
    through the schema decoder on the way in (cheap insurance in tests;
    off by default for throughput benches).
    """

    def __init__(self, *, validate: bool = False,
                 keep_payloads: bool = True) -> None:
        self.validate = validate
        self.keep_payloads = keep_payloads
        self.trace_payloads: list[dict] = []
        self.metric_payloads: list[dict] = []
        self.exported_traces = 0
        self.exported_spans = 0

    def export_trace(self, trace: Trace) -> dict[str, Any]:
        """Encode and record one finished trace; returns the payload."""
        payload = trace_to_otlp_json(trace)
        if self.validate:
            decode_otlp_json(payload)
        if self.keep_payloads:
            self.trace_payloads.append(payload)
        self.exported_traces += 1
        self.exported_spans += len(trace)
        return payload

    def export_metrics(self, metrics: PipelineMetrics,
                       now: float) -> dict[str, Any]:
        """Encode and record one metrics snapshot at sim time *now*."""
        payload = metrics_to_otlp_json(metrics, now)
        if self.validate:
            decode_otlp_metrics(payload)
        if self.keep_payloads:
            self.metric_payloads.append(payload)
        return payload

    def stats(self) -> dict[str, int]:
        """Exporter-side counters for pipeline_stats()."""
        return {
            "exported_traces": self.exported_traces,
            "exported_spans": self.exported_spans,
            "metric_snapshots": len(self.metric_payloads),
        }


# ---------------------------------------------------------------------------
# Format registry
# ---------------------------------------------------------------------------

#: Export-format registry: name → payload builder.  New formats plug in
#: via :func:`register_format` instead of growing an if/elif chain.
FORMATS: dict[str, Callable[[Trace], Any]] = {}


def register_format(name: str,
                    builder: Callable[[Trace], Any]) -> None:
    """Register (or replace) the payload builder for format *name*."""
    FORMATS[name] = builder


register_format("jaeger", lambda trace: {"data": [trace_to_jaeger(trace)]})
register_format("otlp", trace_to_otlp_json)
register_format("otlp-json", trace_to_otlp_json)


def trace_to_json(trace: Trace, fmt: str = "jaeger", indent: int = 2
                  ) -> str:
    """Serialize a trace in a registered format (see :data:`FORMATS`)."""
    builder = FORMATS.get(fmt)
    if builder is None:
        supported = ", ".join(sorted(FORMATS))
        raise ValueError(f"unknown export format {fmt!r}; supported "
                         f"formats: {supported}")
    return json.dumps(builder(trace), indent=indent, sort_keys=True)
