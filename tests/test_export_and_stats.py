"""Trace export formats and agent pipeline statistics."""

import json

import pytest

from repro.apps.loadgen import LoadGenerator
from repro.apps.runtime import HttpService, Response
from repro.core.export import (FORMATS, decode_otlp_json, register_format,
                               trace_to_jaeger, trace_to_json,
                               trace_to_otlp_json)
from repro.network.topology import ClusterBuilder
from repro.network.transport import Network
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator


@pytest.fixture(scope="module")
def traced_world():
    sim = Simulator(seed=123)
    builder = ClusterBuilder(node_count=2)
    lg_pod = builder.add_pod(0, "lg")
    svc_pod = builder.add_pod(1, "svc")
    cluster = builder.build()
    Network(sim, cluster)
    server = DeepFlowServer()
    agents = []
    for node in cluster.nodes:
        agent = server.new_agent(node.kernel, node=node)
        agent.deploy()
        agents.append(agent)
    service = HttpService("svc", svc_pod.node, 9000, pod=svc_pod,
                          service_time=0.001)

    @service.route("/")
    def home(worker, request):
        yield from worker.work(0.0001)
        return Response(200)

    service.start()
    generator = LoadGenerator(lg_pod.node, svc_pod.ip, 9000, rate=10,
                              duration=0.4, connections=1, pod=lg_pod,
                              name="client")
    report = sim.run_process(generator.run())
    sim.run(until=sim.now + 0.5)
    for agent in agents:
        agent.flush()
    trace = server.trace(server.slowest_span().span_id)
    return server, agents, trace, report


class TestJaegerExport:
    def test_structure(self, traced_world):
        _server, _agents, trace, _report = traced_world
        payload = trace_to_jaeger(trace)
        assert len(payload["spans"]) == len(trace)
        assert payload["traceID"]
        assert set(payload["processes"]) == {"p-client", "p-svc"}

    def test_parent_references(self, traced_world):
        _server, _agents, trace, _report = traced_world
        payload = trace_to_jaeger(trace)
        span_ids = {span["spanID"] for span in payload["spans"]}
        child_refs = [span for span in payload["spans"]
                      if span["references"]]
        assert len(child_refs) == len(trace) - 1  # all but the root
        for span in child_refs:
            assert span["references"][0]["refType"] == "CHILD_OF"
            assert span["references"][0]["spanID"] in span_ids

    def test_tags_and_metrics_exported(self, traced_world):
        _server, _agents, trace, _report = traced_world
        payload = trace_to_jaeger(trace)
        svc_span = next(span for span in payload["spans"]
                        if span["processID"] == "p-svc")
        keys = {tag["key"] for tag in svc_span["tags"]}
        assert "pod" in keys
        assert "tcp.connect_rtt" in keys
        assert "http.status_code" in keys

    def test_durations_in_microseconds(self, traced_world):
        _server, _agents, trace, _report = traced_world
        payload = trace_to_jaeger(trace)
        for exported, span in zip(
                payload["spans"], trace):
            assert exported["duration"] == pytest.approx(
                max(1, int(span.duration * 1e6)))


def _otlp_spans(payload):
    """Every span of an OTLP/JSON payload, across resources."""
    return [span for entry in payload["resourceSpans"]
            for scope_entry in entry["scopeSpans"]
            for span in scope_entry["spans"]]


class TestOtlpExport:
    """The ``otlp`` format name serves the canonical encoder."""

    def test_span_count_kinds_and_status(self, traced_world):
        _server, _agents, trace, _report = traced_world
        assert FORMATS["otlp"] is trace_to_otlp_json
        spans = _otlp_spans(FORMATS["otlp"](trace))
        assert len(spans) == len(trace)
        kinds = {span["kind"] for span in spans}
        assert kinds == {"SPAN_KIND_SERVER", "SPAN_KIND_CLIENT"}
        assert all(span["status"]["code"] == "STATUS_CODE_OK"
                   for span in spans)

    def test_parent_ids_resolve(self, traced_world):
        _server, _agents, trace, _report = traced_world
        spans = _otlp_spans(FORMATS["otlp"](trace))
        ids = {span["spanId"] for span in spans}
        roots = [span for span in spans if not span["parentSpanId"]]
        assert len(roots) == 1
        for span in spans:
            if span["parentSpanId"]:
                assert span["parentSpanId"] in ids


class TestOtlpJsonExport:
    """The canonical resourceSpans form the continuous pipeline emits."""

    def test_resource_scope_span_structure(self, traced_world):
        _server, _agents, trace, _report = traced_world
        payload = trace_to_otlp_json(trace)
        services = set()
        spans = []
        for entry in payload["resourceSpans"]:
            attrs = {a["key"]: a["value"]
                     for a in entry["resource"]["attributes"]}
            services.add(attrs["service.name"]["stringValue"])
            (scope_entry,) = entry["scopeSpans"]
            assert scope_entry["scope"]["name"] == "repro.deepflow"
            spans.extend(scope_entry["spans"])
        assert services == {"client", "svc"}
        assert len(spans) == len(trace)

    def test_hex_ids_and_int64_strings(self, traced_world):
        _server, _agents, trace, _report = traced_world
        payload = trace_to_otlp_json(trace)
        for entry in payload["resourceSpans"]:
            for span in entry["scopeSpans"][0]["spans"]:
                assert len(span["traceId"]) == 32
                assert len(span["spanId"]) == 16
                assert isinstance(span["startTimeUnixNano"], str)
                assert (int(span["endTimeUnixNano"])
                        >= int(span["startTimeUnixNano"]))

    def test_status_mapping_reports_ok(self, traced_world):
        _server, _agents, trace, _report = traced_world
        payload = trace_to_otlp_json(trace)
        codes = {span["status"]["code"]
                 for entry in payload["resourceSpans"]
                 for span in entry["scopeSpans"][0]["spans"]}
        assert codes == {"STATUS_CODE_OK"}

    def test_decoder_round_trips_live_payload(self, traced_world):
        _server, _agents, trace, _report = traced_world
        payload = trace_to_otlp_json(trace)
        decoded = decode_otlp_json(json.loads(json.dumps(payload)))
        total = sum(len(resource["spans"])
                    for resource in decoded["resources"])
        assert total == len(trace)


class TestJsonSerialization:
    def test_round_trips_through_json(self, traced_world):
        _server, _agents, trace, _report = traced_world
        for fmt in ("jaeger", "otlp", "otlp-json"):
            text = trace_to_json(trace, fmt=fmt)
            assert json.loads(text)

    def test_unknown_format_lists_supported(self, traced_world):
        _server, _agents, trace, _report = traced_world
        with pytest.raises(ValueError) as excinfo:
            trace_to_json(trace, fmt="zipkin-thrift")
        message = str(excinfo.value)
        assert "zipkin-thrift" in message
        for fmt in sorted(FORMATS):
            assert fmt in message

    def test_registry_extends_without_code_changes(self, traced_world):
        _server, _agents, trace, _report = traced_world
        register_format("span-count", lambda t: {"spans": len(t)})
        try:
            payload = json.loads(trace_to_json(trace, fmt="span-count"))
            assert payload == {"spans": len(trace)}
        finally:
            del FORMATS["span-count"]


class TestAgentStats:
    def test_counters_reflect_traffic(self, traced_world):
        _server, agents, _trace, report = traced_world
        totals = {key: sum(agent.stats[key] for agent in agents)
                  for key in agents[0].stats}
        assert totals["events_processed"] > 0
        # Two sessions per request, each endpoint sees 2 syscalls.
        assert totals["syscall_records"] >= report.completed * 4
        assert totals["spans_emitted"] == totals["spans_shipped"]
        assert totals["spans_emitted"] >= report.completed * 2

    def test_stats_are_per_agent(self, traced_world):
        _server, agents, _trace, _report = traced_world
        assert agents[0].stats is not agents[1].stats


class TestHookStats:
    """Kernel-side observability: hook_stats() exposes per-program fault
    counters and what the verifier did (faults are contained, not lost)."""

    @pytest.fixture()
    def fresh_agent(self):
        sim = Simulator(seed=7)
        builder = ClusterBuilder(node_count=1)
        builder.add_pod(0, "p")
        cluster = builder.build()
        Network(sim, cluster)
        node = cluster.nodes[0]
        agent = DeepFlowServer().new_agent(node.kernel, node=node)
        agent.deploy()
        return node, agent

    def test_every_deployed_program_is_verified(self, fresh_agent):
        _node, agent = fresh_agent
        stats = agent.hook_stats()
        assert stats["programs"]
        assert all(p["verified"] for p in stats["programs"])
        assert stats["verifier_rejections"] == 0
        assert stats["runtime_faults"] == 0
        # Instruction counts are verifier-derived worst-case path
        # lengths, hitting the configured Fig 13 budgets exactly.
        budgets = {p["instructions"] for p in stats["programs"]}
        config = agent.config
        assert (config.trace_instructions
                + config.parser_instructions) in budgets

    def test_runtime_faults_surface_per_program(self, fresh_agent):
        node, agent = fresh_agent
        # A context without the expected fields crashes the handler;
        # containment turns that into a counted per-program fault.
        node.kernel.hooks.fire("sys_enter_read", object())
        stats = agent.hook_stats()
        faulted = [p for p in stats["programs"] if p["runtime_faults"]]
        assert faulted
        assert stats["runtime_faults"] == sum(
            p["runtime_faults"] for p in stats["programs"])
        assert stats["runtime_faults"] > 0

    def test_verifier_rejections_counted(self, fresh_agent):
        from repro.kernel.bpf_isa import ProgramBuilder, R0
        from repro.kernel.ebpf import BPFProgram, VerifierError

        node, agent = fresh_agent
        b = ProgramBuilder()
        b.label("spin")
        b.ja("spin")
        b.mov_imm(R0, 0)
        b.exit()
        bad = BPFProgram("spin", lambda ctx: None, bytecode=b.assemble())
        with pytest.raises(VerifierError):
            node.kernel.hooks.attach("sys_enter_read", bad)
        assert agent.hook_stats()["verifier_rejections"] == 1
        assert bad not in node.kernel.hooks._hooks.get("sys_enter_read", [])
