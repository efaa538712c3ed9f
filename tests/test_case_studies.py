"""Integration tests for the paper's §4.1 case studies and extensions.

Each test reproduces one production workflow end to end:

* §4.1.1 — Nginx ingress pod returning 404, localized from traces;
* §4.1.2 — faulty physical NIC ARP storm, localized from ARP metrics;
* §4.1.3 — RabbitMQ backlog causing TCP resets, found via correlation;
* TLS      — uprobe extension recovers semantics syscalls cannot see;
* OTel     — third-party app spans integrate into eBPF traces;
* Nginx cross-thread — X-Request-ID keeps proxy spans connected.
"""

from types import SimpleNamespace

import pytest

from repro.analysis.rootcause import (
    deepest_error_span,
    diagnose,
    rank_devices_by_arp,
)
from repro.apps.loadgen import LoadGenerator
from repro.apps.proxy import NginxProxy
from repro.apps.rabbitmq import RabbitMQBroker, publish
from repro.apps.runtime import Component, HttpService, Response
from repro.baselines.tracers import JaegerTracer
from repro.core.span import SpanKind, SpanSide
from repro.kernel.syscalls import Direction
from repro.network.faults import ArpStormFault
from repro.network.topology import ClusterBuilder
from repro.network.transport import Network
from repro.protocols import http1, tls
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator


def deploy_world(node_count=3, seed=31):
    sim = Simulator(seed=seed)
    builder = ClusterBuilder(node_count=node_count)
    cluster = builder.build()
    network = Network(sim, cluster)
    server = DeepFlowServer()
    agents = {}
    for node in cluster.nodes:
        agent = server.new_agent(node.kernel, node=node)
        agent.deploy()
        agents[node.name] = agent
    return sim, builder, cluster, network, server, agents


def settle(sim, agents, extra=1.0):
    sim.run(until=sim.now + extra)
    for agent in agents.values():
        agent.flush(expire=True)


class TestNginx404Case:
    """§4.1.1: one of three ingress pods misroutes an endpoint to 404."""

    def build(self):
        sim, builder, cluster, network, server, agents = deploy_world()
        lg_pod = builder.add_pod(0, "loadgen-pod")
        backend_pod = builder.add_pod(2, "shop-backend")
        ingress_pods = [builder.add_pod(i, f"nginx-ingress-{i}")
                        for i in range(3)]
        edge_pod = builder.add_pod(0, "edge-lb")
        # Re-register agents' tag tables for pods added after deploy.
        for name, agent in agents.items():
            agent._collect_node_tags()

        backend = HttpService("shop", backend_pod.node, 9000,
                              pod=backend_pod, service_time=0.001)

        @backend.route("/")
        def any_route(worker, request):
            yield from worker.work(0.0005)
            return Response(200, body=b"ok")

        backend.start()
        ingresses = []
        for index, pod in enumerate(ingress_pods):
            ingress = NginxProxy(f"nginx-ingress-{index}", pod.node, 8081,
                                 pod=pod)
            ingress.add_route("/", [(backend_pod.ip, 9000)])
            ingress.start()
            ingresses.append(ingress)
        edge = NginxProxy("edge-lb", edge_pod.node, 8080, pod=edge_pod)
        edge.add_route("/", [(pod.ip, 8081) for pod in ingress_pods])
        edge.start()
        return (sim, cluster, server, agents, lg_pod, edge_pod,
                ingresses, ingress_pods)

    def test_faulty_pod_localized_from_trace(self):
        (sim, cluster, server, agents, lg_pod, edge_pod, ingresses,
         ingress_pods) = self.build()
        ingresses[1].inject_fault("/checkout", status_code=404)
        generator = LoadGenerator(lg_pod.node, edge_pod.ip, 8080,
                                  rate=30, duration=0.4, connections=3,
                                  path="/checkout", pod=lg_pod,
                                  name="client")
        report = sim.run_process(generator.run())
        settle(sim, agents)
        assert report.errors > 0 and report.completed > 0
        error_span = max(
            (span for span in server.store.all_spans()
             if span.is_error and span.side is SpanSide.CLIENT),
            key=lambda span: span.start_time)
        trace = server.trace(error_span.span_id)
        deepest = deepest_error_span(trace)
        assert deepest.status_code == 404
        assert deepest.tags.get("pod") == "nginx-ingress-1"
        result = diagnose(trace, cluster=cluster)
        assert result.category == "application"
        assert result.culprit == "nginx-ingress-1"

    def test_healthy_requests_route_through_other_pods(self):
        (sim, cluster, server, agents, lg_pod, edge_pod, ingresses,
         ingress_pods) = self.build()
        ingresses[1].inject_fault("/checkout", status_code=404)
        generator = LoadGenerator(lg_pod.node, edge_pod.ip, 8080,
                                  rate=30, duration=0.4, connections=3,
                                  path="/checkout", pod=lg_pod,
                                  name="client")
        report = sim.run_process(generator.run())
        settle(sim, agents)
        # Round-robin over three pods: roughly a third of requests fail.
        assert report.errors == pytest.approx(report.sent / 3, abs=3)


class TestArpStormCase:
    """§4.1.2: redundant ARP requests from a malfunctioning physical NIC."""

    def test_faulty_nic_tops_arp_ranking(self):
        sim, builder, cluster, network, server, agents = deploy_world()
        lg_pod = builder.add_pod(0, "loadgen-pod")
        svc_pod = builder.add_pod(2, "ecommerce-svc")
        for agent in agents.values():
            agent._collect_node_tags()
        faulty_nic = cluster.machines[2].nic
        faulty_nic.add_fault(ArpStormFault(extra_arps_per_connect=4,
                                           stall_range=(0.2, 0.6)))
        service = HttpService("ecommerce", svc_pod.node, 9000,
                              pod=svc_pod, service_time=0.001)

        @service.route("/")
        def home(worker, request):
            yield from worker.work(0.0001)
            return Response(200)

        service.start()
        # Freshly created pods connect anew each time (no pooled conns).
        generator = LoadGenerator(lg_pod.node, svc_pod.ip, 9000, rate=10,
                                  duration=0.5, connections=4, pod=lg_pod,
                                  name="new-pod")
        sim.run_process(generator.run())
        settle(sim, agents)
        ranked = rank_devices_by_arp(cluster)
        assert ranked[0][0] is faulty_nic
        assert ranked[0][1] > ranked[1][1]

    def test_traces_show_inflated_connect_rtt(self):
        sim, builder, cluster, network, server, agents = deploy_world()
        lg_pod = builder.add_pod(0, "loadgen-pod")
        svc_pod = builder.add_pod(2, "ecommerce-svc")
        for agent in agents.values():
            agent._collect_node_tags()
        cluster.machines[2].nic.add_fault(
            ArpStormFault(extra_arps_per_connect=4, stall_range=(0.3, 0.3),
                          stall_probability=1.0))
        service = HttpService("ecommerce", svc_pod.node, 9000,
                              pod=svc_pod, service_time=0.001)

        @service.route("/")
        def home(worker, request):
            yield from worker.work(0.0001)
            return Response(200)

        service.start()
        generator = LoadGenerator(lg_pod.node, svc_pod.ip, 9000, rate=5,
                                  duration=0.4, connections=2, pod=lg_pod,
                                  name="new-pod")
        sim.run_process(generator.run())
        settle(sim, agents)
        spans = server.find_spans(process_name="ecommerce")
        assert spans
        assert any(span.metrics.get("tcp.connect_rtt", 0) > 0.3
                   for span in spans)
        assert any(span.metrics.get("net.arp_requests", 0) >= 4
                   for span in spans)


class TestRabbitMQBacklogCase:
    """§4.1.3: queue backlog → TCP resets, localized via correlation."""

    def build_and_run(self):
        sim, builder, cluster, network, server, agents = deploy_world()
        producer_pod = builder.add_pod(0, "producer-pod")
        mq_pod = builder.add_pod(2, "rabbitmq-pod")
        for agent in agents.values():
            agent._collect_node_tags()
        broker = RabbitMQBroker("rabbitmq", mq_pod.node, 5672, pod=mq_pod,
                                queue_capacity=5, consume_rate=2.0,
                                reset_on_backlog=True)
        broker.start()
        broker.start_metrics_exporter(server.metrics, interval=0.2)

        outcomes = {"acks": 0, "resets": 0}

        def producer_main():
            process = network.kernel_for_node(
                producer_pod.node.name).create_process(
                    "producer", producer_pod.ip)
            thread = network.kernel_for_node(
                producer_pod.node.name).create_thread(process)
            from repro.apps.runtime import WorkerContext

            class _Shim:
                kernel = network.kernel_for_node(producer_pod.node.name)
                ingress_abi = "read"
                egress_abi = "write"
                sim = sim_ref

            worker = WorkerContext(_Shim(), thread, None)
            for tag in range(40):
                try:
                    ack = yield from publish(worker, mq_pod.ip, 5672,
                                             channel=1, delivery_tag=tag,
                                             queue="orders", body=b"job")
                    if ack is not None and not ack.is_error:
                        outcomes["acks"] += 1
                except ConnectionResetError:
                    outcomes["resets"] += 1
                yield 0.05

        sim_ref = sim
        process = sim.spawn(producer_main(), name="producer")
        sim.run_process(process)
        settle(sim, agents)
        return sim, cluster, server, broker, outcomes

    def test_backlog_causes_resets_visible_to_client(self):
        _sim, _cluster, _server, broker, outcomes = self.build_and_run()
        assert outcomes["acks"] >= 5
        assert outcomes["resets"] > 0
        assert broker.resets_issued == outcomes["resets"]

    def test_error_spans_carry_reset_metrics(self):
        _sim, _cluster, server, _broker, _outcomes = self.build_and_run()
        error_spans = [span for span in server.store.all_spans()
                       if span.is_error and span.protocol == "amqp"]
        assert error_spans
        assert any(span.metrics.get("tcp.resets", 0) > 0
                   for span in error_spans)

    def test_correlated_queue_depth_reveals_backlog(self):
        _sim, _cluster, server, broker, _outcomes = self.build_and_run()
        error_span = next(span for span in server.store.all_spans()
                          if span.is_error and span.protocol == "amqp"
                          and span.side is SpanSide.SERVER)
        trace = server.trace(error_span.span_id)
        correlated = server.correlated_metrics(
            trace, names=["rabbitmq.queue_depth"])
        samples = [value for series in correlated.values()
                   for _, value in series.get("rabbitmq.queue_depth", [])]
        assert samples
        assert max(samples) >= broker.queue_capacity

    def test_diagnosis_points_at_middleware(self):
        _sim, cluster, server, _broker, _outcomes = self.build_and_run()
        error_span = max((span for span in server.store.all_spans()
                          if span.is_error),
                         key=lambda span: span.start_time)
        trace = server.trace(error_span.span_id)
        result = diagnose(trace, cluster=cluster)
        assert result.category == "network middleware"


class TlsEchoService(Component):
    """A TLS-speaking HTTP service using ssl_read/ssl_write."""

    def handle_payload(self, worker, data):
        plaintext = tls.decrypt(data)
        yield from self.kernel.user_function(
            worker.thread, "ssl_read", plaintext, Direction.INGRESS,
            self._serving_fd)
        yield from worker.work(0.001)
        reply = http1.encode_response(200, body=b"secret-ok")
        yield from self.kernel.user_function(
            worker.thread, "ssl_write", reply, Direction.EGRESS,
            self._serving_fd)
        return tls.encrypt(reply)

    def _serve(self, thread, fd, coroutine):
        self._serving_fd = fd
        return super()._serve(thread, fd, coroutine)


class TestTlsUprobeCase:
    """uprobe extension: plaintext semantics for encrypted connections."""

    def build(self, attach_uprobes):
        sim, builder, cluster, network, server, agents = deploy_world(
            node_count=2)
        client_pod = builder.add_pod(0, "client-pod")
        tls_pod = builder.add_pod(1, "secure-svc")
        for agent in agents.values():
            agent._collect_node_tags()
        service = TlsEchoService("secure", tls_pod.node, 8443,
                                 pod=tls_pod)
        service.start()
        if attach_uprobes:
            server_agent = agents[tls_pod.node.name]
            server_agent.attach_uprobe("secure", "ssl_read")
            server_agent.attach_uprobe("secure", "ssl_write")

        def client_main():
            kernel = network.kernel_for_node(client_pod.node.name)
            process = kernel.create_process("tls-client", client_pod.ip)
            thread = kernel.create_thread(process)
            fd = yield from kernel.connect(thread, tls_pod.ip, 8443)
            request = http1.encode_request("GET", "/secret")
            yield from kernel.write(thread, fd, tls.encrypt(request))
            reply = yield from kernel.read(thread, fd)
            return tls.decrypt(reply)

        process = sim.spawn(client_main())
        result = sim.run_process(process)
        settle(sim, agents)
        return server, result

    def test_without_uprobes_connection_is_opaque(self):
        server, result = self.build(attach_uprobes=False)
        assert b"secret-ok" in result
        secure_spans = server.find_spans(process_name="secure")
        assert secure_spans == []  # syscalls saw only ciphertext

    def test_with_uprobes_semantics_recovered(self):
        server, result = self.build(attach_uprobes=True)
        assert b"secret-ok" in result
        spans = server.find_spans(process_name="secure")
        assert len(spans) == 1
        span = spans[0]
        assert span.kind is SpanKind.UPROBE
        assert span.operation == "GET"
        assert span.resource == "/secret"
        assert span.status_code == 200


class TestThirdPartyIntegration:
    """§3.3.2: OpenTelemetry-style spans merge into eBPF traces."""

    def test_app_spans_appear_in_assembled_trace(self):
        sim, builder, cluster, network, server, agents = deploy_world(
            node_count=2)
        lg_pod = builder.add_pod(0, "loadgen-pod")
        app_pod = builder.add_pod(1, "traced-app")
        for agent in agents.values():
            agent._collect_node_tags()
        tracer = JaegerTracer(sim, export_server=server)
        backend_pod = builder.add_pod(0, "plain-backend")
        backend = HttpService("plain-backend", backend_pod.node, 9100,
                              pod=backend_pod, service_time=0.001)

        @backend.route("/")
        def data(worker, request):
            yield from worker.work(0.0001)
            return Response(200, body=b"data")

        backend.start()
        app = HttpService("traced-app", app_pod.node, 8000, pod=app_pod,
                          tracer=tracer, service_time=0.001)

        @app.route("/")
        def home(worker, request):
            upstream = yield from app.call_downstream(
                worker, backend_pod.ip, 9100, "GET", "/data")
            return Response(upstream.status_code)

        app.start()
        generator = LoadGenerator(lg_pod.node, app_pod.ip, 8000, rate=5,
                                  duration=0.3, connections=1, pod=lg_pod,
                                  name="client")
        report = sim.run_process(generator.run())
        settle(sim, agents)
        assert report.errors == 0
        trace = server.trace(server.slowest_span().span_id)
        app_spans = [span for span in trace
                     if span.kind is SpanKind.APP]
        assert len(app_spans) == 2  # server span + client span
        app_server = next(span for span in app_spans
                          if span.otel_parent_span_id is None)
        app_client = next(span for span in app_spans
                          if span.otel_parent_span_id is not None)
        # App server span under the eBPF server span; eBPF client span
        # under the app client span.
        ebpf_server = next(span for span in trace
                           if span.process_name == "traced-app"
                           and span.side is SpanSide.SERVER)
        ebpf_client = next(span for span in trace
                           if span.process_name == "traced-app"
                           and span.side is SpanSide.CLIENT)
        assert app_server.parent_id == ebpf_server.span_id
        assert app_client.parent_id == app_server.span_id
        assert ebpf_client.parent_id == app_client.span_id

    def test_app_spans_take_the_agent_ingest_path(self):
        """A third-party span is one ingest batch, counted and sized in
        the server's self-metrics like an agent shipment."""
        sim = Simulator(seed=1)
        server = DeepFlowServer()
        tracer = JaegerTracer(sim, export_server=server)
        component = SimpleNamespace(
            name="orders", kernel=SimpleNamespace(host_name="n1"),
            process=None)
        root = tracer.start_server_span(component, {}, "GET /")
        child = tracer.start_client_span(component, root, "GET /stock")
        tracer.finish_span(child)
        tracer.finish_span(root)
        metrics = server.pipeline_metrics
        assert metrics.get("server.spans_ingested").value == 2
        assert metrics.get("server.ingest_batches").value == 2
        batch_sizes = metrics.get("server.ingest_batch_spans")
        assert batch_sizes.count == 2
        assert batch_sizes.sum == 2.0
        assert {span.kind for span in server.store.all_spans()} == {
            SpanKind.APP}

    def test_agent_extracts_trace_id_from_headers(self):
        """The eBPF span of a traced request carries the OTel trace id."""
        sim, builder, cluster, network, server, agents = deploy_world(
            node_count=2)
        lg_pod = builder.add_pod(0, "loadgen-pod")
        app_pod = builder.add_pod(1, "traced-app")
        for agent in agents.values():
            agent._collect_node_tags()
        tracer = JaegerTracer(sim, export_server=server)
        app = HttpService("traced-app", app_pod.node, 8000, pod=app_pod,
                          tracer=tracer, service_time=0.001)

        @app.route("/")
        def home(worker, request):
            yield from worker.work(0.0001)
            return Response(200)

        app.start()
        generator = LoadGenerator(
            lg_pod.node, app_pod.ip, 8000, rate=5, duration=0.2,
            connections=1, pod=lg_pod, name="client",
            headers={"traceparent": "00-" + "ab" * 16 + "-" + "cd" * 8
                     + "-01"})
        sim.run_process(generator.run())
        settle(sim, agents)
        ebpf_spans = server.find_spans(process_name="traced-app",
                                       kind=SpanKind.SYSCALL)
        assert ebpf_spans
        assert all(span.otel_trace_id == "ab" * 16 for span in ebpf_spans)


class TestCrossThreadProxy:
    """Cross-thread handoff inside Nginx: X-Request-ID keeps the chain."""

    def test_trace_spans_connected_despite_thread_hop(self):
        sim, builder, cluster, network, server, agents = deploy_world()
        lg_pod = builder.add_pod(0, "loadgen-pod")
        proxy_pod = builder.add_pod(1, "nginx-pod")
        backend_pod = builder.add_pod(2, "backend-pod")
        for agent in agents.values():
            agent._collect_node_tags()
        backend = HttpService("backend", backend_pod.node, 9000,
                              pod=backend_pod, service_time=0.001)

        @backend.route("/")
        def home(worker, request):
            yield from worker.work(0.0001)
            return Response(200)

        backend.start()
        proxy = NginxProxy("nginx", proxy_pod.node, 8080, pod=proxy_pod,
                           cross_thread=True)
        proxy.add_route("/", [(backend_pod.ip, 9000)])
        proxy.start()
        generator = LoadGenerator(lg_pod.node, proxy_pod.ip, 8080, rate=5,
                                  duration=0.3, connections=1, pod=lg_pod,
                                  name="client")
        report = sim.run_process(generator.run())
        settle(sim, agents)
        assert report.errors == 0
        trace = server.trace(server.slowest_span().span_id)
        proxy_server = next(span for span in trace
                            if span.process_name == "nginx"
                            and span.side is SpanSide.SERVER)
        proxy_client = next(span for span in trace
                            if span.process_name == "nginx"
                            and span.side is SpanSide.CLIENT)
        # Different kernel threads, so systrace cannot link them...
        assert proxy_server.tid != proxy_client.tid
        assert proxy_server.systrace_id != proxy_client.systrace_id
        # ...but the proxy's own X-Request-ID does.
        assert proxy_server.x_request_id == proxy_client.x_request_id
        assert proxy_client.parent_id == proxy_server.span_id
        backend_server = next(span for span in trace
                              if span.process_name == "backend")
        assert backend_server.parent_id == proxy_client.span_id
