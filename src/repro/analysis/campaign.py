"""Fault-injection campaign over every Figure 2 failure category.

For each category the campaign deploys a fresh monitored application,
injects a representative fault, drives load, and runs the automated
root-cause analysis of :mod:`repro.analysis.rootcause` on the resulting
traces.  A correct reproduction localizes every category it injects —
this is the empirical counterpart to the paper's survey-derived Figure 2.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.rootcause import Diagnosis, diagnose
from repro.apps.loadgen import LoadGenerator
from repro.apps.rabbitmq import RabbitMQBroker, publish
from repro.apps.runtime import HttpService, Response
from repro.apps.services import DnsService
from repro.network.faults import (
    ArpStormFault,
    DropFault,
    RefuseConnectionsFault,
)
from repro.network.topology import ClusterBuilder, Device, DeviceKind
from repro.network.transport import Network
from repro.protocols import dns as dns_proto
from repro.server.server import DeepFlowServer
from repro.sim.engine import Simulator

#: The categories the campaign can inject, with the Figure 2 category
#: each one should be diagnosed as.
CATEGORIES = (
    "application",
    "virtual network",
    "physical network",
    "network middleware",
    "cluster services",
    "node configuration",
    "computing infrastructure",
    "external traffic surge",
)


@dataclass
class ScenarioOutcome:
    """Injected vs diagnosed category for one scenario."""
    injected: str
    detected: str
    culprit: str
    evidence: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        """Whether the diagnosis matched the injection."""
        return self.injected == self.detected


@dataclass
class CampaignResult:
    """Aggregate outcome of a campaign run."""
    outcomes: list[ScenarioOutcome] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        """Fraction of scenarios diagnosed correctly."""
        if not self.outcomes:
            return 0.0
        return (sum(outcome.correct for outcome in self.outcomes)
                / len(self.outcomes))

    def detected_counts(self) -> dict[str, int]:
        """Diagnosed-category histogram."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.detected] = counts.get(outcome.detected, 0) + 1
        return counts


class _World:
    """One disposable monitored deployment."""

    def __init__(self, seed: int):
        self.sim = Simulator(seed=seed)
        builder = ClusterBuilder(node_count=3)
        self.lg_pod = builder.add_pod(0, "loadgen-pod")
        self.fe_pod = builder.add_pod(1, "frontend-pod",
                                      labels={"app": "frontend"})
        self.be_pod = builder.add_pod(2, "backend-pod",
                                      labels={"app": "backend"})
        self.dns_pod = builder.add_pod(0, "dns-pod",
                                       labels={"app": "coredns"})
        self.mq_pod = builder.add_pod(2, "mq-pod",
                                      labels={"app": "rabbitmq"})
        self.cluster = builder.build()
        self.network = Network(self.sim, self.cluster)
        self.server = DeepFlowServer()
        self.agents = []
        for node in self.cluster.nodes:
            agent = self.server.new_agent(node.kernel, node=node)
            agent.deploy()
            self.agents.append(agent)
        self.backend_time = 0.002
        self.backend_status = 200
        self.use_dns = False
        self.use_broker = False
        self.broker: Optional[RabbitMQBroker] = None
        self.dns: Optional[DnsService] = None

    def deploy_apps(self) -> None:
        """Deploy the scenario's application components."""
        world = self
        self.dns = DnsService("coredns", self.dns_pod.node, 53,
                              pod=self.dns_pod)
        self.dns.add_record("backend.default.svc", self.be_pod.ip)
        self.dns.start()
        self.broker = RabbitMQBroker("rabbitmq", self.mq_pod.node, 5672,
                                     pod=self.mq_pod, queue_capacity=10000,
                                     consume_rate=10000.0)
        self.broker.start()
        backend = HttpService("backend", self.be_pod.node, 9000,
                              pod=self.be_pod)

        @backend.route("/api")
        def api(worker, request):
            """Gateway entry handler."""
            yield from worker.work(world.backend_time)
            return Response(world.backend_status)

        backend.start()
        frontend = HttpService("frontend", self.fe_pod.node, 8000,
                               pod=self.fe_pod, service_time=0.001)

        @frontend.route("/")
        def home(worker, request):
            """Frontend entry handler."""
            backend_ip = world.be_pod.ip
            if world.use_dns:
                raw = yield from worker.call_raw(
                    world.dns_pod.ip, 53,
                    dns_proto.encode_query(world.sim.rng.randrange(0xFFFF),
                                           "backend.default.svc"))
                address = dns_proto.decode_address(raw)
                if address is None:
                    return Response(502, body=b"dns failure")
                backend_ip = address
            if world.use_broker:
                try:
                    ack = yield from publish(
                        worker, world.mq_pod.ip, 5672, channel=1,
                        delivery_tag=world.sim.rng.randrange(1 << 30),
                        queue="events", body=b"evt")
                except (ConnectionResetError, ConnectionError):
                    return Response(502, body=b"broker reset")
                if ack is None or ack.is_error:
                    return Response(502, body=b"broker nack")
            upstream = yield from worker.call_http(backend_ip, 9000,
                                                   "GET", "/api")
            return Response(upstream.status_code)

        frontend.start()
        self.frontend = frontend
        self.backend = backend

    def run_load(self, rate: float = 20.0, duration: float = 0.5):
        """Drive load at the configured rate; returns the report."""
        generator = LoadGenerator(self.lg_pod.node, self.fe_pod.ip, 8000,
                                  rate=rate, duration=duration,
                                  connections=4, pod=self.lg_pod,
                                  name="loadgen")
        process = generator.run()
        report = self.sim.run_process(process)
        self.sim.run(until=self.sim.now + 1.0)
        for agent in self.agents:
            agent.flush(expire=True)
        return report

    def worst_trace(self):
        """The trace an operator would open: latest error, else slowest."""
        spans = self.server.store.all_spans()
        if not spans:
            return None
        errors = [span for span in spans if span.is_error]
        if errors:
            start = max(errors, key=lambda span: span.start_time)
        else:
            start = max(spans, key=lambda span: span.duration)
        return self.server.trace(start.span_id)


def _inject(world: _World, category: str) -> None:
    if category == "application":
        world.backend_status = 500
    elif category == "virtual network":
        world.be_pod.node.vswitch.add_fault(DropFault(0.4))
    elif category == "physical network":
        machine = world.be_pod.node.machine
        machine.nic.add_fault(ArpStormFault(extra_arps_per_connect=6,
                                            stall_range=(0.05, 0.1)))
    elif category == "network middleware":
        world.use_broker = True
        world.broker.queue_capacity = 2
        world.broker.consume_rate = 1.0
    elif category == "cluster services":
        world.use_dns = True
        world.dns.records.clear()
    elif category == "node configuration":
        firewall = Device("node-3/firewall", DeviceKind.FIREWALL)
        firewall.add_fault(RefuseConnectionsFault())
        world.cluster.add_middlebox(firewall)
    elif category == "computing infrastructure":
        world.backend_time = 0.25  # CPU-starved pod
    elif category == "external traffic surge":
        pass  # handled by the load profile
    else:
        raise ValueError(f"unknown category {category!r}")


class FaultCampaign:
    """Runs one scenario per requested category and scores detection."""

    def __init__(self, seed: int = 1):
        self.seed = seed

    def run_scenario(self, category: str) -> ScenarioOutcome:
        """Inject one category, drive load, and diagnose."""
        # CRC32, not ``hash()``: string hashing is salted per process, so
        # the world seed (and the outcome) would change from run to run.
        world = _World(self.seed + zlib.crc32(category.encode()) % 1000)
        world.deploy_apps()
        _inject(world, category)
        baseline_duration = 0.01
        rate = 200.0 if category == "external traffic surge" else 20.0
        report = world.run_load(rate=rate)
        trace = world.worst_trace()
        result = diagnose(trace, cluster=world.cluster)
        detected, culprit = result.category, result.culprit
        evidence = list(result.evidence)
        if detected == "inconclusive":
            # Workload-context rules the trace alone cannot decide.
            if report.offered_rate >= 100.0:
                detected = "external traffic surge"
                culprit = "ingress load"
                evidence.append(
                    f"offered rate {report.offered_rate:.0f} rps with "
                    "healthy components")
            elif (trace is not None
                  and trace.duration > 10 * baseline_duration):
                slowest = max(trace.spans, key=lambda span: span.duration)
                detected = "computing infrastructure"
                culprit = slowest.tags.get("pod", slowest.process_name)
                evidence.append(
                    f"slowest span {slowest.endpoint} took "
                    f"{slowest.duration * 1000:.0f} ms with clean "
                    "network metrics")
        return ScenarioOutcome(category, detected, culprit, evidence)

    def run(self, categories=CATEGORIES) -> CampaignResult:
        """Run the configured work and return its result."""
        result = CampaignResult()
        for category in categories:
            result.outcomes.append(self.run_scenario(category))
        return result
