"""Agent pipeline throughput (Goal 5: high performance).

The calibration notes for this reproduction flag the high-throughput
agent as the hard part of a Python build, so we measure it directly:
how many kernel events per (real) second the user-space pipeline absorbs
— enter/exit merge, protocol inference, session aggregation, systrace
assignment, span construction — and the per-event cost of each stage.
"""

import time

from benchmarks.conftest import print_table
from benchmarks.workloads import synthetic_records

from repro.agent.agent import DeepFlowAgent
from repro.kernel.kernel import Kernel
from repro.protocols import http1
from repro.sim.engine import Simulator

EVENTS = 20_000


def _fresh_agent():
    sim = Simulator(seed=1)
    kernel = Kernel(sim, "node-1")
    return DeepFlowAgent(kernel, agent_index=1)


def test_agent_pipeline_events_per_second(benchmark):
    records = synthetic_records(EVENTS)
    agent = _fresh_agent()

    def run_pipeline():
        for record in records:
            agent._process_event(record)
        return agent.stats["spans_emitted"]

    start = time.perf_counter()
    spans = run_pipeline()
    elapsed = time.perf_counter() - start
    events_per_second = EVENTS / elapsed
    print_table(
        "Agent user-space pipeline throughput",
        ["quantity", "value"],
        [("events processed", EVENTS),
         ("spans emitted", spans),
         ("events/second", f"{events_per_second:,.0f}"),
         ("per-event cost", f"{elapsed / EVENTS * 1e6:.1f} us")])
    assert spans == EVENTS // 2
    # A Python pipeline should still absorb tens of thousands of
    # events per second.
    assert events_per_second > 20_000
    benchmark.pedantic(lambda: _fresh_agent(), rounds=3, iterations=1)


def test_agent_per_event_cost(benchmark):
    """pytest-benchmark on the steady-state per-event path."""
    records = synthetic_records(EVENTS)
    agent = _fresh_agent()
    iterator = iter(records * 50)

    def one_event():
        agent._process_event(next(iterator))

    benchmark(one_event)


def test_protocol_inference_cost(benchmark):
    """One-time inference is amortized: steady-state parse is a sticky
    dict hit plus the protocol parser."""
    from repro.protocols.inference import ProtocolInferenceEngine
    engine = ProtocolInferenceEngine()
    payload = http1.encode_request("GET", "/api/items")
    engine.parse(1, payload)  # classification done once

    result = benchmark(lambda: engine.parse(1, payload))
    assert result.operation == "GET"
    assert engine.inference_attempts == 1
