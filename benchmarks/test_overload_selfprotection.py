"""Figure 16-style benchmark: agent self-protection under overload.

The paper reports the agent's bounded footprint under stress (§4.4,
Fig. 16): when the workload overruns the deployment's provisioned
capacity, DeepFlow degrades observability detail instead of either
dropping data at random or competing with the workload for CPU.  This
harness drives an open-loop wrk2-style ramp to ~10× the rate the
agent's perf buffer can absorb, and measures the trade the overload
controller makes, protection on vs off:

* **overhead** — total simulated eBPF cost charged by the kernel hooks
  (the "agent tax" on the node), plus perf-ring drops;
* **completeness** — how many emitted traces survive *whole* (both the
  client-side and server-side span present, no error spans), the
  quantity the trace-atomic head sampler is designed to preserve.

The assertions pin the qualitative shape, which is what a reproduction
can claim: payload detail is shed before whole spans (SHED_PAYLOAD
engages strictly before HEAD_SAMPLE), protected runs keep >= 95% of the
traces they emit whole, transitions replay identically run-to-run, and
the unprotected twin both costs more kernel time and shreds traces.
"""

import pytest

from benchmarks.conftest import print_table
from benchmarks.workloads import END_RPS, START_RPS, run_overloaded_world


@pytest.fixture(scope="module")
def protected():
    return run_overloaded_world(protection=True)


@pytest.fixture(scope="module")
def unprotected():
    return run_overloaded_world(protection=False)


def tier_path(measurements) -> list:
    return [(old, new) for _now, old, new, _reason
            in measurements["transitions"]]


def test_payload_sheds_before_spans(protected):
    """Degradation order is the design's core promise: detail first
    (SHED_PAYLOAD), sampling only if pressure persists (HEAD_SAMPLE) —
    never the other way around."""
    path = tier_path(protected)
    assert ("FULL", "SHED_PAYLOAD") in path
    entered = [new for _old, new in path]
    assert "SHED_PAYLOAD" in entered
    if "HEAD_SAMPLE" in entered:
        assert (entered.index("SHED_PAYLOAD")
                < entered.index("HEAD_SAMPLE"))
    # The ramp ends, so the controller must also walk back up to FULL.
    assert protected["transitions"][-1][2] == "FULL"


def test_protection_absorbs_the_overrun(protected, unprotected):
    """With the controller on, the ring never overflows; off, the same
    ramp drops thousands of records and charges more eBPF time."""
    assert protected["dropped"] == 0
    assert unprotected["dropped"] > 1_000
    assert protected["kernel_cost_ms"] < unprotected["kernel_cost_ms"]


def test_protected_traces_stay_whole(protected, unprotected):
    """>= 95% of emitted traces complete under protection (acceptance
    bar); the unprotected twin visibly shreds traces."""
    assert protected["completeness"] >= 0.95
    assert protected["torn"] == 0
    assert unprotected["torn"] > 0
    assert unprotected["completeness"] < protected["completeness"]


def test_transitions_are_deterministic(protected):
    """Same seed, same ramp -> byte-identical transition log."""
    rerun = run_overloaded_world(protection=True)
    assert rerun["transitions"] == protected["transitions"]
    assert rerun["whole"] == protected["whole"]


def test_overhead_vs_completeness_table(protected, unprotected):
    """The Fig-16-style summary: what protection costs and buys."""
    rows = []
    for label, m in (("protection on", protected),
                     ("protection off", unprotected)):
        rows.append([
            label,
            f"{m['kernel_cost_ms']:.0f}",
            m["dropped"],
            m["spans"],
            m["whole"],
            m["torn"],
            f"{m['completeness']:.1%}",
            " -> ".join(["FULL"] + [new for _o, new
                                    in tier_path(m)]) or "FULL",
        ])
    print_table(
        f"Agent self-protection under a {START_RPS:.0f}->"
        f"{END_RPS:.0f} rps ramp (Fig. 16 analogue)",
        ["mode", "ebpf cost (ms)", "ring drops", "spans",
         "whole traces", "torn", "completeness", "tier path"],
        rows)
    assert protected["whole"] > 0
