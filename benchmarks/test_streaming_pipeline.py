"""Continuous-pipeline throughput: ingest → assembly → OTLP export.

The push path must keep up with the agent fleet: the acceptance bar is
50k spans/s sustained through the whole chain — span-store insert,
union-find link events, live-trace maintenance, parent assignment on
retirement, and OTLP/JSON encoding of every finished trace.  The same
workload also reports the deterministic sim-time ingest-to-finished
latency (from the ``stream.finish_lag_s`` histogram), which is a
property of the lifecycle parameters, not of wall-clock speed.
"""

import time

from benchmarks.conftest import print_table
from benchmarks.workloads import make_streaming_spans, \
    run_streaming_workload

from repro.core.export import OtlpStreamExporter
from repro.core.span import Span
from repro.server.server import DeepFlowServer

SPAN_COUNT = 50_000
TARGET_SPANS_PER_SECOND = 50_000


def run_export_only(spans: list[Span], *, repeats: int = 3) -> dict:
    """Export throughput in isolation: re-encode the finished traces
    (the pipeline's per-trace OTLP cost without store or assembly)."""
    server = DeepFlowServer(streaming=True)
    server.ingest_spans(spans, now=spans[-1].end_time)
    server.streaming.drain(spans[-1].end_time)
    traces = [record.trace for record in server.streaming.finished]
    exported = sum(len(trace) for trace in traces)
    elapsed = None
    for _attempt in range(repeats):
        sink = OtlpStreamExporter(keep_payloads=False)
        clock = time.perf_counter()
        for trace in traces:
            sink.export_trace(trace)
        run = time.perf_counter() - clock
        elapsed = run if elapsed is None else min(elapsed, run)
    return {
        "spans": exported,
        "export_spans_per_second": round(exported / elapsed),
        "export_us_per_span": round(elapsed / exported * 1e6, 2),
    }


def test_streaming_sustains_target_throughput(benchmark):
    spans = make_streaming_spans(SPAN_COUNT)
    run_streaming_workload(spans[:5000], repeats=1)       # warmup
    result = run_streaming_workload(spans)
    export = run_export_only(spans)
    print_table(
        "Continuous pipeline: ingest -> assembly -> OTLP export",
        ["metric", "value"],
        [("spans", result["spans"]),
         ("finished traces", result["traces"]),
         ("end-to-end spans/s", f"{result['spans_per_second']:,}"),
         ("export-only spans/s",
          f"{export['export_spans_per_second']:,}"),
         ("p99 ingest-to-finished (sim ms)",
          result["p99_finish_lag_ms"]),
         ("mean ingest-to-finished (sim ms)",
          result["mean_finish_lag_ms"]),
         ("forced finishes", result["forced_finishes"])])
    assert result["spans_per_second"] >= TARGET_SPANS_PER_SECOND
    assert export["export_spans_per_second"] > TARGET_SPANS_PER_SECOND
    # Steady state: traces retire while ingest runs, not at the drain.
    assert result["forced_finishes"] < result["traces"] * 0.05
    assert result["merges"] == result["spans"] - result["traces"]
    benchmark.pedantic(
        lambda: run_streaming_workload(spans[:10_000], repeats=1),
        rounds=3, iterations=1)


def test_finish_lag_is_deterministic_sim_time():
    """The latency figure is a lifecycle property: two runs on the same
    workload report identical histograms regardless of host speed."""
    spans = make_streaming_spans(10_000)
    first = run_streaming_workload(spans, repeats=1)
    second = run_streaming_workload(spans, repeats=1)
    assert first["p99_finish_lag_ms"] == second["p99_finish_lag_ms"]
    assert first["mean_finish_lag_ms"] == second["mean_finish_lag_ms"]
    assert first["traces"] == second["traces"]
