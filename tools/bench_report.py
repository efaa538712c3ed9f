"""Emit BENCH_results.json: the headline numbers of the perf work.

Runs the hot-path measurements this repo optimizes — agent pipeline
throughput, span-store ingest, Algorithm 1 trace assembly (incremental
trace-graph index vs the iterative reference), sharded-store ingest
scaling with the scatter-gather query delay — plus the overload
self-protection trade (overhead vs trace completeness under a 10x ramp,
protection on vs off) and the continuous-pipeline throughput (ingest →
push-path assembly → OTLP export, with its deterministic sim-time
ingest-to-finished latency) — and writes them as one JSON document, so
perf regressions show up as a diffable artifact rather than scrolling
benchmark logs.

Usage::

    PYTHONPATH=src python tools/bench_report.py [output.json]
    PYTHONPATH=src python tools/bench_report.py fresh.json \\
        --check BENCH_results.json [--threshold 0.2]

``--check`` compares the fresh run against a committed baseline and
exits non-zero when any gated throughput metric drops by more than the
threshold (default 20%) — the committed numbers can only regress
loudly.  The fresh report is written either way, so CI keeps the
artifact of the failing run.

The workloads come from ``benchmarks/workloads.py``, the module the
pytest benchmarks use too; this script owns only its measurement loops
and the JSON it writes.

The sharded numbers report two throughputs per shard count: ``serial``
(wall clock of this single-process run) and ``modeled`` (router cost
taken as the max over a fixed fleet of routing clients, shard and
boundary-partition phase costs taken as the max over their members —
the phases a sharded deployment runs on independent nodes).  The
modeled figure is the scaling headline; the serial figure keeps the
accounting honest.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.workloads import (  # noqa: E402
    END_RPS, ROUTER_CLIENTS, SHARD_WINDOW, START_RPS, PhaseTimes,
    chain_store, ingest_phased, make_streaming_spans,
    run_overloaded_world, run_streaming_workload, sharding_spans,
    store_spans, synthetic_records)
from repro.agent.agent import DeepFlowAgent  # noqa: E402
from repro.core.export import OtlpStreamExporter  # noqa: E402
from repro.kernel.kernel import Kernel  # noqa: E402
from repro.server.assembler import TraceAssembler  # noqa: E402
from repro.server.database import SpanStore  # noqa: E402
from repro.server.sharding import ShardedSpanStore  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

AGENT_EVENTS = 20_000
STORE_SPANS = 50_000
TRACE_CHAIN = 24
TRACE_QUERIES = 200
SHARD_COUNTS = (1, 2, 4, 8)
STREAM_SPANS = 50_000

#: Dotted paths of gated metrics the --check gate compares.  A leading
#: ``-`` marks a lower-is-better metric (latency: a regression is the
#: fresh value exceeding the baseline by more than the threshold);
#: plain paths are higher-is-better throughputs.  Paths missing from
#: the baseline are skipped, so new sections land without a flag day.
GATED_METRICS = (
    "agent_pipeline.events_per_second",
    "store_ingest.insert_rate_spans_per_second",
    "store_ingest.ingest_to_queryable_spans_per_second",
    "trace_assembly.speedup",
    "sharding.scaling.4.modeled_spans_per_second",
    "sharding.speedup_1_to_4",
    "streaming.spans_per_second",
    "streaming.export_spans_per_second",
    "-streaming.p99_finish_lag_ms",
)


def bench_agent_pipeline() -> dict:
    """Events/second through the full user-space agent pipeline."""
    records = synthetic_records(AGENT_EVENTS)
    # Best of three fresh agents: a single cold pass once recorded a
    # 2x-low figure that read as a regression but was only a loaded
    # machine (see CHANGES.md PR 9) — the same event stream replayed on
    # a warm process reproduces the real per-event cost.
    elapsed = None
    agent = None
    for _attempt in range(3):
        sim = Simulator(seed=1)
        agent = DeepFlowAgent(Kernel(sim, "node-1"), agent_index=1)
        clock = time.perf_counter()
        for record in records:
            agent._process_event(record)
        run = time.perf_counter() - clock
        elapsed = run if elapsed is None else min(elapsed, run)
    return {
        "events": AGENT_EVENTS,
        "spans_emitted": agent.stats["spans_emitted"],
        "events_per_second": round(AGENT_EVENTS / elapsed),
        "per_event_us": round(elapsed / AGENT_EVENTS * 1e6, 2),
    }


def bench_store_ingest() -> dict:
    """Span-store ingest rate, with the deferred index commit priced."""
    spans = store_spans(STORE_SPANS)
    insert_seconds = commit_seconds = None
    for _attempt in range(3):
        store = SpanStore()
        clock = time.perf_counter()
        store.insert_many(spans)
        insert_run = time.perf_counter() - clock
        clock = time.perf_counter()
        store.flush()
        commit_run = time.perf_counter() - clock
        if insert_seconds is None or (insert_run + commit_run
                                      < insert_seconds + commit_seconds):
            insert_seconds, commit_seconds = insert_run, commit_run
    return {
        "spans": STORE_SPANS,
        "insert_rate_spans_per_second": round(STORE_SPANS / insert_seconds),
        "index_commit_ms": round(commit_seconds * 1e3, 2),
        "ingest_to_queryable_spans_per_second":
            round(STORE_SPANS / (insert_seconds + commit_seconds)),
    }


def bench_trace_assembly() -> dict:
    """Algorithm 1 per-query cost: trace-graph index vs iterative
    reference, on chain-shaped traces over a 50k-span store."""
    store, spans = chain_store(STORE_SPANS // TRACE_CHAIN + 1, TRACE_CHAIN)
    assembler = TraceAssembler(store)
    starts = [span.span_id
              for span in spans[::TRACE_CHAIN][:TRACE_QUERIES]]
    clock = time.perf_counter()
    for start in starts:
        assembler.collect_iterative(start)
    reference_seconds = (time.perf_counter() - clock) / len(starts)
    clock = time.perf_counter()
    for start in starts:
        assembler.collect(start)
    fast_seconds = (time.perf_counter() - clock) / len(starts)
    return {
        "store_spans": len(store),
        "chain_length": TRACE_CHAIN,
        "queries": len(starts),
        "trace_assembly_fast_ms": round(fast_seconds * 1e3, 4),
        "trace_assembly_reference_ms": round(reference_seconds * 1e3, 4),
        "speedup": round(reference_seconds / fast_seconds, 1),
    }


def _bench_one_shard_count(shards: int, spans: list,
                           repeats: int = 3) -> dict:
    """Phase-priced ingest + query delay for one shard count.

    The ingest is repeated on fresh stores and each phase member's cost
    is the elementwise MIN across repeats — the standard best-estimate
    of a deterministic member's true cost — before the parallel model
    takes the MAX across members.  Without the min pass, the max is a
    noise amplifier that grows with member count and biases the scaling
    curve against higher shard counts.  The collector is paused during
    the phased section for the same reason: a whole-process gen-2 GC
    pass lands deterministically on whichever member crosses the
    allocation threshold, but in the modeled deployment every shard
    process has its own heap, so charging one member the fleet's
    entire GC is a single-process artifact, not a cost of sharding.
    """
    best = None
    store = None
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    for _attempt in range(repeats):
        store = ShardedSpanStore(shards, window=SHARD_WINDOW)
        times = ingest_phased(store, spans)
        best = times if best is None else PhaseTimes(
            [min(a, b) for a, b in zip(best.route, times.route)],
            [min(a, b) for a, b in zip(best.shard, times.shard)],
            [min(a, b) for a, b in zip(best.partition, times.partition)],
            min(best.apply, times.apply))
    if gc_was_enabled:
        gc.enable()

    # Query delay: scatter-gather trace queries against the full store.
    starts = [span.span_id for span in spans[::4][:TRACE_QUERIES]]
    clock = time.perf_counter()
    for start in starts:
        store.component_spans(start)
    query_seconds = (time.perf_counter() - clock) / len(starts)
    stats = store.shard_stats()
    return {
        "modeled_spans_per_second": round(len(spans) / best.modeled),
        "serial_spans_per_second": round(len(spans) / best.serial),
        "route_max_ms": round(max(best.route) * 1e3, 2),
        "shard_max_ms": round(max(best.shard) * 1e3, 2),
        "partition_max_ms": round(max(best.partition) * 1e3, 2),
        "link_apply_ms": round(best.apply * 1e3, 2),
        "boundary_links": stats["boundary_links"],
        "imbalance": round(stats["imbalance"], 3),
        "trace_query_us": round(query_seconds * 1e6, 2),
    }


def bench_sharding() -> dict:
    """Fig-15-style scaling: ingest-to-queryable throughput across shard
    counts, plus a query-delay curve over a growing 4-shard store."""
    spans = sharding_spans(STORE_SPANS)
    # Throwaway warmup: the first phased ingest of a process pays
    # allocator growth and cold branch predictors, and whichever shard
    # count runs first would eat it — usually the 1-shard baseline,
    # skewing every ratio computed against it.
    _bench_one_shard_count(2, spans[:10_000], repeats=1)
    scaling = {str(count): _bench_one_shard_count(count, spans,
                                                  repeats=4)
               for count in SHARD_COUNTS}
    base = scaling["1"]["modeled_spans_per_second"]
    # Query-delay growth curve: delay must stay flat as the store grows
    # (component lookup is O(result), not O(store)).
    growth_store = ShardedSpanStore(4, window=SHARD_WINDOW)
    curve = []
    step = len(spans) // 5
    for stop in range(step, len(spans) + 1, step):
        growth_store.insert_many(spans[stop - step:stop])
        growth_store.flush()
        starts = [span.span_id for span in spans[:stop:4][:50]]
        clock = time.perf_counter()
        for start in starts:
            growth_store.component_spans(start)
        per_query = (time.perf_counter() - clock) / len(starts)
        curve.append({"spans": stop,
                      "trace_query_us": round(per_query * 1e6, 2)})
    return {
        "spans": len(spans),
        "router_clients": ROUTER_CLIENTS,
        "window_s": SHARD_WINDOW,
        "scaling": scaling,
        "speedup_1_to_2": round(
            scaling["2"]["modeled_spans_per_second"] / base, 2),
        "speedup_1_to_4": round(
            scaling["4"]["modeled_spans_per_second"] / base, 2),
        "speedup_1_to_8": round(
            scaling["8"]["modeled_spans_per_second"] / base, 2),
        "query_delay_curve_4_shards": curve,
    }


def _overloaded_run(protection: bool) -> dict:
    """One measurement leg of :func:`bench_overload`."""
    run = run_overloaded_world(protection)
    return {
        "ring_drops": run["dropped"],
        "ebpf_cost_ms": round(run["kernel_cost_ms"], 1),
        "spans": run["spans"],
        "whole_traces": run["whole"],
        "torn_traces": run["torn"],
        "trace_completeness": round(run["completeness"], 4),
        "tier_path": ["FULL"] + [new for _now, _old, new, _reason
                                 in run["transitions"]],
    }


def bench_overload() -> dict:
    """Overhead-vs-completeness under a 10x open-loop ramp, protection
    on vs off (the Fig. 16 analogue)."""
    return {
        "ramp_rps": [round(START_RPS), round(END_RPS)],
        "protected": _overloaded_run(True),
        "unprotected": _overloaded_run(False),
    }


def bench_streaming() -> dict:
    """Continuous pipeline: ingest -> push-path assembly -> OTLP export.

    Wall clock prices the full chain (store insert, link events,
    live-trace maintenance, parent assignment, OTLP/JSON encoding); the
    ingest-to-finished latency comes from the deterministic sim-time
    ``stream.finish_lag_s`` histogram, so the gated p99 is a lifecycle
    property that cannot flap with host speed.
    """
    run = run_streaming_workload(make_streaming_spans(STREAM_SPANS))
    # Export throughput in isolation: re-encode the finished traces.
    traces = [record.trace for record in run["server"].streaming.finished]
    export_seconds = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _attempt in range(3):
            sink = OtlpStreamExporter(keep_payloads=False)
            clock = time.perf_counter()
            for trace in traces:
                sink.export_trace(trace)
            elapsed = time.perf_counter() - clock
            export_seconds = (elapsed if export_seconds is None
                              else min(export_seconds, elapsed))
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "spans": run["spans"],
        "traces": run["traces"],
        "spans_per_second": run["spans_per_second"],
        "export_spans_per_second": round(sink.exported_spans
                                         / export_seconds),
        "p99_finish_lag_ms": run["p99_finish_lag_ms"],
        "mean_finish_lag_ms": run["mean_finish_lag_ms"],
        "merges": run["merges"],
        "forced_finishes": run["forced_finishes"],
    }


def _lookup(report: dict, dotted: str):
    node = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


def check_regressions(fresh: dict, baseline: dict,
                      threshold: float) -> list[str]:
    """Gated metrics that regressed more than *threshold* vs baseline.

    Plain paths are throughputs (regression = drop); ``-``-prefixed
    paths are latencies (regression = growth).
    """
    failures = []
    for gated in GATED_METRICS:
        lower_is_better = gated.startswith("-")
        dotted = gated[1:] if lower_is_better else gated
        base = _lookup(baseline, dotted)
        now = _lookup(fresh, dotted)
        if base is None or now is None or base <= 0:
            continue
        if lower_is_better:
            growth = now / base - 1.0
            if growth > threshold:
                failures.append(
                    f"{dotted}: {now} vs baseline {base} "
                    f"({growth:+.1%} growth exceeds {threshold:.0%} "
                    f"threshold)")
            continue
        drop = 1.0 - now / base
        if drop > threshold:
            failures.append(
                f"{dotted}: {now} vs baseline {base} "
                f"({drop:+.1%} drop exceeds {threshold:.0%} threshold)")
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_report",
        description="run the benchmark suite and emit BENCH_results.json")
    parser.add_argument("output", nargs="?", default="BENCH_results.json")
    parser.add_argument(
        "--check", nargs="?", const="BENCH_results.json", default=None,
        metavar="BASELINE",
        help="compare against a committed baseline JSON and exit "
             "non-zero on throughput regressions "
             "(default baseline: BENCH_results.json)")
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="maximum tolerated fractional drop per gated metric "
             "(default 0.20)")
    args = parser.parse_args(argv[1:])
    report = {
        "agent_pipeline": bench_agent_pipeline(),
        "store_ingest": bench_store_ingest(),
        "trace_assembly": bench_trace_assembly(),
        "sharding": bench_sharding(),
        "overload": bench_overload(),
        "streaming": bench_streaming(),
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    if args.check is not None:
        try:
            with open(args.check, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"bench_report: cannot read baseline {args.check}: "
                  f"{exc}", file=sys.stderr)
            return 2
        failures = check_regressions(report, baseline, args.threshold)
        if failures:
            print("bench_report: throughput regression vs "
                  f"{args.check}:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"bench_report: no regressions vs {args.check} "
              f"(threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
