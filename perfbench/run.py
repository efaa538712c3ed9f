"""End-to-end span-path benchmark: one command, named metrics, checks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bookinfo-pull --seed 1 \\
        --seconds 16 --trace 0

``--trace 0`` repeats untraced rounds for about ``--seconds`` wall
seconds and prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics.  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result record
stamped with the seed, Python version, CPU count, platform and git
commit is written under ``perfbench/out/``; the traced run also writes
its spans there.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import METER, at_reference, probe, trimmed_mean

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Timed rounds per run, at least.
MIN_ROUNDS = 2
#: Set-up-only repetitions before each round: up to this many, within
#: ``SETUP_BUDGET_S`` wall seconds (at least one).
SETUP_SAMPLES = 10
SETUP_BUDGET_S = 0.25

#: Units of per-layer metrics that count work: they must repeat exactly.
COUNT_UNITS = ("count", "ratio")


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units_of(spec: dict, kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def fail_setup(message: str) -> None:
    """Exit non-zero without a result (the tree cannot be benchmarked)."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit() -> str:
    """HEAD's commit id, or ``unknown`` outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(args) -> dict:
    """Where and how this result was measured."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def one_round(workload, **kwargs):
    """One round on a collected heap.  Objects alive before it (the
    benchmark's inputs, earlier rounds' leftovers) are frozen out of the
    collector, so its pauses scale with the round's own objects."""
    gc.collect()
    gc.freeze()
    try:
        return workload.run_round(**kwargs)
    finally:
        gc.unfreeze()


def timed_rounds(workload, seconds: float, setups: list) -> list:
    """Repeat rounds while another one still fits in *seconds*, each
    after a batch of set-ups (appended to *setups*).  Every round runs
    the bare twin, so all rounds are of one kind: the twin in lockstep
    also slows the DeepFlow world a little."""
    results = []
    start = perf_counter()
    while True:
        setups.append(setup_batch(workload))
        results.append(one_round(workload))
        elapsed = perf_counter() - start
        if (len(results) >= MIN_ROUNDS
                and elapsed * (len(results) + 1) / len(results) > seconds):
            return results


def setup_batch(workload) -> float:
    """Mean wall seconds of repeated set-ups (results discarded), each
    on a collected heap after a speed probe, at the reference speed."""
    walls, probes = [], []
    start = perf_counter()
    while len(walls) < SETUP_SAMPLES and (
            not walls or perf_counter() - start < SETUP_BUDGET_S):
        gc.collect()
        probes.append(probe())
        begin = perf_counter()
        workload.setup()
        walls.append(perf_counter() - begin)
    return at_reference(statistics.mean(walls), statistics.mean(probes))


def check_repeats(rounds) -> list[str]:
    """Names whose deterministic values differ between rounds."""
    first = rounds[0].deterministic
    return sorted({name for other in rounds[1:]
                   for name, value in other.deterministic.items()
                   if first.get(name) != value})


def end_to_end(workload, rounds, memory_round, setups) -> tuple[dict, dict]:
    """Every end-to-end metric, and the sample count behind each.

    Absolute wall-clock timings are at the reference speed (see
    ``speed.py``).  The reads repeat in the same order every round, so
    each read's time is its trimmed mean over passes and rounds before
    the percentiles are taken."""
    from workloads import percentile

    reads = [trimmed_mean([time for times in repeats for time in times])
             for repeats in zip(*(result.query_s for result in rounds))]
    read_probe_s = trimmed_mean([time for result in rounds
                                 for time in result.query_probes])

    def query_us(p: float) -> float:
        return at_reference(percentile(reads, p), read_probe_s) * 1e6

    ratios = workload.overhead_ratios(rounds)
    det = memory_round.deterministic
    values = {
        "setup_s": statistics.median(setups),
        "spans_per_s": statistics.median(r.spans_per_s for r in rounds),
        "deepflow_over_bare": statistics.median(ratios),
        "query_p50_us": query_us(0.50),
        "query_p99_us": query_us(0.99),
        "finish_lag_p50_ms": det["finish_lag_p50_ms"],
        "finish_lag_p99_ms": det["finish_lag_p99_ms"],
        "trace_completeness": det["trace_completeness"],
        "app_latency_p50_ms": det["app_latency_p50_ms"],
        "app_latency_p99_ms": det["app_latency_p99_ms"],
        "mem_peak_mb": memory_round.mem_peak_mb,
    }
    requests = workload.inputs.requests
    repeats = len(rounds) * rounds[0].query_passes
    samples = {
        "setup_s": len(setups),
        "spans_per_s": len(rounds),
        "deepflow_over_bare": len(ratios),
        "query_p50_us": f"{len(reads)} reads x {repeats}",
        "query_p99_us": f"{len(reads)} reads x {repeats}",
        "finish_lag_p50_ms": det.get("exported_traces", requests),
        "finish_lag_p99_ms": det.get("exported_traces", requests),
        "trace_completeness": requests,
        "app_latency_p50_ms": requests,
        "app_latency_p99_ms": requests,
        "mem_peak_mb": 1,
    }
    return values, samples


def per_layer(result) -> dict:
    """Every per-layer metric of one traced round except the tracing
    overhead, which compares rounds."""
    tracer = result.tracer
    counts = result.layer_counts
    det = result.deterministic

    def busy(*names):
        return tracer.busy(set(names))

    events = counts.get("agent.events", 0)
    spans = counts.get("agent.spans", 0)
    export_s = busy("export.trace")
    export_spans = counts.get("export.spans", 0)
    poll_s = busy("agent.poll")
    return {
        "sim.steps": counts["sim.steps"],
        "sim.self_s": tracer.layer_table()["sim"]["self_s"],
        "kernel.hook_fires": counts.get("kernel.hook_fires", 0),
        "kernel.hook_s": busy("kernel.fire"),
        "kernel.ring_drops": counts.get("kernel.ring_drops", 0),
        "agent.poll_s": poll_s,
        "agent.events": events,
        "agent.spans": spans,
        "agent.us_per_event": poll_s / events * 1e6 if events else 0.0,
        "agent.span_yield": spans / events if events else 0.0,
        "server.ingest_s": busy("server.ingest"),
        "server.ingest_batches": tracer.count("server.ingest"),
        "server.commit_s": busy("store.flush", "store.commit"),
        "server.query_s": busy("server.trace"),
        "server.queries": tracer.count("server.trace"),
        "server.spans_per_query": counts["server.spans_per_query"],
        "server.boundary_links": counts["server.boundary_links"],
        "server.shard_imbalance": counts["server.shard_imbalance"],
        "streaming.s": busy("streaming.on_spans", "streaming.tick",
                            "streaming.finalize"),
        "streaming.merges": counts.get("streaming.merges", 0),
        "streaming.finished": counts.get("streaming.finished", 0),
        "streaming.fragments": det.get("fragments", 0),
        "streaming.forced": det.get("forced", 0),
        "export.s": export_s,
        "export.traces": counts.get("export.traces", 0),
        "export.spans": export_spans,
        "export.us_per_span": (export_s / export_spans * 1e6
                               if export_spans else 0.0),
    }


def self_times_add_up(tracer) -> bool:
    """Whether the per-layer self times sum to the traced wall time."""
    total = sum(row["self_s"] for row in tracer.layer_table().values())
    wall = tracer.wall()
    return abs(total - wall) <= 1e-6 * max(1.0, wall)


def print_layer_table(tracer) -> None:
    """Per-layer busy time, self time, share of wall and span count."""
    table = tracer.layer_table()
    wall = tracer.wall()
    print(f"{'layer':<10} {'busy_s':>9} {'self_s':>9} {'self%':>6} "
          f"{'spans':>8}")
    for layer, row in table.items():
        print(f"{layer:<10} {row['busy_s']:9.4f} {row['self_s']:9.4f} "
              f"{row['self_s'] / wall * 100:6.1f} {row['spans']:8d}")
    total = sum(row["self_s"] for row in table.values())
    print(f"{'sum':<10} {'':>9} {total:9.4f}  traced wall {wall:.4f} s")


def measure_end_to_end(workload, seconds: float):
    """Set-up samples, the memory round, then timed rounds; returns the
    rounds, metric values, sample counts and failed checks."""
    setups = [setup_batch(workload)]
    memory_round = one_round(workload, memory=True, bare=False)
    timed = timed_rounds(workload, seconds, setups)
    rounds = [memory_round] + timed
    values, samples = end_to_end(workload, timed, memory_round, setups)
    return rounds, values, samples, []


def measure_layers(workload, seconds: float, spans_path: Path,
                   units: dict[str, str]):
    """A warm-up round, then untraced and traced rounds in turn; returns
    the rounds, per-layer values, sample counts and failed checks, and
    writes the last traced round's spans to *spans_path*."""
    from tracing import Tracer

    def at_speed(**kwargs) -> tuple:
        """A round without the twin, and its timed phase's wall at the
        reference speed."""
        mark = METER.mark()
        result = one_round(workload, bare=False, **kwargs)
        probes = METER.since(mark)
        return result, at_reference(result.wall_s, statistics.mean(probes))

    notes = []
    warmup = one_round(workload, bare=False)
    untraced, traced, walls = [], [], []
    start = perf_counter()
    while True:
        plain, plain_wall = at_speed()
        traced_round, traced_wall = at_speed(tracer=Tracer())
        untraced.append(plain)
        traced.append(traced_round)
        walls.append(traced_wall / plain_wall)
        elapsed = perf_counter() - start
        if elapsed * (len(traced) + 1) / len(traced) > seconds:
            break
    print_layer_table(traced[-1].tracer)
    if not all(self_times_add_up(result.tracer) for result in traced):
        notes.append("per-layer self times do not add up to the wall")
    series = [per_layer(result) for result in traced]
    values = {name: statistics.median(row[name] for row in series)
              for name in series[0]}
    for name, unit in units.items():
        if unit in COUNT_UNITS and len({row[name] for row in series}) > 1:
            notes.append(f"per-layer count {name} did not repeat")
    # Each traced round against the untraced round just before it, both
    # at the reference speed.
    values["trace.overhead_pct"] = (statistics.median(walls) - 1.0) * 100.0
    samples = {name: len(traced) for name in values}
    traced[-1].tracer.write(str(spans_path))
    print(f"spans: {len(traced[-1].tracer)} written to {spans_path}")
    return [warmup] + untraced + traced, values, samples, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        fail_setup(f"no source tree at {ROOT / 'src' / 'repro'}")
    for path in (ROOT / "src", BENCH_DIR):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; choose from "
                   f"{', '.join(WORKLOADS)}")
    result = run(WORKLOADS[args.workload](args.seed), args, load_spec())
    print(json.dumps(result))
    return 0


def run(workload, args, spec: dict) -> dict:
    """Measure one workload as BENCHMARK.json (*spec*) declares it;
    prints the report, writes the result record and returns the result
    line."""
    info = stamp(args)
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    print(f"perfbench {args.workload}: {why[args.workload]}")
    print("stamp: " + json.dumps(info, sort_keys=True))
    start = perf_counter()
    workload.prepare()
    print(f"prepare: {perf_counter() - start:.2f} s")
    name = f"{args.workload}-seed{args.seed}"
    if args.trace:
        units = units_of(spec, "per_layer")
        rounds, values, samples, notes = measure_layers(
            workload, args.seconds, OUT_DIR / f"{name}-spans.tsv.gz", units)
    else:
        units = units_of(spec, "end_to_end")
        rounds, values, samples, notes = measure_end_to_end(
            workload, args.seconds)
    if set(values) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    for changed in check_repeats(rounds):
        notes.append(f"deterministic metric {changed} did not repeat")
    attempted = sum(result.attempted for result in rounds)
    failures: dict[str, int] = {}
    for result in rounds:
        for reason, count in result.failures.items():
            failures[reason] = failures.get(reason, 0) + count
    failed = sum(failures.values())

    print(f"rounds: {len(rounds)}, timed phases (s) "
          f"{[round(result.wall_s, 3) for result in rounds]}")
    print(f"{'metric':<24} {'value':>14} {'unit':<8} samples")
    for metric in units:
        print(f"{metric:<24} {values[metric]:14.4f} {units[metric]:<8} "
              f"{samples[metric]}")
    print(f"attempted {attempted}, failed {failed}"
          + "".join(f"; {reason}: {count}"
                    for reason, count in sorted(failures.items())))
    for note in notes:
        print(f"CHECK FAILED: {note}")

    result_line = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric],
                             "unit": units[metric]}
                    for metric in units},
    }
    record = {"stamp": info, "samples": samples, "failures": failures,
              "notes": notes, **result_line}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True))
    return result_line


if __name__ == "__main__":
    sys.exit(main())
