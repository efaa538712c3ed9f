"""The benchmark's own tests: tiny-size smoke runs of each workload,
same-seed determinism of the sim-time metrics, and the per-layer
self-time identity of the traced run.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from speed import (REFERENCE_PROBE_S, SpeedMeter, at_reference,
                   trimmed_mean)
from tracing import LAYER_OF, Tracer
from workloads import WORKLOADS, percentile

BENCH_DIR = Path(__file__).resolve().parent.parent
TINY = 0.02   # 20 requests per round


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    instance = WORKLOADS[request.param](seed=3, scale=TINY)
    instance.prepare()
    return instance


def test_round_is_correct_at_tiny_size(workload):
    result = workload.run_round()
    assert result.attempted > 0
    assert result.failed == 0, result.failures
    assert result.spans_per_s > 0
    assert result.query_s and all(min(times) > 0 for times in result.query_s)
    assert result.query_probes and result.busy_probe_s > 0
    ratios = workload.overhead_ratios([result])
    if workload.name == "replay-mixed":
        assert result.bare_s is None
        assert len(ratios) == workload.RATIO_PAIRS
    else:
        assert result.bare_s and result.run_s > 0
        assert ratios == [result.run_s / result.bare_s]
    assert all(ratio > 1 for ratio in ratios)
    det = result.deterministic
    if workload.name == "springboot-push":
        assert 0 < det["trace_completeness"] <= 1
        assert det["exported_spans"] == 10 * workload.inputs.requests
    else:
        assert det["trace_completeness"] == 1.0
    assert det["finish_lag_p50_ms"] > 0
    assert det["app_latency_p50_ms"] > 0


def test_same_seed_repeats_sim_metrics(workload):
    first = workload.run_round(bare=False).deterministic
    again = workload.run_round(bare=False).deterministic
    fresh = type(workload)(seed=3, scale=TINY)
    fresh.prepare()
    assert again == first
    assert fresh.run_round(bare=False).deterministic == first


def test_other_seed_changes_inputs():
    pull = WORKLOADS["bookinfo-pull"]
    assert pull(seed=3).inputs != pull(seed=4).inputs
    assert pull(seed=3).inputs == pull(seed=3).inputs


def test_traced_self_times_add_up_to_wall(workload):
    result = workload.run_round(tracer=Tracer(), bare=False)
    tracer = result.tracer
    table = tracer.layer_table()
    total = sum(row["self_s"] for row in table.values())
    assert tracer.wall() == pytest.approx(result.wall_s, rel=0.05)
    assert total == pytest.approx(tracer.wall(), abs=1e-6)
    assert table["server"]["spans"] > 0
    if workload.name == "replay-mixed":
        assert table["sim"]["spans"] == 0
    else:
        assert table["sim"]["busy_s"] > 0
        assert table["kernel"]["spans"] > 0
    if workload.name == "springboot-push":
        assert table["streaming"]["spans"] > 0
        assert table["export"]["spans"] > 0
    else:
        assert table["export"]["spans"] == 0


def test_tracer_self_time_and_busy():
    tracer = Tracer()
    tracer.active = True
    outer = tracer.begin("round")
    inner = tracer.begin("store.flush")
    nested = tracer.begin("store.commit")
    tracer.end(nested)
    tracer.end(inner)
    tracer.end(outer)
    durations = tracer.durations()
    selfs = tracer.self_times()
    assert sum(selfs) == pytest.approx(durations[0])
    assert selfs[1] == pytest.approx(durations[1] - durations[2])
    # A commit inside a flush counts once towards their union.
    assert tracer.busy({"store.flush", "store.commit"}) == durations[1]
    assert set(tracer.layer_table()) == set(LAYER_OF.values())


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 0.50) == 500
    assert percentile(values, 0.99) == 990   # ten samples beyond it
    assert percentile([7.0], 0.99) == 7.0


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric(capsys, trace):
    args = argparse.Namespace(workload="bookinfo-pull", seed=3,
                              seconds=0.1, trace=trace)
    spec = bench.load_spec()
    result = bench.run(WORKLOADS["bookinfo-pull"](seed=3, scale=TINY),
                       args, spec)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = bench.units_of(spec, "per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
    assert json.loads(json.dumps(result)) == result
    assert "attempted" in capsys.readouterr().out


def test_cli_rejects_unknown_workload(capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["--workload", "nope", "--seed", "1", "--seconds", "1"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_refuses_tree_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bookinfo-pull",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_workloads():
    spec = bench.load_spec()
    assert set(WORKLOADS) == {entry["name"] for entry in spec["workloads"]}
    assert spec["paths"] == [BENCH_DIR.name]



def test_speed_meter_scales_to_reference():
    meter = SpeedMeter()
    mark = meter.mark()
    meter.tick()
    meter.tick()   # too soon after the first: no second probe
    assert len(meter.since(mark)) == 1
    assert meter.since(meter.mark()) and meter.samples[-1] > 0
    probe_s = REFERENCE_PROBE_S * 2   # a machine at half speed
    assert at_reference(0.4, probe_s) == pytest.approx(0.2)
    # The slowest fifth is left out: a stall does not set the mean.
    assert trimmed_mean([1.0, 1.0, 3.0, 3.0, 50.0]) == 2.0
    assert trimmed_mean([7.0]) == 7.0
