"""The ``tools/bench_report.py --check`` regression gate.

``check_regressions`` compares a fresh report with the committed
baseline over ``GATED_METRICS``: plain paths are higher-is-better and
fail on a drop beyond the threshold, ``-``-prefixed paths are
lower-is-better and fail on a rise beyond it, and a path the baseline
lacks (or holds as a non-positive number) is skipped.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.bench_report import GATED_METRICS, check_regressions  # noqa: E402

THROUGHPUT = "agent_pipeline.events_per_second"
LATENCY = "streaming.p99_finish_lag_ms"


def report(events_per_second=None, p99_finish_lag_ms=None) -> dict:
    """A report holding only the two gated metrics these tests use."""
    out: dict = {"agent_pipeline": {}, "streaming": {}}
    if events_per_second is not None:
        out["agent_pipeline"]["events_per_second"] = events_per_second
    if p99_finish_lag_ms is not None:
        out["streaming"]["p99_finish_lag_ms"] = p99_finish_lag_ms
    return out


def test_paths_under_test_are_gated():
    assert THROUGHPUT in GATED_METRICS
    assert "-" + LATENCY in GATED_METRICS


def test_throughput_drop_beyond_threshold_fails():
    failures = check_regressions(report(70_000), report(100_000), 0.2)
    assert len(failures) == 1
    assert failures[0].startswith(THROUGHPUT)
    assert "drop" in failures[0]


def test_throughput_drop_within_threshold_passes():
    assert check_regressions(report(81_000), report(100_000), 0.2) == []
    # A gain is never a regression.
    assert check_regressions(report(300_000), report(100_000), 0.2) == []


def test_latency_rise_beyond_threshold_fails():
    failures = check_regressions(report(p99_finish_lag_ms=13.0),
                                 report(p99_finish_lag_ms=10.0), 0.2)
    assert len(failures) == 1
    assert failures[0].startswith(LATENCY)
    assert "growth" in failures[0]
    # Within the threshold, and any fall, pass.
    assert check_regressions(report(p99_finish_lag_ms=11.9),
                             report(p99_finish_lag_ms=10.0), 0.2) == []
    assert check_regressions(report(p99_finish_lag_ms=2.0),
                             report(p99_finish_lag_ms=10.0), 0.2) == []


def test_missing_or_non_positive_baseline_is_skipped():
    fresh = report(1, 1_000.0)
    assert check_regressions(fresh, {}, 0.2) == []
    assert check_regressions(fresh, report(), 0.2) == []
    assert check_regressions(fresh, report(0, 0.0), 0.2) == []
    assert check_regressions(fresh, report(-5, -1.0), 0.2) == []
