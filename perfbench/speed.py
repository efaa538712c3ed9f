"""Machine-speed probe behind the benchmark's wall-clock metrics.

A shared machine can run the same Python code at two speeds about 1.8x
apart.  On a 2-vCPU VM the speed flips every few milliseconds, and the
share of time spent slow drifts over seconds; sometimes a whole run is
slow.  A minimum over repeats cannot remove a slowdown that lasts a
whole run, so the benchmark also times a fixed probe kernel (this
module's code, which no change to ``src/`` can speed up) between the
steps it measures, at most every ``PROBE_INTERVAL_S`` within a stretch
of them, and scales its timings to the reference speed, at which the
probe takes ``REFERENCE_PROBE_S``:

* the wall seconds of a stretch of work (a sim run, a commit, a
  replay, a set-up) are scaled by the *mean* probe time over the same
  stretch: both are averages over the same mix of speeds;
* a short step (one ``trace()`` read, tens of µs) runs at one speed, so
  the benchmark averages each read over its repeats before scaling by
  the mean probe time over the reads.  A minimum would not do: it
  finds the fast speed only when some repeat ran at it.  Both means
  leave out the slowest ``TRIM_SHARE`` of their samples, so a rare
  stall (the VM descheduled for a while) does not set a read's
  time; for a mix of two speeds the trimmed means keep the same share
  of slow samples.

The probe does the kinds of work the span path does (small objects,
attribute reads, a keyed sort, dict and list churn, string formatting),
so it slows down with the program.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

#: The probe's wall seconds at the reference speed (about its fastest
#: time on a 2-vCPU x86-64 VM with Python 3.11).
REFERENCE_PROBE_S = 135e-6
#: Wall seconds between probes, at least.
PROBE_INTERVAL_S = 0.005
#: Share of the slowest samples a trimmed mean leaves out.
TRIM_SHARE = 0.2


class _Item:
    __slots__ = ("key", "rank", "label")

    def __init__(self, key: int, rank: float, label: str) -> None:
        self.key = key
        self.rank = rank
        self.label = label


_rng = random.Random(20231017)
_INPUT = [(_rng.randrange(64), _rng.random()) for _ in range(200)]


def probe() -> float:
    """Wall seconds of one run of the fixed probe kernel (the cyclic
    collector paused, as its pauses are not the machine's speed)."""
    gc.disable()
    try:
        start = perf_counter()
        items = [_Item(key, rank, f"k{key}") for key, rank in _INPUT]
        items.sort(key=lambda item: (item.rank, item.key))
        groups: dict[int, list] = {}
        for item in items:
            groups.setdefault(item.key, []).append(item.label)
        for key, labels in groups.items():
            labels.sort()
        seconds = perf_counter() - start
    finally:
        gc.enable()
    return seconds


def trimmed_mean(values: list[float]) -> float:
    """Mean of *values* without the slowest ``TRIM_SHARE`` of them."""
    ordered = sorted(values)
    kept = ordered[:max(1, len(ordered) - int(len(ordered) * TRIM_SHARE))]
    return sum(kept) / len(kept)


def at_reference(seconds: float, probe_s: float) -> float:
    """*seconds* of wall time measured while the probe took *probe_s*,
    as wall seconds at the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


class SpeedMeter:
    """Probe times taken between timed steps, in order."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self) -> None:
        """Probe, unless the last probe is under ``PROBE_INTERVAL_S``
        old.  Call between timed steps, never inside one."""
        if perf_counter() >= self._due:
            self.samples.append(probe())
            self._due = perf_counter() + PROBE_INTERVAL_S

    def mark(self) -> int:
        """A position in the probe log, to read a stretch back from."""
        return len(self.samples)

    def since(self, mark: int) -> list[float]:
        """Probe times taken since *mark* (a fresh probe if none was)."""
        if len(self.samples) == mark:
            self.samples.append(probe())
        return self.samples[mark:]


#: The one meter every timed step of a benchmark run reads.
METER = SpeedMeter()
