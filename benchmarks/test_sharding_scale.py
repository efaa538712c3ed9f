"""Sharded-store scaling: near-linear ingest, flat query delay.

The Fig-15 story at fleet scale: ingest-to-queryable throughput should
grow near-linearly with shard count (each shard owns its own memtable,
commit discipline, and union-find; the stateless router and the
partitioned boundary tables stay off the critical path), while the
scatter-gather trace query stays flat as the store grows — component
lookup is O(result), not O(store).

A single python process cannot run shards in parallel, so each phase is
timed per member and the parallel deployment is *modeled*: router cost
is the max over a fixed fleet of routing clients, shard and boundary-
partition costs are the max over their members, and only the small
cross-shard link apply is charged serially.  The serial wall-clock sum
is printed alongside so the accounting stays honest.
"""

import gc
import time

from benchmarks.conftest import print_table
from benchmarks.workloads import SHARD_WINDOW, ingest_phased, \
    sharding_spans

from repro.server.database import SpanStore
from repro.server.sharding import ShardedSpanStore

SPANS = 50_000
SHARD_COUNTS = (1, 2, 4, 8)
QUERIES = 200


def test_sharded_ingest_scales_and_queries_stay_flat(benchmark):
    spans = sharding_spans(SPANS)
    single = SpanStore()
    single.insert_many(spans)
    single.flush()

    rows = []
    modeled_rates = {}
    stores = {}
    for count in SHARD_COUNTS:
        # Best-of-2 with a fresh store per attempt: one cold shot per
        # count is a noise source.  GC is paused so a whole-process
        # collection doesn't land on one member — modeled shard
        # processes each have their own heap.
        best = None
        for _attempt in range(2):
            attempt_store = ShardedSpanStore(count, window=SHARD_WINDOW)
            gc.collect()
            gc.disable()
            times = ingest_phased(attempt_store, spans)
            gc.enable()
            if best is None or times.modeled < best[0]:
                best = (times.modeled, times.serial, attempt_store)
        modeled, serial, store = best
        starts = [span.span_id for span in spans[::4][:QUERIES]]
        clock = time.perf_counter()
        for start in starts:
            store.component_spans(start)
        query_us = (time.perf_counter() - clock) / len(starts) * 1e6
        modeled_rates[count] = len(spans) / modeled
        stores[count] = store
        rows.append((count, f"{len(spans) / modeled:,.0f}",
                     f"{len(spans) / serial:,.0f}",
                     f"{modeled_rates[count] / modeled_rates[1]:.2f}x",
                     f"{query_us:.1f}",
                     store.shard_stats()["boundary_links"]))
    print_table(
        "Sharded ingest scaling (modeled parallel vs serial wall clock)",
        ["shards", "modeled spans/s", "serial spans/s", "scaling",
         "trace query us", "boundary links"],
        rows)

    # Correctness spot check: the 8-way scatter-gather component equals
    # the unsharded component for a straddling sample.
    for start in range(0, 2000, 37):
        assert (stores[8].component_ids(start)
                == single.component_ids(start))

    # Conservative floors (the JSON artifact records the real curve;
    # these only catch the sharding machinery falling off a cliff).
    assert modeled_rates[2] / modeled_rates[1] > 1.3
    assert modeled_rates[4] / modeled_rates[1] > 2.0
    assert modeled_rates[8] > modeled_rates[2]

    # Query delay stays flat as the store grows (O(result) lookups).
    growth = ShardedSpanStore(4, window=SHARD_WINDOW)
    delays = []
    step = len(spans) // 5
    for stop in range(step, len(spans) + 1, step):
        growth.insert_many(spans[stop - step:stop])
        growth.flush()
        starts = [span.span_id for span in spans[:stop:4][:50]]
        clock = time.perf_counter()
        for start in starts:
            growth.component_spans(start)
        delays.append((time.perf_counter() - clock) / len(starts))
    assert delays[-1] < 5 * delays[0]

    benchmark.pedantic(
        lambda: stores[4].component_spans(spans[0].span_id),
        rounds=5, iterations=100)
