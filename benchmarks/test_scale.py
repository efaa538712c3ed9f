"""Scale stress: large generated topologies through the full pipeline.

The paper motivates DeepFlow with service graphs of up to 1,500
components [89]; this bench pushes a generated multi-layer graph
(tens of services, deep fan-out traces) through agents, store, and
Algorithm 1, reporting span volume and assembly time at scale.

The store benches also price the ingest redesign: write-optimized
inserts (index work deferred to a per-batch commit) and the incremental
trace-graph index versus the iterative Algorithm 1 reference.
"""

import time

from benchmarks.conftest import deploy_deepflow, flush_all, print_table, \
    run_wrk2
from benchmarks.workloads import chain_store, store_spans

from repro.apps.servicegen import generate
from repro.sim.engine import Simulator


def test_scale_generated_topology(benchmark):
    def run():
        sim = Simulator(seed=401)
        app = generate(sim, layers=4, width=6, fanout=3, node_count=6)
        server, agents = deploy_deepflow(app.cluster)
        report = run_wrk2(sim, app.pods["loadgen"], app.entry_ip,
                          app.entry_port, rate=20, duration=0.5,
                          connections=4)
        flush_all(sim, agents)
        server.store.flush()
        start_clock = time.perf_counter()
        trace = server.trace(server.slowest_span().span_id)
        assembly_seconds = time.perf_counter() - start_clock
        return app, server, report, trace, assembly_seconds

    app, server, report, trace, assembly_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1)
    expected_spans = 2 * app.sessions_per_request()
    print_table(
        "Scale: generated 4-layer topology",
        ["quantity", "value"],
        [("services deployed", len(app.services)),
         ("call edges", len(app.edges)),
         ("requests completed", report.completed),
         ("spans stored", len(server.store)),
         ("spans per trace", len(trace)),
         ("trace assembly time", f"{assembly_seconds * 1e3:.2f} ms")])
    assert report.errors == 0
    assert len(app.services) >= 16
    assert len(trace) == expected_spans
    assert len(trace.roots()) == 1
    assert len(server.store) == report.completed * expected_spans
    # The fast path answers without iterating; the reference must agree.
    reference = server.trace(trace.spans[0].span_id, use_index=False)
    assert {s.span_id for s in reference} == {s.span_id for s in trace}


def test_scale_store_handles_many_spans(benchmark):
    """Insert + query 50k synthetic spans through the store indexes.

    Ingest is measured as the agents' shipping path sees it (the
    write-optimized insert), with the deferred per-batch index commit
    priced separately — the commit runs once per batch, not per query.
    """
    from repro.core.ids import IdAllocator
    from repro.server.database import AssociationFilter, SpanStore

    store = SpanStore()
    spans = store_spans(50_000, IdAllocator(7).next_id)
    start_clock = time.perf_counter()
    store.insert_many(spans)
    insert_seconds = time.perf_counter() - start_clock
    start_clock = time.perf_counter()
    store.flush()
    commit_seconds = time.perf_counter() - start_clock

    assoc = AssociationFilter()
    assoc.absorb(spans[1234])

    def search():
        return store.search(assoc)

    result = benchmark(search)
    print_table(
        "Scale: span store with 50k spans",
        ["quantity", "value"],
        [("insert rate", f"{50_000 / insert_seconds:,.0f} spans/s"),
         ("index commit", f"{commit_seconds * 1e3:.1f} ms"),
         ("ingest-to-queryable rate",
          f"{50_000 / (insert_seconds + commit_seconds):,.0f} spans/s"),
         ("indexed search result", len(result))])
    assert len(store) == 50_000
    assert result  # systrace + flow-seq matches found
    # The redesign's floor: ingest itself must be far above the old
    # insort-per-span path (~200k spans/s on this workload).
    assert 50_000 / insert_seconds > 1_000_000


def test_scale_fast_path_vs_reference(benchmark):
    """Algorithm 1 on a 50k-span store: incremental index vs iteration.

    The acceptance bar for the index redesign: on chain-shaped traces
    the component lookup must beat the iterative reference by >= 10x,
    while returning identical span sets.
    """
    from repro.server.assembler import TraceAssembler

    chain = 24
    store, spans = chain_store(groups=50_000 // chain + 1, chain=chain)
    assembler = TraceAssembler(store)
    starts = [span.span_id for span in spans[::chain][:200]]

    for start in starts[:5]:  # equivalence spot-check before timing
        fast = {s.span_id for s in assembler.collect(start)}
        reference = {s.span_id
                     for s in assembler.collect_iterative(start)}
        assert fast == reference

    clock = time.perf_counter()
    for start in starts:
        assembler.collect_iterative(start)
    reference_seconds = (time.perf_counter() - clock) / len(starts)
    iterations = assembler.last_iteration_count

    clock = time.perf_counter()
    for start in starts:
        assembler.collect(start)
    fast_seconds = (time.perf_counter() - clock) / len(starts)
    speedup = reference_seconds / fast_seconds

    benchmark.pedantic(lambda: assembler.collect(starts[0]),
                       rounds=5, iterations=10)
    print_table(
        "Scale: Algorithm 1 fast path vs iterative reference "
        f"({len(store):,} spans, {chain}-span chains)",
        ["path", "per query", "notes"],
        [("iterative reference", f"{reference_seconds * 1e6:,.0f} us",
          f"{iterations} iterations"),
         ("trace-graph index", f"{fast_seconds * 1e6:,.0f} us",
          "component lookup"),
         ("speedup", f"{speedup:,.1f}x", "acceptance: >= 10x")])
    assert speedup >= 10
