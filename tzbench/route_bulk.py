"""route-bulk: in-process bulk routing off a stored lineage, closed loop.

One thread routes uniform 16,384-pair batches through a ``RouteService``
that follows a lineage pointer, with the native kernel.  Commit and hop
loop do nearly all the work: no JSON, no writes.  ``update_s`` here is
the swap half of an update: from the moved pointer to the first answer
from the version it names, alternating between two stored versions.  The
pointer write itself is not timed: its rename waits on the filesystem
journal, whose latency follows the disk, not the program (it is part of
``update_s`` on the other two workloads, through ``publish_patch``).
"""

from __future__ import annotations

import ctypes
import gc
import os
import shutil
import statistics
from time import perf_counter

import numpy as np

from common import (
    BUILD_SEED,
    MB,
    Outcome,
    PatchStats,
    build_layer_metrics,
    check,
    cpu_plan,
    draw_delta,
    engine_metrics,
    hwm_mb,
    percentile_ms,
    pin_self,
    protocol_metrics,
    publish_update,
    reset_hwm,
    rss_mb,
    run_setups,
    grouped_rate,
)

K = 2
FULL = {"n": 6000, "batch": 16_384}
TINY = {"n": 400, "batch": 2048}
#: Distinct pre-generated batches, routed round robin.
POOL = 16
#: Batches per throughput sample (~0.8 s each); ``pairs_per_s`` is the
#: median over the samples of a run.
RATE_GROUP = 64
#: Pointer swaps timed for ``update_s`` (alternating v0 <-> v1).
SWAPS = 24
#: Sources whose rows of the first batch are checked against exact distances.
STRETCH_SOURCES = 64


def run(*, seed, seconds, tracer, tiny, corrupt) -> Outcome:
    """Run the workload; see the module docstring."""
    from repro.graphs import generators as gen
    from repro.sim.engine.batch import BatchRouter
    from repro.store import RouteService

    size = TINY if tiny else FULL
    pin_self(cpu_plan()[0])
    pid = os.getpid()
    traced = tracer.enabled
    rng = np.random.default_rng([seed, 1])

    def make_graph():
        n = size["n"]
        return gen.gnp(n, 8.0 / n, rng=BUILD_SEED,
                       weights=(1, 8)).largest_component()

    def first_answer(scheme):
        with tracer.span("service.open"):
            svc = RouteService(scheme.store.pointer_path(scheme.lineage),
                               kernel="native")
        with tracer.span("service.route"):
            result = svc.route(np.array([[0, scheme.graph.n - 1]]))
        check(bool(result.delivered.all()), "set-up probe pair undelivered")
        return svc

    setups = run_setups(make_graph, K, "route-bulk", tracer,
                        first_answer, lambda svc: None)
    scheme, svc = setups.served, setups.handle
    store_dir = scheme.store.root
    try:
        n = scheme.graph.n
        pool = [rng.integers(0, n, size=(size["batch"], 2)) for _ in range(POOL)]
        probe = np.array([[0, n - 1]])
        # -- swaps between two stored versions, right after set-up ---------
        # (before the timed window, while the containers are young enough
        # that the page cache has not started writing them back)
        setup_layers = build_layer_metrics(tracer, scheme) if traced else {}
        stats = PatchStats()
        v0 = scheme
        v1 = publish_update(v0, draw_delta(v0.graph, rng), tracer, stats,
                            max_versions=None)
        v0.store.set_current(v0.lineage, v0.key)
        svc.reload()
        check(svc.version == 0, "service did not return to version 0")
        update, opens, firsts, swap_rss = [], [], [], []
        for s in range(SWAPS):
            target = v1 if s % 2 == 0 else v0
            v0.store.set_current(v0.lineage, target.key)
            before = rss_mb(pid)
            t1 = perf_counter()
            with tracer.span("service.open"):
                svc.reload()
            t2 = perf_counter()
            with tracer.span("service.route"):
                result = svc.route(probe)
            t3 = perf_counter()
            check(svc.version == target.version and bool(result.delivered.all()),
                  f"swap {s}: answered by version {svc.version}, "
                  f"expected {target.version}")
            update.append(t3 - t1)
            opens.append(t2 - t1)
            firsts.append(t3 - t2)
            swap_rss.append(rss_mb(pid) - before)
        check(svc.version == 0, "swaps must end on version 0")
        v1.store.path_for(v1.key).unlink()  # before its pages are written back
        del v1, target  # the timed window holds only the served version
        # Set-up's garbage and the heap malloc kept after freeing it stay
        # out of the window's peak: without this, 2 of 10 runs peaked at
        # 640-745 MB instead of ~550 MB, depending on when a collection ran.
        gc.collect()
        ctypes.CDLL(None).malloc_trim(0)
        reset_hwm(pid)

        # -- timed window: closed loop, one thread -----------------------
        latency, late, ends = [], [], []
        kept = []
        pairs = {True: 0, False: 0}
        busy = {True: 0.0, False: 0.0}
        slice_s = seconds / 10
        start = prev = perf_counter()
        deadline = start + seconds
        i = 0
        while prev < deadline:
            if traced:  # alternate traced and untraced slices
                tracer.enabled = int((prev - start) / slice_s) % 2 == 0
            batch = pool[i % POOL]
            t0 = perf_counter()
            with tracer.span("service.route"):
                result = svc.route(batch)
            t1 = perf_counter()
            if corrupt and i == 0:
                result.delivered[0] = False
            check(bool(result.delivered.all()),
                  f"batch {i}: {int((~result.delivered).sum())} pairs undelivered")
            late.append(t0 - prev)
            latency.append(t1 - t0)
            ends.append(t1)
            pairs[tracer.enabled] += batch.shape[0]
            busy[tracer.enabled] += t1 - prev
            if i < 2:
                kept.append(result)
            prev = t1
            i += 1
        tracer.enabled = traced
        peak = hwm_mb(pid)

        # -- stretch <= 4k-5 against exact distances (after the clock) ---
        first = kept[0]
        sources = rng.choice(np.unique(first.source), size=min(
            STRETCH_SOURCES, np.unique(first.source).shape[0]), replace=False)
        sources.sort()
        rows = np.flatnonzero(np.isin(first.source, sources))
        dist, _ = scheme.graph.csr().sssp_batch(sources)
        exact = dist[np.searchsorted(sources, first.source[rows]), first.dest[rows]]
        check(bool(np.all(first.weight[rows] <= (4 * K - 5) * exact)),
              "a routed path exceeds stretch 4k-5")

        metrics = {
            "setup_s": statistics.median(setups.seconds),
            "pairs_per_s": grouped_rate(ends, size["batch"], start, RATE_GROUP),
            "latency_p50_ms": percentile_ms(latency, 50),
            "latency_p99_ms": percentile_ms(latency, 99),
            "served_frac": 1.0,  # every batch was delivered in full
            "update_s": statistics.median(update),
            "container_mb": scheme.container_bytes / MB,
            "peak_rss_mb": peak,
        }
        if traced:
            router = BatchRouter.from_compiled(scheme.compiled, kernel="native")
            route_only = []
            for batch in pool[:4]:
                t0 = perf_counter()
                router.route_pairs(batch)
                route_only.append(perf_counter() - t0)
            metrics.update(setup_layers)
            metrics.update(stats.metrics())
            metrics.update(engine_metrics(scheme.compiled, pool[0]))
            metrics.update(protocol_metrics(kept))
            metrics.update({
                "store.setup_peak_rss_mb": setups.peak_rss_mb,
                "service.open_ms": statistics.median(opens) * 1e3,
                "service.first_route_ms": statistics.median(firsts) * 1e3,
                "service.swap_rss_mb": statistics.median(swap_rss),
                "serve.route_share": statistics.median(route_only)
                / statistics.median(latency),
                "serve.shed": 0.0,  # in process: no queue to shed from
                "serve.timeouts": 0.0,
                "gen.late_p99_ms": percentile_ms(late, 99),
                "trace.overhead_frac": 1.0 - (pairs[True] / busy[True])
                / (pairs[False] / busy[False]),
            })
        return Outcome(
            metrics=metrics,
            attempted=i + SWAPS,
            failed=0,
            samples={"batches": i, "latency": len(latency), "swaps": SWAPS,
                     "setups": len(setups.seconds), "stretch_rows": int(rows.size)},
            setup_seconds=setups.seconds,
        )
    finally:
        del svc
        shutil.rmtree(store_dir, ignore_errors=True)
