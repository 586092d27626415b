"""churn-update: sequential update epochs with reads beside them, in process.

Every epoch takes a seeded delta (3 weight updates, 1 edge insertion)
through ``patch_arrays`` -> ``compile_from_arrays`` ->
``publish_patch(max_versions=2)`` -> ``RouteService`` swap, then routes a
fixed read batch.  Writes and reads meet in the store and service layers:
each epoch pays a container save and a native-view repack.
"""

from __future__ import annotations

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
    same_result,
)

K = 2
FULL = {"n": 5000, "read_batch": 4096}
TINY = {"n": 400, "read_batch": 512}
#: Read batches routed after every swap (the fixed read batch).
READS = 16


def run(*, seed, seconds, tracer, tiny, corrupt) -> Outcome:
    """Run the workload; see the module docstring."""
    from repro.graphs import generators as gen
    from repro.sim.engine.batch import BatchRouter
    from repro.store import RouteService

    size = TINY if tiny else FULL
    pin_self(cpu_plan()[0])
    pid = os.getpid()
    traced = tracer.enabled
    rng = np.random.default_rng([seed, 3])

    def make_graph():
        return gen.internet_as_like(size["n"], rng=BUILD_SEED)

    def first_answer(scheme):
        with tracer.span("service.open"):
            svc = RouteService(scheme.store.pointer_path(scheme.lineage),
                               kernel="native")
        with tracer.span("service.route"):
            result = svc.route(np.array([[0, scheme.graph.n - 1]]))
        check(bool(result.delivered.all()), "set-up probe pair undelivered")
        return svc

    setups = run_setups(make_graph, K, "churn-update", tracer,
                        first_answer, lambda svc: None)
    scheme, svc = setups.served, setups.handle
    store_dir = scheme.store.root
    try:
        n = scheme.graph.n  # deltas add edges only, so n stays fixed
        container_bytes = scheme.container_bytes
        setup_layers = build_layer_metrics(tracer, scheme) if traced else {}
        reads = [rng.integers(0, n, size=(size["read_batch"], 2))
                 for _ in range(READS)]
        probe = np.array([[0, n - 1]])

        pstats = PatchStats()
        update, opens, firsts, swap_rss = [], [], [], []
        latency, late, route_share = [], [], []
        read_pairs = {True: 0, False: 0}
        read_busy = {True: 0.0, False: 0.0}
        kept, epoch_peaks, read_rates = [], [], []
        measured = 0.0
        epoch = 0
        while measured < seconds:
            delta = draw_delta(scheme.graph, rng)
            reset_hwm(pid)
            if traced:  # alternate traced and untraced epochs
                tracer.enabled = epoch % 2 == 0
            t0 = perf_counter()
            scheme = publish_update(scheme, delta, tracer, pstats)
            t1 = perf_counter()
            before = rss_mb(pid)
            with tracer.span("service.open"):
                svc.reload()
            t2 = perf_counter()
            with tracer.span("service.route"):
                result = svc.route(probe)
            t3 = perf_counter()
            epoch += 1
            check(svc.version == epoch == scheme.version,
                  f"epoch {epoch}: service answers version {svc.version}, "
                  f"published {scheme.version}")
            update.append(t3 - t0)
            opens.append(t2 - t1)
            firsts.append(t3 - t2)
            swap_rss.append(rss_mb(pid) - before)
            prev = t3
            results = []
            for batch in reads:
                r0 = perf_counter()
                with tracer.span("service.route"):
                    result = svc.route(batch)
                r1 = perf_counter()
                late.append(r0 - prev)
                latency.append(r1 - r0)
                prev = r1
                results.append(result)
                check(svc.version == epoch, f"epoch {epoch}: a read was answered "
                      f"by version {svc.version}")
            read_rates.append(READS * size["read_batch"] / (prev - t1))
            read_pairs[tracer.enabled] += READS * size["read_batch"]
            read_busy[tracer.enabled] += prev - t1
            measured += prev - t0
            epoch_peaks.append(hwm_mb(pid))
            # -- answer checks, off the clock ------------------------------
            tracer.enabled = False
            if corrupt and epoch == 1:
                results[0].weight[0] += 1.0
            expected = BatchRouter.from_compiled(scheme.compiled, kernel="native")
            check(same_result(results[0], expected.route_pairs(reads[0])),
                  f"epoch {epoch}: a read differs from in-process routing "
                  f"on the published version")
            check(all(bool(r.delivered.all()) for r in results),
                  f"epoch {epoch}: a read pair was undelivered")
            if traced and epoch <= 2:
                t = perf_counter()
                expected.route_pairs(reads[1])
                route_share.append((perf_counter() - t) / latency[-READS + 1])
                kept.extend(results[:2])
        tracer.enabled = traced

        metrics = {
            "setup_s": statistics.median(setups.seconds),
            "pairs_per_s": statistics.median(read_rates),
            "latency_p50_ms": percentile_ms(latency, 50),
            "latency_p99_ms": percentile_ms(latency, 99),
            "served_frac": 1.0,  # every read checked: right version, delivered
            "update_s": statistics.median(update),
            "container_mb": container_bytes / MB,
            "peak_rss_mb": statistics.median(epoch_peaks),
        }
        if traced:
            metrics.update(setup_layers)
            metrics.update(pstats.metrics())
            metrics.update(engine_metrics(scheme.compiled, np.concatenate(reads)))
            metrics.update(protocol_metrics(kept))
            metrics.update({
                "store.setup_peak_rss_mb": setups.peak_rss_mb,
                "service.open_ms": statistics.median(opens) * 1e3,
                "service.first_route_ms": statistics.median(firsts) * 1e3,
                "service.swap_rss_mb": statistics.median(swap_rss),
                "serve.route_share": statistics.median(route_share),
                "serve.shed": 0.0,  # in process: no queue to shed from
                "serve.timeouts": 0.0,
                "gen.late_p99_ms": percentile_ms(late, 99),
                "trace.overhead_frac": 1.0 - (read_pairs[True] / read_busy[True])
                / (read_pairs[False] / read_busy[False]),
            })
        return Outcome(
            metrics=metrics,
            attempted=epoch * (READS + 1),
            failed=0,
            samples={"epochs": epoch, "latency": len(latency),
                     "setups": len(setups.seconds)},
            setup_seconds=setups.seconds,
        )
    finally:
        del svc
        shutil.rmtree(store_dir, ignore_errors=True)
