"""Shared machinery of the benchmark: spans, memory probes, set-up, checks.

Everything here is imported by the three workload modules after
:func:`run.bootstrap` has put the repository's ``src/`` on ``sys.path``
and pointed the kernel cache into the checkout.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Everything the benchmark writes lives under this checkout-relative dir.
WORK_DIR = Path(".bench_build") / "tzbench"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Seed of each workload's graph and of the scheme's own landmark
#: sampling.  Both are fixed, so that entry count, container size and
#: build cost are the same on every run; ``--seed`` draws everything that
#: flows through the built scheme (pairs, Zipf users, deltas).
BUILD_SEED = 2026

#: Unit of every metric the benchmark can print (checked against
#: ``BENCHMARK.json`` by ``test_tzbench.py``).
UNITS = {
    # end to end
    "setup_s": "s",
    "pairs_per_s": "pairs/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "served_frac": "ratio",
    "update_s": "s",
    "container_mb": "MB",
    "peak_rss_mb": "MB",
    # per layer
    "build.arrays_s": "s",
    "build.entries": "count",
    "build.table_bits_per_entry": "bits",
    "patch.s": "s",
    "patch.reuse_frac": "ratio",
    "patch.dirty_clusters": "count",
    "engine.compile_s": "s",
    "engine.commit_ns_per_pair": "ns",
    "engine.hop_ns_per_pair": "ns",
    "engine.mean_hops": "count",
    "store.save_s": "s",
    "store.bytes_per_entry": "B",
    "store.setup_peak_rss_mb": "MB",
    "service.open_ms": "ms",
    "service.first_route_ms": "ms",
    "service.swap_rss_mb": "MB",
    "protocol.request_bytes_per_pair": "B",
    "protocol.response_bytes_per_pair": "B",
    "protocol.encode_us_per_pair": "us",
    "protocol.decode_us_per_pair": "us",
    "serve.route_share": "ratio",
    "serve.shed": "count",
    "serve.timeouts": "count",
    "gen.late_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
}

END_TO_END = (
    "setup_s",
    "pairs_per_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "served_frac",
    "update_s",
    "container_mb",
    "peak_rss_mb",
)
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)

MB = 1e6


@dataclass
class Outcome:
    """What a workload measured: metrics by name plus request counts."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    samples: Dict[str, float]
    setup_seconds: List[float]


class BenchFailure(RuntimeError):
    """A wrong answer or a broken precondition: the run prints no metrics."""


def check(condition: bool, message: str) -> None:
    """Fail the run with ``message`` unless ``condition`` holds."""
    if not condition:
        raise BenchFailure(message)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class _Span:
    __slots__ = ("tracer", "name", "index", "t0")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        parent = stack[-1] if stack else -1
        with self.tracer._lock:
            self.index = len(self.tracer.spans)
            self.tracer.spans.append([self.name, 0.0, 0.0, parent,
                                      threading.get_ident()])
        stack.append(self.index)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = perf_counter()
        record = self.tracer.spans[self.index]
        record[1] = self.t0
        record[2] = t1
        self.tracer._stack().pop()


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NO_SPAN = _NoSpan()


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span is ``[name, start, end, parent_index, thread]``; parents are
    tracked per thread, so client threads nest their own spans.  When
    ``enabled`` is false :meth:`span` returns a shared no-op context, so
    the untraced run pays one attribute test per call.
    """

    def __init__(self, enabled: bool) -> None:
        """Start with no spans; record only while ``enabled``."""
        self.enabled = bool(enabled)
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager timing one call into a layer."""
        return _Span(self, name) if self.enabled else _NO_SPAN

    def durations(self, name: str) -> List[float]:
        """Seconds of every closed span called ``name``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2]]

    def median(self, name: str) -> float:
        """Median seconds of the spans called ``name`` (fails if none)."""
        values = self.durations(name)
        check(bool(values), f"trace holds no {name!r} span")
        return statistics.median(values)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (times relative to the first)."""
        base = min((s[1] for s in self.spans if s[1]), default=0.0)
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, thread) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "thread": thread,
                    "start_s": t0 - base, "end_s": t1 - base,
                }) + "\n")


# ----------------------------------------------------------------------
# process memory (Linux /proc of this process or of a child we started)
# ----------------------------------------------------------------------
def _status_kb(pid: int, field_name: str) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field_name + ":"):
                return float(line.split()[1])
    raise BenchFailure(f"/proc/{pid}/status has no {field_name}")


def hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MB."""
    return _status_kb(pid, "VmHWM") * 1024 / MB


def rss_mb(pid: int) -> float:
    """Current resident set (VmRSS) of ``pid`` in MB."""
    return _status_kb(pid, "VmRSS") * 1024 / MB


def reset_hwm(pid: int) -> None:
    """Reset ``pid``'s VmHWM to its current RSS (fails if refused)."""
    with open(f"/proc/{pid}/clear_refs", "w") as fh:
        fh.write("5")
    check(hwm_mb(pid) <= rss_mb(pid) * 1.05 + 1,
          "writing /proc/<pid>/clear_refs did not reset VmHWM")


# ----------------------------------------------------------------------
# machine fingerprint and placement
# ----------------------------------------------------------------------
def fingerprint() -> dict:
    """Facts that decide whether two records are comparable."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cc = subprocess.run(
            [os.environ.get("CC", "cc"), "--version"],
            capture_output=True, text=True, timeout=30,
        ).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        cc = "unavailable"
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cc": cc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": platform.release(),
    }


def cpu_plan() -> Tuple[int, int]:
    """(generator CPU, daemon CPU): the first and last CPU we may use."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


def pin_self(cpu: int) -> None:
    """Pin this process (and threads it starts later) to ``cpu``."""
    os.sched_setaffinity(0, {cpu})


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile_ms(seconds: List[float], q: float) -> float:
    """``q``-th percentile of a latency sample, in ms."""
    check(len(seconds) > 0, "no latency samples")
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def group_rates(ends, unit: int, start: float, group: int) -> np.ndarray:
    """Units per second of each group of ``group`` consecutive completions.

    ``ends`` are completion times, each completion carrying ``unit`` units
    of work; the first group is timed from ``start``.
    """
    ends = np.sort(np.asarray(ends))
    marks = np.concatenate([[start], ends[group - 1::group]])
    return group * unit / np.diff(marks)


def grouped_rate(ends, unit: int, start: float, group: int) -> float:
    """Median over groups of ``group`` consecutive completions of units per second.

    The median keeps a transient stall of the machine from deciding a
    whole run.
    """
    rates = group_rates(ends, unit, start, group)
    check(rates.shape[0] >= 3, f"timed window holds under 3 groups of {group}")
    return float(np.median(rates))


def same_result(a, b) -> bool:
    """Bit-identity of two ``BatchResult`` objects, column by column."""
    for name in ("source", "dest", "delivered", "weight", "hops", "tree",
                 "max_header_bits", "failure_code"):
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or x.shape != y.shape:
            return False
        if x.dtype == np.float64:
            x, y = x.view(np.int64), y.view(np.int64)
        if not np.array_equal(x, y):
            return False
    return True


# ----------------------------------------------------------------------
# set-up: generate -> ports -> build -> compile -> publish -> first answer
# ----------------------------------------------------------------------
@dataclass
class Scheme:
    """One published scheme version and the objects it came from."""

    graph: object
    ported: object
    arrays: object
    compiled: object
    store: object
    lineage: str
    key: str
    version: int = 0

    @property
    def container_bytes(self) -> int:
        """Size of this version's ``.tzs`` file."""
        return int(self.store.path_for(self.key).stat().st_size)


@dataclass
class SetupReport:
    """Every set-up of one run; the last one is the one that is served."""

    seconds: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    served: Optional[Scheme] = None
    handle: object = None


def publish_scheme(make_graph: Callable, k: int, store_dir: Path,
                   tracer: Tracer) -> Scheme:
    """Build a scheme from scratch and publish it as a lineage root."""
    from repro.core.build import build_arrays
    from repro.graphs.ports import assign_ports
    from repro.sim.engine.compile import compile_from_arrays
    from repro.store import SchemeStore

    with tracer.span("graphs.generate"):
        graph = make_graph()
    with tracer.span("graphs.assign_ports"):
        ported = assign_ports(graph, "sorted")
    with tracer.span("build.arrays"):
        arrays = build_arrays(graph, k, ported=ported, rng=BUILD_SEED,
                              kernel="native")
    with tracer.span("engine.compile"):
        compiled = compile_from_arrays(arrays, ported)
    store = SchemeStore(store_dir)
    with tracer.span("store.publish"):
        key = store.publish(graph, ported, arrays, seed=BUILD_SEED,
                            compiled=compiled)
    return Scheme(graph, ported, arrays, compiled, store, key, key)


def run_setups(make_graph: Callable, k: int, name: str,
               tracer: Tracer, first_answer: Callable, release: Callable
               ) -> SetupReport:
    """Set up :data:`SETUP_REPEATS` times; keep the last one serving.

    ``first_answer(scheme)`` opens the serving side and answers one
    request (it returns a handle); ``release(handle)`` tears an earlier
    set-up down.  Earlier set-ups are deleted before their pages can be
    written back, so no set-up pays for its predecessor's disk traffic.
    """
    report = SetupReport()
    for rep in range(SETUP_REPEATS):
        store_dir = fresh_dir(f"{name}-setup{rep}")
        t0 = perf_counter()
        with tracer.span("setup"):
            scheme = publish_scheme(make_graph, k, store_dir, tracer)
            handle = first_answer(scheme)
        report.seconds.append(perf_counter() - t0)
        if rep + 1 < SETUP_REPEATS:
            release(handle)
            del scheme, handle
            shutil.rmtree(store_dir)
    report.peak_rss_mb = hwm_mb(os.getpid())
    report.served = scheme
    report.handle = handle
    return report


def fresh_dir(name: str) -> Path:
    """An empty directory under :data:`WORK_DIR` (stale content removed)."""
    path = WORK_DIR / name
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def build_layer_metrics(tracer: Tracer, scheme: Scheme) -> Dict[str, float]:
    """``build.*``, ``engine.compile_s`` and ``store.*`` of the set-ups."""
    arrays = scheme.arrays
    degrees = scheme.graph.degrees()
    bits = float(arrays.table_bits(int(degrees.max())).sum())
    entries = arrays.entry_count
    return {
        "build.arrays_s": tracer.median("build.arrays"),
        "build.entries": float(entries),
        "build.table_bits_per_entry": bits / entries,
        "engine.compile_s": tracer.median("engine.compile"),
        "store.save_s": tracer.median("store.publish"),
        "store.bytes_per_entry": scheme.container_bytes / entries,
    }


# ----------------------------------------------------------------------
# updates: delta -> patch -> compile -> publish_patch
# ----------------------------------------------------------------------
def draw_delta(graph, rng: np.random.Generator):
    """A seeded churn delta: 3 weight updates and 1 edge insertion."""
    from repro.scenarios.churn import random_delta

    return random_delta(graph, rng, weight_updates=3, edge_adds=1,
                        edge_drops=0, max_weight=8)


@dataclass
class PatchStats:
    """Per-epoch facts of the patch layer."""

    seconds: List[float] = field(default_factory=list)
    reuse: List[float] = field(default_factory=list)
    dirty: List[int] = field(default_factory=list)

    def metrics(self) -> Dict[str, float]:
        """Median ``patch.*`` metrics over the recorded epochs."""
        check(bool(self.seconds), "no patch was applied")
        return {
            "patch.s": statistics.median(self.seconds),
            "patch.reuse_frac": statistics.median(self.reuse),
            "patch.dirty_clusters": float(statistics.median(self.dirty)),
        }


def publish_update(scheme: Scheme, delta, tracer: Tracer, stats: PatchStats,
                   *, max_versions: Optional[int] = 2) -> Scheme:
    """Patch ``scheme`` by ``delta`` and publish the next version."""
    from repro.core.build import patch_arrays
    from repro.sim.engine.compile import compile_from_arrays

    t0 = perf_counter()
    with tracer.span("build.patch"):
        patched = patch_arrays(scheme.arrays, scheme.graph, delta,
                               ported=scheme.ported, kernel="native")
    stats.seconds.append(perf_counter() - t0)
    reused = patched.stats["entries_reused"]
    total = reused + patched.stats["entries_rebuilt"]
    stats.reuse.append(reused / max(total, 1))
    stats.dirty.append(int(patched.stats["dirty_clusters"]))
    with tracer.span("engine.compile"):
        compiled = compile_from_arrays(patched.arrays, patched.ported)
    with tracer.span("store.publish_patch"):
        key = scheme.store.publish_patch(
            scheme.key, patched.graph, patched.ported, patched.arrays,
            delta=delta, compiled=compiled, max_versions=max_versions,
        )
    return Scheme(patched.graph, patched.ported, patched.arrays, compiled,
                  scheme.store, scheme.lineage, key, scheme.version + 1)


# ----------------------------------------------------------------------
# engine and protocol probes (traced run only)
# ----------------------------------------------------------------------
def engine_metrics(compiled, pairs: np.ndarray, repeats: int = 5
                   ) -> Dict[str, float]:
    """Commit and hop-loop cost per pair on ``pairs`` (medians).

    The commit is timed as ``CompiledScheme.select_trees`` on the
    non-trivial rows, the way ``BatchRouter`` calls it; the hop loop is
    ``BatchRouter.route_pairs`` minus that commit.
    """
    from repro.sim.engine.batch import BatchRouter

    router = BatchRouter.from_compiled(compiled, kernel="native")
    src = np.ascontiguousarray(pairs[:, 0])
    dst = np.ascontiguousarray(pairs[:, 1])
    keep = src != dst
    select = (compiled.select_trees_handshake if compiled.handshake
              else compiled.select_trees)
    commit, route = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        select(src[keep], dst[keep])
        t1 = perf_counter()
        result = router.route_pairs(pairs)
        t2 = perf_counter()
        commit.append(t1 - t0)
        route.append(t2 - t1)
    count = pairs.shape[0]
    c, r = statistics.median(commit), statistics.median(route)
    return {
        "engine.commit_ns_per_pair": c / count * 1e9,
        "engine.hop_ns_per_pair": (r - c) / count * 1e9,
        "engine.mean_hops": float(result.hops.mean()),
    }


def protocol_metrics(results: list) -> Dict[str, float]:
    """Wire size and codec cost per pair of ``results``, framed as the daemon would.

    Encode times ``result_to_wire`` + ``encode_frame`` of each response;
    decode times ``decode_payload`` + ``result_from_wire`` of the same
    payloads.
    """
    from repro.serve.protocol import (
        decode_payload,
        encode_frame,
        result_from_wire,
        result_to_wire,
    )

    pairs = sum(r.attempted for r in results)
    requests = [
        encode_frame({"op": "route", "pairs": np.stack(
            [r.source, r.dest], axis=1).tolist()})
        for r in results
    ]
    t0 = perf_counter()
    responses = [
        encode_frame({"ok": True, "op": "route", "version": 0,
                      "result": result_to_wire(r)})
        for r in results
    ]
    t1 = perf_counter()
    for frame in responses:
        result_from_wire(decode_payload(frame[4:])["result"])
    t2 = perf_counter()
    header = 4 * len(results)  # length prefixes
    return {
        "protocol.request_bytes_per_pair": (sum(map(len, requests)) - header) / pairs,
        "protocol.response_bytes_per_pair": (sum(map(len, responses)) - header) / pairs,
        "protocol.encode_us_per_pair": (t1 - t0) / pairs * 1e6,
        "protocol.decode_us_per_pair": (t2 - t1) / pairs * 1e6,
    }


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, float]) -> None:
    """Print the result line: the last line of standard output."""
    out = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
