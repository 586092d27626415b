"""serve-zipf: a ``repro serve --daemon`` subprocess under Zipf traffic.

The daemon serves one lineage over loopback TCP with ``tz-serve/v1``
JSON frames; the benchmark process is the client, pinned to another CPU.
Three phases share the timed window:

* open loop, 1 connection, 64-pair frames, Poisson arrivals at the fixed
  rate :data:`OPEN_RATE`: sets ``served_frac`` at a fixed offered load
  (a closed loop slows down instead of shedding).  Its latencies, timed
  from each request's due time, go to the run record only: on a 2-vCPU
  VM their run-to-run spread (IQR/median 0.24-0.30 for p99 over 10
  seeds) exceeded every bound the benchmark may set;
* closed loop, 2 connections, 512-pair frames: sets ``pairs_per_s``;
* closed loop, 1 connection, 512-pair frames, the client polling for
  each answer: sets the request latencies.  With one request in flight
  the daemon never holds a second one, so p99 is the tail of serving one
  request, not of how two requests happened to overlap; with 2
  connections p99 swung between 2.3 and 3.4 ms from run to run while
  p50 moved by 8%.

The open loop runs first; the two closed loops then take turns in
:data:`SLICES` slices each.

Responses are kept as raw bytes and decoded after the clock stops; each
must be bit-identical to an in-process ``BatchRouter`` on the same
version.  ``update_s`` is delta in hand to the daemon's first answer
stamped with the new version.
"""

from __future__ import annotations

import gc
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
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
    group_rates,
    hwm_mb,
    percentile_ms,
    pin_self,
    publish_update,
    reset_hwm,
    rss_mb,
    run_setups,
    same_result,
)

K = 2
#: Open-loop arrival rate in requests/s: about half of the ~1,900/s one
#: connection sustained closed-loop with 64-pair frames at n=2000 on a
#: 2-core AMD EPYC box.  Fixed, never derived from a measurement in the run.
OPEN_RATE = 1000.0
FULL = {"n": 2000, "users": 1000, "rate": OPEN_RATE}
TINY = {"n": 300, "users": 100, "rate": 200.0}
#: Shares of the timed window given to the open-loop phase and to the
#: 2-connection closed loop; the 1-connection closed loop gets the rest.
OPEN_SHARE = 0.2
BULK_SHARE = 0.3
#: The two closed loops take turns in this many slices each, so that both
#: sample the whole rest of the window: the host slows this VM in
#: episodes of a few seconds, and p99 follows their share of the time it
#: covers.
SLICES = 5
#: 2-connection answers per throughput sample (~0.2 s each); ``pairs_per_s``
#: is the median over the samples of a run.
RATE_GROUP = 256
#: Consecutive 1-connection requests per p99 sample (10 beyond each p99);
#: ``latency_p99_ms`` is the median over the samples of a run.
P99_GROUP = 1000
CLOSED_BATCH = 512
OPEN_BATCH = 64
CONNECTIONS = 2
CLOSED_FRAMES = 256
OPEN_FRAMES = 512
ZIPF_S = 1.2
UPDATES = 30
QUEUE_LIMIT = 128
TIMEOUT_S = 5.0
_LEN = struct.Struct(">I")


def _die_with_parent() -> None:
    """In the daemon child: get SIGTERM when the benchmark process dies."""
    import ctypes

    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGTERM)


class Daemon:
    """One daemon subprocess plus a blocking client connection to it."""

    def __init__(self, store_dir: Path, lineage: str, cpu: int) -> None:
        """Start a daemon serving ``lineage`` on ``cpu`` and connect to it."""
        from repro.serve import DaemonClient

        port_file = store_dir / "port"
        port_file.unlink(missing_ok=True)
        self.log = open(store_dir / "daemon.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--daemon",
             "--store", str(store_dir), "--scheme", lineage,
             "--port", "0", "--port-file", str(port_file),
             "--kernel", "native", "--workers", "1",
             "--queue-limit", str(QUEUE_LIMIT), "--timeout", str(TIMEOUT_S)],
            stdout=self.log, stderr=subprocess.STDOUT,
            preexec_fn=_die_with_parent,
        )
        try:
            os.sched_setaffinity(self.proc.pid, {cpu})
            deadline = time.monotonic() + 120
            while not port_file.exists() or not port_file.read_text().strip():
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("daemon did not start; see daemon.log")
                time.sleep(0.005)
            self.port = int(port_file.read_text())
            self.client = DaemonClient("127.0.0.1", self.port)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Ask the daemon to drain, then make sure it has exited."""
        if getattr(self, "client", None) is not None:
            self.client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _read_raw(fh) -> bytes:
    """One frame payload off a buffered socket file, undecoded."""
    header = fh.read(_LEN.size)
    if len(header) < _LEN.size:
        raise ConnectionError("daemon closed the connection")
    (length,) = _LEN.unpack(header)
    payload = fh.read(length)
    if len(payload) < length:
        raise ConnectionError("daemon closed the connection mid-frame")
    return payload


def _connect(port: int):
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, sock.makefile("rb", buffering=1 << 16)


def _closed_loop(port, frames, seconds, tracer, traced):
    """2 connections, one outstanding request each, until the deadline.

    Returns per-request ``(frame, t0, t1, payload, traced)`` and the
    start time.
    """
    out = [[] for _ in range(CONNECTIONS)]
    slice_s = seconds / 10
    start = perf_counter()
    deadline = start + seconds

    def client(c):
        sock, fh = _connect(port)
        try:
            j = c
            while True:
                t0 = perf_counter()
                if t0 >= deadline:
                    break
                mode = traced and int((t0 - start) / slice_s) % 2 == 0
                frame = j % len(frames)
                with tracer.span("client.request") if mode else nullcontext():
                    sock.sendall(frames[frame])
                    payload = _read_raw(fh)
                out[c].append((frame, t0, perf_counter(), payload, mode))
                j += CONNECTIONS
        finally:
            fh.close()
            sock.close()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [r for per in out for r in per], start


def _spin_recv(sock, view) -> None:
    """Fill ``view`` from a non-blocking socket, polling instead of sleeping."""
    got = 0
    give_up = perf_counter() + TIMEOUT_S + 5
    while got < len(view):
        try:
            n = sock.recv_into(view[got:])
        except BlockingIOError:
            if perf_counter() > give_up:
                raise ConnectionError("daemon stopped answering") from None
            continue
        if n == 0:
            raise ConnectionError("daemon closed the connection")
        got += n


def _latency_loop(port, frames, seconds):
    """1 connection, one outstanding request, until the deadline.

    The client polls the socket for each answer instead of sleeping in
    ``recv``, so the time its idle CPU takes to wake up is not part of
    the latency.  Returns per-request ``(frame, t0, t1, payload, False)``.
    """
    sock, fh = _connect(port)
    fh.close()
    sock.setblocking(False)
    header = bytearray(_LEN.size)
    out = []
    try:
        deadline = perf_counter() + seconds
        j = 0
        while True:
            t0 = perf_counter()
            if t0 >= deadline:
                break
            frame = j % len(frames)
            sock.sendall(frames[frame])
            _spin_recv(sock, memoryview(header))
            payload = bytearray(_LEN.unpack(header)[0])
            _spin_recv(sock, memoryview(payload))
            out.append((frame, t0, perf_counter(), bytes(payload), False))
            j += 1
    finally:
        sock.close()
    return out


def _open_loop(port, frames, dues):
    """Send ``frames[i]`` at ``dues[i]`` seconds after start; read answers.

    Returns the start time, per-request send lateness, and the raw
    ``(arrival, payload)`` answers (matched to requests by id later).
    """
    sock, fh = _connect(port)
    late = np.zeros(len(frames))
    answers = []
    start = perf_counter() + 0.01

    def receive():
        try:
            for _ in range(len(frames)):
                payload = _read_raw(fh)
                answers.append((perf_counter(), payload))
        except (OSError, ConnectionError):
            pass  # missing answers count as failed requests

    receiver = threading.Thread(target=receive)
    receiver.start()
    try:
        for i, frame in enumerate(frames):
            due = start + dues[i]
            wait = due - perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = perf_counter()
            sock.sendall(frame)
            late[i] = sent - due
        receiver.join(timeout=TIMEOUT_S + 5)
    finally:
        sock.shutdown(socket.SHUT_RDWR)  # wakes a receiver still waiting
        receiver.join()
        fh.close()
        sock.close()
    return start, late, answers


def run(*, seed, seconds, tracer, tiny, corrupt) -> Outcome:
    """Run the workload; see the module docstring."""
    from repro.graphs import generators as gen
    from repro.serve import zipf_traffic
    from repro.serve.protocol import (
        decode_payload,
        encode_frame,
        result_from_wire,
        result_to_wire,
    )
    from repro.sim.engine.batch import BatchRouter
    from repro.store import RouteService

    size = TINY if tiny else FULL
    gen_cpu, daemon_cpu = cpu_plan()
    pin_self(gen_cpu)
    traced = tracer.enabled
    rng = np.random.default_rng([seed, 2])

    def make_graph():
        n = size["n"]
        return gen.gnp(n, 8.0 / n, rng=BUILD_SEED,
                       weights=(1, 8)).largest_component()

    def first_answer(scheme):
        with tracer.span("daemon.start"):
            daemon = Daemon(scheme.store.root, scheme.lineage, daemon_cpu)
        try:
            with tracer.span("client.request"):
                reply = daemon.client.request(
                    {"op": "route", "pairs": [[0, scheme.graph.n - 1]]})
            check(reply.get("ok") is True, f"set-up request failed: {reply}")
        except BaseException:
            daemon.stop()
            raise
        return daemon

    setups = run_setups(make_graph, K, "serve-zipf", tracer,
                        first_answer, Daemon.stop)
    scheme, daemon = setups.served, setups.handle
    store_dir = scheme.store.root
    try:
        n, lineage = scheme.graph.n, scheme.lineage
        container_bytes = scheme.container_bytes
        setup_layers = build_layer_metrics(tracer, scheme) if traced else {}
        closed_pairs = zipf_traffic(n, users=size["users"], requests=CLOSED_FRAMES,
                                    batch=CLOSED_BATCH, s=ZIPF_S, rng=rng)
        open_pairs = zipf_traffic(n, users=size["users"], requests=OPEN_FRAMES,
                                  batch=OPEN_BATCH, s=ZIPF_S, rng=rng)
        closed_frames = [
            encode_frame({"op": "route", "scheme": lineage, "id": j,
                          "pairs": p.tolist()})
            for j, p in enumerate(closed_pairs)
        ]
        open_s, bulk_s = OPEN_SHARE * seconds, BULK_SHARE * seconds
        single_s = seconds - open_s - bulk_s
        count = max(1, int(size["rate"] * open_s))
        dues = np.cumsum(rng.exponential(1.0 / size["rate"], size=count))
        dues -= dues[0]
        open_frames = [
            encode_frame({"op": "route", "scheme": lineage, "id": i,
                          "pairs": open_pairs[i % OPEN_FRAMES].tolist()})
            for i in range(count)
        ]
        # Warm-up, untimed: every distinct frame once, so the daemon has
        # faulted in the scheme pages and built its native view.
        warm_sock, warm_fh = _connect(daemon.port)
        try:
            for frame in closed_frames + open_frames[:OPEN_FRAMES]:
                warm_sock.sendall(frame)
                _read_raw(warm_fh)
        finally:
            warm_fh.close()
            warm_sock.close()
        reset_hwm(daemon.proc.pid)

        # -- timed window --------------------------------------------------
        gc.disable()
        try:
            open_start, late, answers = _open_loop(daemon.port, open_frames, dues)
            bulk, bulk_starts, single = [], [], []
            for _ in range(SLICES):
                records, start = _closed_loop(daemon.port, closed_frames,
                                              bulk_s / SLICES, tracer, traced)
                bulk += records
                bulk_starts.append(start)
                single += _latency_loop(daemon.port, closed_frames,
                                        single_s / SLICES)
        finally:
            gc.enable()
        peak = hwm_mb(daemon.proc.pid)
        stats = daemon.client.request({"op": "stats"})["stats"]

        # -- answer checks, after the clock --------------------------------
        router = BatchRouter.from_compiled(scheme.compiled, kernel="native")
        expect_closed = [router.route_pairs(p) for p in closed_pairs]
        expect_open = [router.route_pairs(p) for p in open_pairs]
        closed = bulk + single
        if corrupt:
            frame, t0, t1, payload, mode = closed[0]
            closed[0] = (frame, t0, t1, payload.replace(b'"hops":[', b'"hops":[9', 1),
                         mode)
        decoded = []
        t_decode = perf_counter()
        for _, _, _, payload, _ in closed:
            reply = decode_payload(payload)
            decoded.append((reply, result_from_wire(reply["result"])
                            if reply.get("ok") else None))
        open_replies = []
        for _, payload in answers:
            reply = decode_payload(payload)
            open_replies.append((reply, result_from_wire(reply["result"])
                                 if reply.get("ok") else None))
        t_decode = perf_counter() - t_decode
        closed_ok = 0
        for (frame, *_), (reply, result) in zip(closed, decoded):
            if result is None:
                continue
            check(reply.get("id") == frame and reply.get("version") == 0,
                  f"closed-loop answer {reply.get('id')} names the wrong "
                  f"request or version")
            check(same_result(result, expect_closed[frame]),
                  f"closed-loop answer to frame {frame} differs from "
                  f"in-process routing")
            closed_ok += 1
        open_latency = np.full(count, TIMEOUT_S + 10.0)  # missing = over any limit
        open_ok = 0
        for (arrival, _), (reply, result) in zip(answers, open_replies):
            if result is None:
                continue
            i = reply.get("id")
            check(isinstance(i, int) and 0 <= i < count and reply.get("version") == 0,
                  f"open-loop answer names request {i!r}")
            check(same_result(result, expect_open[i % OPEN_FRAMES]),
                  f"open-loop answer to request {i} differs from in-process "
                  f"routing")
            open_latency[i] = arrival - (open_start + dues[i])
            open_ok += 1
        closed_n = len(closed)
        latency = [t1 - t0 for _, t0, t1, _, _ in single]
        check(len(latency) >= P99_GROUP,
              f"1-connection loop answered only {len(latency)} requests")
        ends = np.array([r[2] for r, (_, res) in zip(bulk, decoded)
                         if res is not None])
        in_slice = np.searchsorted(bulk_starts, ends) - 1
        rates = np.concatenate([
            group_rates(ends[in_slice == i], CLOSED_BATCH, start, RATE_GROUP)
            for i, start in enumerate(bulk_starts)])
        check(len(rates) >= 3, f"closed loop holds under 3 groups of {RATE_GROUP}")

        # -- updates: delta in hand -> daemon answers with the new version --
        pstats = PatchStats()
        update = []
        probe = {"op": "route", "scheme": lineage, "pairs": [[0, n - 1]]}
        for e in range(UPDATES):
            delta = draw_delta(scheme.graph, rng)
            t0 = perf_counter()
            scheme = publish_update(scheme, delta, tracer, pstats)
            with tracer.span("client.request"):
                reply = daemon.client.request(probe)
            update.append(perf_counter() - t0)
            check(reply.get("ok") is True and reply.get("version") == e + 1,
                  f"update {e + 1}: daemon answered version "
                  f"{reply.get('version')}")

        attempted = closed_n + count + UPDATES
        served = closed_ok + open_ok
        metrics = {
            "setup_s": statistics.median(setups.seconds),
            "pairs_per_s": float(np.median(rates)),
            "latency_p50_ms": percentile_ms(latency, 50),
            "latency_p99_ms": float(np.median([
                np.percentile(latency[g:g + P99_GROUP], 99)
                for g in range(0, len(latency) - P99_GROUP + 1, P99_GROUP)
            ])) * 1e3,
            "served_frac": served / (closed_n + count),
            "update_s": statistics.median(update),
            "container_mb": container_bytes / MB,
            "peak_rss_mb": peak,
        }
        if traced:
            busy = {True: 0.0, False: 0.0}
            pairs = {True: 0, False: 0}
            for _, t0, t1, _, mode in bulk:
                busy[mode] += t1 - t0
                pairs[mode] += CLOSED_BATCH
            opens, firsts, swap_rss, route_only = [], [], [], []
            pointer = scheme.store.pointer_path(lineage)
            for _ in range(10):
                before = rss_mb(os.getpid())
                t0 = perf_counter()
                with tracer.span("service.open"):
                    svc = RouteService(pointer, kernel="native")
                t1 = perf_counter()
                with tracer.span("service.route"):
                    svc.route(closed_pairs[0])
                opens.append(t1 - t0)
                firsts.append(perf_counter() - t1)
                swap_rss.append(rss_mb(os.getpid()) - before)
            for p in closed_pairs:
                t0 = perf_counter()
                svc.route(p)
                route_only.append(perf_counter() - t0)
            del svc
            results = [r for _, r in decoded if r is not None]
            t_encode = perf_counter()
            for r in results:
                encode_frame({"ok": True, "op": "route", "version": 0,
                              "result": result_to_wire(r)})
            t_encode = perf_counter() - t_encode
            decoded_pairs = CLOSED_BATCH * len(decoded) + OPEN_BATCH * len(answers)
            metrics.update(setup_layers)
            metrics.update(pstats.metrics())
            metrics.update(engine_metrics(setups.served.compiled,
                                          np.concatenate(closed_pairs[:64])))
            metrics.update({
                "store.setup_peak_rss_mb": setups.peak_rss_mb,
                "service.open_ms": statistics.median(opens) * 1e3,
                "service.first_route_ms": statistics.median(firsts) * 1e3,
                "service.swap_rss_mb": statistics.median(swap_rss),
                "protocol.request_bytes_per_pair":
                    (sum(map(len, closed_frames)) - 4 * len(closed_frames))
                    / (CLOSED_BATCH * len(closed_frames)),
                "protocol.response_bytes_per_pair":
                    sum(len(r[3]) for r in closed) / (CLOSED_BATCH * closed_n),
                "protocol.encode_us_per_pair":
                    t_encode / (CLOSED_BATCH * len(results)) * 1e6,
                "protocol.decode_us_per_pair": t_decode / decoded_pairs * 1e6,
                "serve.route_share": statistics.median(route_only)
                / statistics.median(latency),
                "serve.shed": float(stats["shed"]),
                "serve.timeouts": float(stats["timeouts"]),
                "gen.late_p99_ms": float(np.percentile(late, 99)) * 1e3,
                "trace.overhead_frac": 1.0 - (pairs[True] / busy[True])
                / (pairs[False] / busy[False]),
            })
        return Outcome(
            metrics=metrics,
            attempted=attempted,
            failed=attempted - served - UPDATES,
            samples={"closed_requests": closed_n, "open_requests": count,
                     "open_answered": open_ok, "latency": len(latency),
                     "open_p50_ms": float(np.percentile(open_latency, 50)) * 1e3,
                     "open_p99_ms": float(np.percentile(open_latency, 99)) * 1e3,
                     "updates": UPDATES, "setups": len(setups.seconds),
                     "shed": int(stats["shed"]), "timeouts": int(stats["timeouts"])},
            setup_seconds=setups.seconds,
        )
    finally:
        daemon.stop()
        shutil.rmtree(store_dir, ignore_errors=True)
