"""HTTP workloads: ``serve-warm`` (closed loop) and ``serve-mix`` (open loop).

The server runs in a child process started by ``perfbench/server.py``; the
benchmark drives it with ``repro.serve.ServiceClient``, one keep-alive
connection per sender thread, and submits ``map`` jobs with ``?wait=1``.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

from perfbench import instances
from perfbench.stats import percentile, tail_percentile
from perfbench.tracing import ROOT as ROOT_SPAN
from perfbench.tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent

#: A served request counts toward ``slo_ratio`` when done this soon after its
#: due time.
SLO_MS = 500.0
#: serve-mix offered load.  At 8 req/s the server (two GIL-bound threads
#: doing the warm path's re-expansion) sits at 70-85% utilisation on a
#: 2-core host; latency there is mostly queueing and its median swung from
#: 76 to 168 ms across five seeds.  At 4 req/s the same mix is measurable.
MIX_RATE = 4.0
#: Tail percentile each HTTP workload reports (10+ samples beyond it at the
#: run length ``BENCHMARK.json`` sets).
WARM_TAIL, MIX_TAIL = 99, 80
CONNECTIONS = 2
SETUP_REPEATS = 3
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
CLIENT_TIMEOUT = 60.0

#: Server children not yet reaped, for the run's emergency stop.
_LIVE: "weakref.WeakSet[ServerProcess]" = weakref.WeakSet()


def kill_servers() -> None:
    """Kill every server child still running (the run's deadline passed)."""
    for server in list(_LIVE):
        server.kill()


class ServerProcess:
    """One server child over ``cache_dir``; ``stop()`` returns its report."""

    def __init__(self, cache_dir: Path, trace: bool):
        self.cache_dir = Path(cache_dir)
        self.report_path = self.cache_dir.with_suffix(".report.json")
        env = dict(os.environ, REPRO_CACHE_DIR=str(self.cache_dir))
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "server.py"),
                "--cache-dir", str(self.cache_dir),
                "--report", str(self.report_path),
                "--trace", "1" if trace else "0",
            ],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        _LIVE.add(self)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("PORT "):
                raise RuntimeError(f"server child did not report a port (got {line!r})")
            self.port = int(line.split()[1])
        except BaseException:
            self.kill()
            raise

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        _LIVE.discard(self)

    def stop(self) -> dict:
        """SIGTERM (the server drains), wait, and read the child's report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server child exited with code {self.proc.returncode}")
        return json.loads(self.report_path.read_text())


def _client(port: int):
    from repro.serve import ServiceClient

    return ServiceClient("127.0.0.1", port, timeout=CLIENT_TIMEOUT)


def _map_job(spec: str) -> dict:
    return {"case": spec, "job": "map", "kind": "hatt"}


def boot(cache_dir: Path, trace: bool, warm_specs: list[str]):
    """Start a server and compile the warm set through it.

    Returns the server and the warm-set records; everything in here is
    set-up time (child start, imports, chemistry integrals, precompiles).
    """
    server = ServerProcess(cache_dir, trace)
    try:
        client = _client(server.port)
        try:
            records = [client.submit(_map_job(spec), wait=True) for spec in warm_specs]
        finally:
            client.close()
    except BaseException:
        server.kill()
        raise
    return server, records


def set_up(run_root: Path, warm_specs: list[str], repeats: int):
    """``repeats`` independent boots from empty cache directories.

    All but the last server are stopped; returns ``(server, warm records,
    set-up seconds of every repeat)``.
    """
    seconds, server, records = [], None, None
    for i in range(repeats):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        server, records = boot(run_root / f"server-{i}", False, warm_specs)
        seconds.append(time.perf_counter() - started)
    return server, records, seconds


# ----------------------------------------------------------------------
# Load generators
# ----------------------------------------------------------------------
def closed_loop(send, connections: int, seconds: float, limit: int, minimum: int):
    """Each connection sends its next request when the previous one returns.

    Sending goes on for ``seconds`` and, past that, until ``minimum``
    requests have gone out.  ``send(conn, i)`` performs request ``i``
    (``i < limit``).  Returns one ``(i, due, sent, done, result, error)``
    tuple per request; in a closed loop a request is due when it is sent.
    """
    results, lock, counter = [], threading.Lock(), itertools.count()
    deadline = time.perf_counter() + seconds

    def worker(conn: int) -> None:
        while True:
            with lock:
                i = next(counter)
            if i >= limit or (i >= minimum and time.perf_counter() >= deadline):
                return
            sent = time.perf_counter()
            try:
                result, error = send(conn, i), None
            except Exception as exc:  # noqa: BLE001 - a failed request is data
                result, error = None, exc
            with lock:
                results.append((i, sent, sent, time.perf_counter(), result, error))

    _run_threads(worker, connections)
    return sorted(results, key=lambda r: r[0])


def open_loop(send, count: int, rate: float, connections: int):
    """Request ``i`` is due at ``start + i / rate`` whatever came before.

    At most ``connections`` requests are in flight; a request due while all
    are busy goes out late, and its latency still counts from its due time.
    Returns ``(i, due, sent, done, result, error)`` per request.
    """
    results, lock, counter = [None] * count, threading.Lock(), itertools.count()
    start = time.perf_counter()

    def worker(conn: int) -> None:
        while True:
            with lock:
                i = next(counter)
            if i >= count:
                return
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                result, error = send(conn, i), None
            except Exception as exc:  # noqa: BLE001 - a failed request is data
                result, error = None, exc
            results[i] = (i, due, sent, time.perf_counter(), result, error)

    _run_threads(worker, connections)
    return results


def _run_threads(worker, n: int) -> None:
    threads = [threading.Thread(target=worker, args=(c,), daemon=True) for c in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


# ----------------------------------------------------------------------
# One measured phase
# ----------------------------------------------------------------------
class _Sender:
    """``send(conn, i)`` for a phase: submits ``specs[i]`` and keeps the
    client-side wall stamps a traced phase turns into spans."""

    def __init__(self, port: int, specs):
        self.specs = specs
        self.clients = [_client(port) for _ in range(CONNECTIONS)]
        self.stamps: dict[int, tuple[float, float, str | None]] = {}

    def __call__(self, conn: int, i: int):
        client = self.clients[conn]
        start = time.time()
        try:
            return client.submit(_map_job(self.specs[i]), wait=True)
        finally:
            trace = client.last_trace or {}
            self.stamps[i] = (start, time.time(), trace.get("trace_id"))

    def close(self) -> None:
        for client in self.clients:
            client.close()


def _queue_counters(port: int) -> dict:
    client = _client(port)
    try:
        return client.stats()
    finally:
        client.close()


def run_phase(server: ServerProcess, specs, drive, seconds: float) -> dict:
    """One load phase: ``drive(send, len(specs), seconds)`` sends ``specs``."""
    sender = _Sender(server.port, specs)
    before = _queue_counters(server.port)
    try:
        started = time.perf_counter()
        results = drive(sender, len(specs), seconds)
        elapsed = time.perf_counter() - started
    finally:
        sender.close()
    after = _queue_counters(server.port)
    return {
        "results": results,
        "elapsed": elapsed,
        "stamps": sender.stamps,
        "counters": {k: after.get(k, 0) - before.get(k, 0)
                     for k, v in after.items() if isinstance(v, int)},
    }


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def check_served(served, bench_cache: Path, server_dir: Path) -> list[str]:
    """Every served ``pauli_weight`` equals the in-process value.

    ``served`` is a list of ``(spec, JobRecord)``.  Each distinct
    fingerprint is recomputed once: ``compile_mapping(h, spec).map(h)`` in
    this process, after the timed phases.
    """
    from repro.service import MappingSpec, compile_mapping, fingerprint_request
    from repro.sources import build_case

    # Reuse the server's chemistry integrals instead of recomputing them.
    if (server_dir / "chem").is_dir():
        shutil.copytree(server_dir / "chem", bench_cache / "chem", dirs_exist_ok=True)
    failures, expected = [], {}
    for spec, record in served:
        result = record.result or {}
        fp = result.get("fingerprint")
        if record.status != "done" or fp is None:
            failures.append(f"{spec}: job {record.status} ({record.error})")
            continue
        if fp not in expected:
            h = build_case(spec)
            mapping_spec = MappingSpec(kind="hatt")
            if fingerprint_request(h, mapping_spec) != fp:
                failures.append(f"{spec}: served fingerprint {fp} differs from in-process")
            expected[fp] = int(compile_mapping(h, mapping_spec).map(h).pauli_weight())
        if result.get("pauli_weight") != expected[fp]:
            failures.append(
                f"{spec}: served pauli_weight {result.get('pauli_weight')} != "
                f"in-process {expected[fp]}"
            )
    return failures


def _latencies_ms(results) -> list[float]:
    return [(done - due) * 1000.0 for _, due, _, done, _, error in results if error is None]


def end_to_end(phase: dict, tail: float, setup_seconds, peak_rss_kb: int,
               pauli_weight: int):
    results = phase["results"]
    lat = _latencies_ms(results)
    within = sum(1 for ms in lat if ms <= SLO_MS)
    return {
        "setup_s": percentile(setup_seconds, 50),
        "latency_p50_ms": percentile(lat, 50),
        "latency_tail_ms": percentile(lat, tail),
        "throughput_rps": len(lat) / phase["elapsed"],
        "slo_ratio": within / len(results),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "pauli_weight": pauli_weight,
    }, {"tail_percentile": tail}


def traced_layers(phase: dict, spans_from_server) -> dict:
    """Merge client stamps, job-record stamps and server spans per request."""
    tracer = Tracer(prefix="c")
    by_trace: dict[str, tuple[str, str]] = {}
    n = 0
    for i, due, sent, done, record, error in phase["results"]:
        if error is not None:
            continue
        n += 1
        start, end, trace_id = phase["stamps"][i]
        req = f"r{i}"
        # The root runs from the due time: in the open loop, time spent
        # waiting for a free connection is latency no layer accounts for.
        root = tracer.add(ROOT_SPAN, start - (sent - due), end, req, None)
        http = tracer.add("serve.http", start, end, req, root["id"])
        if record.started_at is not None:
            tracer.add("serve.queue_wait", max(start, record.created_at),
                       record.started_at, req, http["id"])
            job = tracer.add("serve.job", record.started_at, record.finished_at,
                             req, http["id"])
            by_trace.setdefault(trace_id, (req, job["id"]))
    spans = list(tracer.spans)
    for s in spans_from_server:
        owner = by_trace.get(s["req"])
        if owner is None:
            continue  # warm-set precompiles
        s = dict(s, req=owner[0])
        if s["parent"] is None:
            s["parent"] = owner[1]
        spans.append(s)
    metrics = layer_metrics(spans, n)
    counters = phase["counters"]
    attempted = max(1, len(phase["results"]))
    metrics["serve.executed"] = counters.get("executed", 0) / attempted
    metrics["serve.coalesced"] = counters.get("coalesced", 0) / attempted
    metrics["serve.shed"] = sum(counters.get(k, 0) for k in
                                ("shed_full", "shed_breaker", "shed_draining")) / attempted
    metrics["serve.retries"] = counters.get("retried", 0) / attempted
    # Generator lateness; a closed loop sends when due, so it reads zero.
    lags = [(sent - due) * 1000.0 for _, due, sent, _, _, _ in phase["results"]]
    metrics["bench.lag_ms"] = percentile(lags, tail_percentile(len(lags)))
    return metrics


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _serve_workload(run_root: Path, bench_cache: Path, seconds: float, trace: bool,
                    warm_specs, phase_specs, drive, tail: float) -> dict:
    """Shared shape of both HTTP workloads.

    Untraced: set up ``SETUP_REPEATS`` times, then one phase of ``seconds``.
    Traced: set up once, an untraced phase, then a traced server over the
    same store (re-warmed through HTTP) for a second phase of ``seconds``;
    per-layer metrics come from the traced phase, and the ratio of the two
    medians is the tracing overhead.  ``phase_specs(offset, seconds)`` gives
    a phase's requests, ``drive`` sends them (see :func:`run_phase`).
    """
    server, warm, setup_seconds = set_up(run_root, warm_specs, 1 if trace else SETUP_REPEATS)
    served = list(zip(warm_specs, warm))
    phases = []  # (specs, outcome, server report)
    try:
        specs = phase_specs(0, seconds)
        outcome = run_phase(server, specs, drive, seconds)
        phases.append((specs, outcome, server.stop()))
        if trace:
            server, warm = boot(server.cache_dir, True, warm_specs)
            served += zip(warm_specs, warm)
            specs = phase_specs(len(outcome["results"]), seconds)
            phases.append((specs, run_phase(server, specs, drive, seconds), server.stop()))
    finally:
        server.kill()

    failures, attempted, failed = [], 0, 0
    for specs, outcome, _ in phases:
        results = outcome["results"]
        attempted += len(results)
        errors = [f"{specs[i]}: {type(error).__name__}: {error}"
                  for i, _, _, _, _, error in results if error is not None]
        failed += len(errors)
        failures += errors
        served += [(specs[i], record) for i, _, _, _, record, error in results
                   if error is None]
    failures += check_served(served, bench_cache, server.cache_dir)
    out = {"attempted": attempted, "failed": failed, "failures": failures}
    if trace:
        (_, untraced, _), (_, traced, report) = phases
        out["metrics"] = traced_layers(traced, report["spans"])
        out["metrics"]["trace.overhead_ratio"] = (
            percentile(_latencies_ms(traced["results"]), 50)
            / percentile(_latencies_ms(untraced["results"]), 50) - 1.0
        )
        return out
    (_, outcome, report), = phases
    weights = {record.result["fingerprint"]: record.result["pauli_weight"]
               for _, record in served if record.status == "done"}
    out["metrics"], out["notes"] = end_to_end(
        outcome, tail, setup_seconds, report["peak_rss_kb"], sum(weights.values())
    )
    return out


def serve_warm(run_root: Path, bench_cache: Path, seed: int, seconds: float, trace: bool):
    """Closed loop, 2 clients, uniform draws over 256 precompiled lattices.

    A phase sends at least as many requests as the server keeps finished
    jobs (the default ``max_jobs`` the launcher leaves in place), so the job
    history is full whatever the throughput, and ``peak_rss_mb`` does not
    follow the request count.
    """
    import inspect

    from repro.serve import JobQueue

    history = inspect.signature(JobQueue).parameters["max_jobs"].default
    variants = instances.warm_variants(seed)
    draws = [variants[i] for i in instances.warm_schedule(seed, len(variants), 1 << 18)]
    return _serve_workload(
        run_root, bench_cache, seconds, trace, variants,
        phase_specs=lambda offset, length: draws[offset:],
        drive=lambda send, count, length: closed_loop(send, CONNECTIONS, length, count,
                                                      minimum=history),
        tail=WARM_TAIL,
    )


def serve_mix(run_root: Path, bench_cache: Path, seed: int, seconds: float, trace: bool):
    """Open loop at ``MIX_RATE`` over 2 connections: 90% warm dense, 10% cold."""
    schedule = instances.mix_schedule(seed, 2 * int(round(seconds * MIX_RATE)))
    return _serve_workload(
        run_root, bench_cache, seconds, trace, instances.mix_warm_specs(seed),
        phase_specs=lambda offset, length: (
            schedule[offset:offset + int(round(length * MIX_RATE))]),
        drive=lambda send, count, length: open_loop(send, count, MIX_RATE, CONNECTIONS),
        tail=MIX_TAIL,
    )
