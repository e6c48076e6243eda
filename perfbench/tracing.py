"""Benchmark-side tracing: spans around each layer's public entry points.

The program under test carries no benchmark tracing of its own.  For a traced
run, :meth:`Tracer.install` replaces each entry point in
:data:`ENTRY_POINTS` at the name its caller looks up (a module global such as
``repro.compile.pipeline.route_circuit``, or a class attribute) with a
wrapper that records one span per call; :meth:`Tracer.uninstall` puts the
originals back.

A span is a plain dict: ``id``, ``parent`` (the enclosing span on the same
thread), ``req`` (the request it belongs to), ``name``, ``start``/``end``
(``time.time()`` seconds, so spans from the server child and the job
record's ``created_at``/``started_at``/``finished_at`` stamps share one
clock) and ``counts``.  Spans stay in memory until the run ends.

A span's self time is its duration minus the part of it that its children
cover; :func:`layer_metrics` turns self times and counts into per-request
layer metrics, and reports the time no layer span covers as unattributed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

#: Root span the benchmark opens around each request it times.
ROOT = "bench.request"


def _len_count(metric):
    return lambda args, result: {metric: len(result)}


def _calls(metric):
    return lambda args, result: {metric: 1}


def _written_bytes(args, result):
    return {"store.writes": 1, "store.write_bytes": os.path.getsize(result)}


def _cache_outcome(args, result):
    # Every key on every call: a layer that ran reports all of its counts.
    source = result.source if result.source in ("memory", "disk") else "miss"
    return {
        "service.memory_hits": int(source == "memory"),
        "service.disk_hits": int(source == "disk"),
        "service.misses": int(source == "miss"),
    }


def _routed(args, result):
    return {"circuits.routed_cx": result.routed_cx,
            "circuits.routed_depth": result.routed_depth}


def _cx_pass(args, routed) -> str:
    # The pipeline calls to_cx_u3 twice; the pass over the routed circuit is
    # part of routing, the pass over the Trotter circuit part of ordering.
    return "circuits.route" if args and args[0] is routed else "circuits.order"


#: (module, class or None, attribute, span name, counts or None).  Module
#: globals are patched in the module that *calls* them.  A span name may be
#: a function of the call's arguments and the last routed circuit; counts is
#: ``counts(args, result)`` or a dict of them keyed by span name.
ENTRY_POINTS = (
    ("repro.sources", None, "build_case", "sources.build", None),
    ("repro.serve.queue", None, "build_case", "sources.build", None),
    (
        "repro.fermion.majorana", "MajoranaOperator", "from_fermion_operator",
        "fermion.expand",
        lambda args, result: {"fermion.expand_calls": 1, "fermion.majorana_terms": len(result)},
    ),
    ("repro.service.service", None, "fingerprint_request", "service.fingerprint", None),
    ("repro.compile.pipeline", None, "fingerprint_request", "service.fingerprint", None),
    ("repro.compile.pipeline", None, "fingerprint_operator", "service.fingerprint", None),
    ("repro.service.service", None, "hatt_mapping", "hatt.construct", None),
    (
        "repro.mappings.base", "FermionQubitMapping", "map", "mappings.map",
        _len_count("mappings.qubit_terms"),
    ),
    ("repro.compile.pipeline", None, "trotter_circuit", "circuits.order", None),
    (
        "repro.compile.pipeline", None, "to_cx_u3", _cx_pass,
        {"circuits.order": lambda args, result: {"circuits.logical_cx": result.cx_count}},
    ),
    (
        "repro.compile.pipeline", None, "route_circuit", "circuits.route",
        lambda args, result: {"circuits.swaps": result.swap_count},
    ),
    *(
        ("repro.service.store", "ArtifactStore", attr, "store.read", _calls("store.reads"))
        for attr in ("get_mapping", "get_mapping_doc", "get_report", "get_circuit_report")
    ),
    *(
        ("repro.service.store", "ArtifactStore", attr, "store.write", _written_bytes)
        for attr in ("put_mapping", "put_report", "put_circuit_report")
    ),
    ("repro.service.service", "MappingService", "get_or_compile", "service.cache",
     _cache_outcome),
    ("repro.compile.pipeline", "CompilationPipeline", "compile_one", "compile.pipeline",
     _routed),
)


class Tracer:
    """In-memory span recorder for one process.

    Spans are recorded only inside a request: one the benchmark opened with
    :meth:`request` on this thread, or, when ``request_key`` is given, the
    request it names (the server child passes the job's trace id lookup).
    """

    def __init__(self, request_key=None, prefix: str = "b"):
        self.spans: list[dict] = []
        self._request_key = request_key
        self._prefix = prefix
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.req = None
            local.last_routed = None
        return local

    def _current_request(self, local):
        if local.req is not None:
            return local.req
        return self._request_key() if self._request_key is not None else None

    def open(self, name: str) -> dict | None:
        local = self._state()
        req = self._current_request(local)
        if req is None:
            return None
        span = {
            "id": f"{self._prefix}{next(self._ids)}",
            "parent": local.stack[-1]["id"] if local.stack else None,
            "req": req,
            "name": name,
            "start": time.time(),
            "end": None,
            "counts": {},
        }
        local.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.time()
        self._local.stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, name, start, end, req, parent) -> dict:
        """Record a span measured elsewhere (client stamps, job-record stamps)."""
        span = {
            "id": f"{self._prefix}{next(self._ids)}",
            "parent": parent,
            "req": req,
            "name": name,
            "start": start,
            "end": end,
            "counts": {},
        }
        with self._lock:
            self.spans.append(span)
        return span

    @contextlib.contextmanager
    def request(self, key: str):
        """Mark one timed request on this thread; yields its root span."""
        local = self._state()
        local.req = key
        span = self.open(ROOT)
        try:
            yield span
        finally:
            self.close(span)
            local.req = None

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name, counts=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if binder is not None else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            span_name = name(args, local.last_routed) if callable(name) else name
            span = tracer.open(span_name)
            if span is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            count = counts.get(span_name) if isinstance(counts, dict) else counts
            if count is not None:
                span["counts"] = count(args, result)
            if attr == "route_circuit":
                local.last_routed = result.circuit
            return result

        setattr(owner, attr, binder(traced) if binder is not None else traced)
        self._originals.append((owner, attr, raw))

    def install(self) -> "Tracer":
        for module, cls, attr, name, counts in ENTRY_POINTS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            self.wrap(owner, attr, name, counts)
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _covered(start: float, end: float, intervals) -> float:
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id → seconds of the span no child span covers."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(s["start"], s["end"], children[s["id"]])
        for s in spans
    }


def layer_metrics(spans: list[dict], n_requests: int) -> dict[str, float]:
    """Per-request self milliseconds and counts by layer, plus trace quality.

    ``<span name>_ms`` is the mean self time per request; each count key is
    summed and divided by ``n_requests``.  ``trace.unattributed_ms`` is the
    mean self time of the benchmark's own root spans — request time no layer
    span covers — and ``trace.coverage`` the covered share of root time.
    """
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    root_total = root_self = 0.0
    for s in spans:
        if s["name"] == ROOT:
            root_total += s["end"] - s["start"]
            root_self += own[s["id"]]
            continue
        out[f"{s['name']}_ms"] += own[s["id"]] * 1000.0
        for key, value in s["counts"].items():
            out[key] += value
    n = max(1, n_requests)
    metrics = {key: value / n for key, value in out.items()}
    hits = metrics.get("service.memory_hits", 0.0) + metrics.get("service.disk_hits", 0.0)
    lookups = hits + metrics.get("service.misses", 0.0)
    metrics["service.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["trace.unattributed_ms"] = root_self * 1000.0 / n
    metrics["trace.coverage"] = 1.0 - root_self / root_total if root_total else 0.0
    return metrics
