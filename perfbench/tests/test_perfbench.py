"""The benchmark's own tests: seeded inputs, percentile rule, load generators
and span accounting.  Run with ``python3 -m pytest perfbench/tests -q``."""

import json
import time
from collections import defaultdict

import pytest

from perfbench import instances
from perfbench.cold import Request, _end_to_end, quality, run_requests
from perfbench.hostspeed import HostSpeed
from perfbench.serving import closed_loop, open_loop
from perfbench.stats import percentile, tail_percentile
from perfbench.tracing import ENTRY_POINTS, Tracer, layer_metrics, self_times

# The cold list without the chemistry cases, whose integrals take seconds.
NO_CHEMISTRY = slice(len(instances.CHEMISTRY), None)


def _per_request_counts(spans):
    counts = defaultdict(lambda: defaultdict(int))
    for s in spans:
        for key, value in s["counts"].items():
            counts[s["req"]][key] += value
    return {req: dict(c) for req, c in counts.items()}


def _traced_pass(specs, store_root):
    with Tracer() as tracer:
        records, failures = run_requests(specs, store_root, len(specs), tracer=tracer)
    assert failures == []
    return quality(records, specs)[0], _per_request_counts(tracer.spans)


def test_same_seed_same_figures_and_counts(tmp_path):
    specs = instances.cold_instances(7)[NO_CHEMISTRY]
    assert specs == instances.cold_instances(7)[NO_CHEMISTRY]
    sums_a, counts_a = _traced_pass(specs, tmp_path / "a")
    sums_b, counts_b = _traced_pass(specs, tmp_path / "b")
    assert sums_a == sums_b
    assert all(v > 0 for v in sums_a.values())
    # Stored provenance carries the compile time and a timestamp, so stored
    # bytes may differ by a digit; every other count repeats exactly.
    bytes_a = {r: c.pop("store.write_bytes") for r, c in counts_a.items()}
    bytes_b = {r: c.pop("store.write_bytes") for r, c in counts_b.items()}
    assert counts_a == counts_b
    assert all(abs(bytes_a[r] - bytes_b[r]) <= 0.01 * bytes_a[r] for r in bytes_a)
    assert len(counts_a) == len(specs)
    # Both HATT construction and the mapping expand the Hamiltonian.
    assert all(c["fermion.expand_calls"] == 2 for c in counts_a.values())


def test_different_seed_different_instances():
    assert instances.cold_instances(1) != instances.cold_instances(2)
    assert instances.warm_variants(1) != instances.warm_variants(2)
    assert instances.mix_schedule(1, 40) != instances.mix_schedule(2, 40)


def test_seeded_inputs_have_the_stated_shape():
    cold = instances.cold_instances(3)
    assert len(cold) == len(set(cold)) == 12
    warm = instances.warm_variants(3)
    assert len(warm) == len(set(warm)) == 256
    schedule = instances.mix_schedule(3, 200)
    cold_requests = [s for s in schedule if s.startswith("random:syk:n=7")]
    assert len(cold_requests) == len(set(cold_requests)) == 20
    assert set(schedule) - set(cold_requests) == set(instances.mix_warm_specs(3))


def test_percentile_refuses_thin_tails():
    assert percentile(range(100), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    assert percentile(range(1000), 99) == pytest.approx(989.01)
    assert percentile([3.0], 50) == 3.0
    assert tail_percentile(1000) == 99 and tail_percentile(100) == 90
    assert tail_percentile(60) == 80
    with pytest.raises(ValueError):
        tail_percentile(49)


def test_stalled_sender_raises_open_loop_latency_from_due_time():
    def run(stall_at):
        def send(conn, i):
            time.sleep(0.3 if i == stall_at else 0.001)
        return open_loop(send, count=30, rate=100.0, connections=1)

    steady = run(stall_at=None)
    stalled = run(stall_at=5)
    after = stalled[6]
    _, due, sent, done, _, _ = after
    # Request 6 went out late behind the stall; from its due time it waited
    # the stall out, though its own round trip was short.
    assert done - due > 0.2
    assert done - sent < 0.1
    assert max(d - u for _, u, _, d, _, _ in steady) < 0.2


def test_closed_loop_sends_one_at_a_time_per_connection():
    in_flight, peak = [0], [0]

    def send(conn, i):
        in_flight[0] += 1
        peak[0] = max(peak[0], in_flight[0])
        time.sleep(0.002)
        in_flight[0] -= 1

    results = closed_loop(send, connections=1, seconds=0.1, limit=10_000, minimum=0)
    assert peak[0] == 1
    assert [r[0] for r in results] == list(range(len(results)))
    # Past its time, a closed loop still sends up to ``minimum`` requests.
    assert len(closed_loop(send, connections=2, seconds=0.0, limit=100, minimum=7)) == 7


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"id": "a", "parent": None, "req": "r", "name": "bench.request",
         "start": 0.0, "end": 10.0, "counts": {}},
        {"id": "b", "parent": "a", "req": "r", "name": "compile.pipeline",
         "start": 1.0, "end": 9.0, "counts": {}},
        {"id": "c", "parent": "b", "req": "r", "name": "circuits.route",
         "start": 2.0, "end": 5.0, "counts": {"circuits.swaps": 4}},
        {"id": "d", "parent": "b", "req": "r", "name": "circuits.order",
         "start": 4.0, "end": 6.0, "counts": {}},
    ]
    assert self_times(spans) == {"a": 2.0, "b": 4.0, "c": 3.0, "d": 2.0}
    metrics = layer_metrics(spans, n_requests=1)
    assert metrics["compile.pipeline_ms"] == 4000.0
    assert metrics["circuits.swaps"] == 4
    assert metrics["trace.unattributed_ms"] == 2000.0
    assert metrics["trace.coverage"] == pytest.approx(0.8)


def test_install_patches_callers_and_uninstall_restores():
    import importlib

    def owner(module, cls):
        target = importlib.import_module(module)
        return getattr(target, cls) if cls else target

    before = [owner(m, c).__dict__[a] if c else getattr(owner(m, c), a)
              for m, c, a, _, _ in ENTRY_POINTS]
    with Tracer():
        patched = [getattr(owner(m, c), a) for m, c, a, _, _ in ENTRY_POINTS]
        assert all(hasattr(p, "__wrapped__") for p in patched)
    after = [owner(m, c).__dict__[a] if c else getattr(owner(m, c), a)
             for m, c, a, _, _ in ENTRY_POINTS]
    assert all(x is y for x, y in zip(before, after))


def test_traced_report_fails_when_an_expected_layer_left_no_span(capsys):
    from argparse import Namespace

    from perfbench.run import _expected_layers, report

    args = Namespace(workload="compile-cold", seed=1, trace=1)
    assert "circuits.route_ms" in _expected_layers("compile-cold")
    assert "store.read_ms" not in _expected_layers("compile-cold")
    everything = {name: 1.0 for name in _expected_layers("compile-cold")}
    out = {"attempted": 1, "failed": 0, "failures": [], "metrics": everything}
    assert report(args, out) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["metrics"]["store.read_ms"]["value"] == 0.0
    del everything["circuits.route_ms"]
    out = {"attempted": 1, "failed": 0, "failures": [], "metrics": everything}
    assert report(args, out) == 1
    assert not json.loads(capsys.readouterr().out.splitlines()[-1])["correct"]


def test_cold_times_scale_to_reference_host_speed():
    from types import SimpleNamespace

    figures = SimpleNamespace(pauli_weight=5, routed_cx=7, routed_depth=9)
    setups = [(1.0, 1.0), (3.0, 1.0), (2.0, 1.0)]
    same = [Request("a", 0.2, figures), Request("b", 0.6, figures)] * 25
    slow_host = [r._replace(scale=0.5) for r in same]
    same = _end_to_end(same, [], ["a", "b"], setups)
    slow_host = _end_to_end(slow_host, [], ["a", "b"], [(t, 0.5) for t, _ in setups])
    for name in ("setup_s", "latency_p50_ms", "latency_tail_ms"):
        assert slow_host["metrics"][name] == pytest.approx(same["metrics"][name] * 0.5)
    assert slow_host["metrics"]["throughput_rps"] == pytest.approx(
        same["metrics"]["throughput_rps"] * 2)
    assert same["metrics"]["latency_p50_ms"] == pytest.approx(400.0)
    assert slow_host["notes"]["raw_latency_p50_ms"] == pytest.approx(400.0)
    assert slow_host["metrics"]["pauli_weight"] == 10
    assert HostSpeed().sample() > 0
