"""Peephole kernels vs their reference passes on a real Trotter circuit.

The paper scores a mapping by the circuit it compiles to after a "Qiskit L3"
style peephole (§V-B): CNOT count, U3 count and depth.  ``to_cx_u3`` runs that
peephole twice per compile, once on the logical Trotter circuit and once on
the routed one.  This bench times the one-pass kernels of
``repro.circuits.optimize`` against the fixpoint sweeps and NumPy 2×2
products in ``tests/oracles/circuits.py`` on the H2O_sto3g HATT Trotter
circuit (mutual term order), logical and routed on Manhattan.  It asserts the
two emit the same gates on the same qubits, params equal modulo 2π, and that
the kernel clears a combined speed floor over the oracle.

Set ``REPRO_BENCH_SMOKE=1`` (as the CI smoke step does) for a toy-size run on
``neutrino:3x2F`` that needs no chemistry integrals and still enforces the
floor.  Timings are also written to the committed repo-root
``BENCH_peephole.json`` (full size only; every run refreshes the copy under
``benchmarks/results/``).
"""

import os
import time
from pathlib import Path

import pytest

from conftest import full_run
from oracles import circuits as oracle
from repro import hatt_mapping
from repro.analysis import format_table, write_bench_json, write_result
from repro.circuits import architecture, route_circuit, to_cx_u3, trotter_circuit
from repro.sources import build_case

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("0", "", "false")

CASE = "neutrino:3x2F" if SMOKE else "H2O_sto3g"
ARCH = "manhattan"
REPEATS = 5 if SMOKE else 3

#: Acceptance floor: the kernels must beat the oracle by this factor on the
#: logical and routed passes combined.
MIN_SPEEDUP = 1.5

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_peephole.json"


def _best_of(fn, circuit, repeats=REPEATS):
    """Best-of-N wall time of ``fn(circuit)`` and its (last) output."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(circuit)
        best = min(best, time.perf_counter() - start)
    return best, out


@pytest.fixture(scope="module")
def peephole():
    h = build_case(CASE)
    raw = trotter_circuit(hatt_mapping(h).map(h), order="mutual")
    stages = {}
    t_kernel, logical = _best_of(to_cx_u3, raw)
    t_oracle, logical_ref = _best_of(oracle.to_cx_u3, raw)
    stages["logical"] = (raw, t_kernel, t_oracle, logical, logical_ref)
    routed_raw = route_circuit(logical, architecture(ARCH)).circuit
    t_kernel, routed = _best_of(to_cx_u3, routed_raw)
    t_oracle, routed_ref = _best_of(oracle.to_cx_u3, routed_raw)
    stages["routed"] = (routed_raw, t_kernel, t_oracle, routed, routed_ref)

    rows = []
    for name, (before, t_k, t_o, out, _) in stages.items():
        rows.append([name, len(before), len(out), out.cx_count, out.depth(),
                     f"{t_o:.3f}", f"{t_k:.3f}", f"{t_o / t_k:.1f}x"])
    kernel_s = sum(s[1] for s in stages.values())
    oracle_s = sum(s[2] for s in stages.values())
    speedup = oracle_s / kernel_s
    content = format_table(
        f"to_cx_u3 peephole on {CASE} (HATT, mutual order), {ARCH} - seconds, best of "
        f"{REPEATS}",
        ["circuit", "gates in", "gates out", "cx", "depth", "oracle", "kernel", "speedup"],
        rows,
    ) + f"\ncombined kernel-over-oracle speedup: {speedup:.2f}x; floor {MIN_SPEEDUP}x"
    write_result("peephole", content)
    payload = {
        "case": CASE,
        "architecture": ARCH,
        "smoke": SMOKE,
        "full": full_run(),
        "repeats": REPEATS,
        "stages": {
            name: {
                "gates_in": len(before),
                "gates_out": len(out),
                "cx": out.cx_count,
                "depth": out.depth(),
                "kernel_s": round(t_k, 4),
                "oracle_s": round(t_o, 4),
            }
            for name, (before, t_k, t_o, out, _) in stages.items()
        },
        "combined_speedup": round(speedup, 2),
        "min_speedup_floor": MIN_SPEEDUP,
    }
    write_bench_json("peephole", payload, JSON_PATH, refresh_committed=not SMOKE)
    return stages, speedup


@pytest.mark.parametrize("stage", ["logical", "routed"])
def test_kernel_matches_oracle(peephole, stage):
    """Gate for gate: same names and qubits, params equal modulo 2π."""
    stages, _ = peephole
    _, _, _, out, ref = stages[stage]
    assert oracle.same_gates(out, ref)


def test_kernel_speedup_floor(peephole):
    _, speedup = peephole
    assert speedup >= MIN_SPEEDUP, speedup
