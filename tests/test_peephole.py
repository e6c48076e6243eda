"""The one-pass peephole kernels against their reference passes.

``repro.circuits.optimize`` cancels with per-qubit stacks of live gates and
fuses 1q runs as 2×2 tuples of Python complexes; ``tests/oracles/circuits.py``
keeps the fixpoint sweeps and NumPy 2×2 products they replaced.  On real
Trotter circuits, logical and routed, the two emit the same gates on the same
qubits with params equal modulo 2π (the ZYZ phase may land either side of the
±π branch cut).  On adversarial random circuits both reach a fixpoint but may
keep a different one of two identical gates, so there the kernel is held to
the same unitary and to no more gates, CX or depth than the oracle.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import circuits as oracle
from repro import hatt_mapping
from repro.circuits import (
    TERM_ORDERS,
    architecture,
    cancel_adjacent,
    fuse_single_qubit,
    gate_matrix,
    optimize,
    route_circuit,
    to_cx_u3,
    trotter_circuit,
    zyz_angles,
)
from repro.mappings import jordan_wigner
from repro.sources import build_case
from test_circuit_properties import phase_free_equal, random_circuits

#: Kernel pass -> its reference pass.
PASSES = {
    cancel_adjacent: oracle.cancel_adjacent,
    fuse_single_qubit: oracle.fuse_single_qubit,
    optimize: oracle.optimize,
    to_cx_u3: oracle.to_cx_u3,
}

CASES = ["hubbard:2x2", "random:syk:n=4,seed=3", "neutrino:2x2F", "H2_sto3g"]
MAPPINGS = {"jw": lambda h: jordan_wigner(h.n_modes), "hatt": hatt_mapping}


@lru_cache(maxsize=None)
def mapped(spec: str, kind: str):
    h = build_case(spec)
    return MAPPINGS[kind](h).map(h)


@lru_cache(maxsize=1)
def manhattan():
    return architecture("manhattan")


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(CASES),
    kind=st.sampled_from(sorted(MAPPINGS)),
    order=st.sampled_from(TERM_ORDERS),
    time=st.floats(0.05, 2.0),
    steps=st.integers(1, 2),
)
def test_trotter_circuits_match_oracle(spec, kind, order, time, steps):
    raw = trotter_circuit(mapped(spec, kind), time=time, steps=steps, order=order)
    for kernel_pass, oracle_pass in PASSES.items():
        assert oracle.same_gates(kernel_pass(raw), oracle_pass(raw)), kernel_pass.__name__
    logical = to_cx_u3(raw)
    routed = route_circuit(logical, manhattan()).circuit
    assert oracle.same_gates(to_cx_u3(routed), oracle.to_cx_u3(routed))


@given(random_circuits())
@settings(max_examples=80, deadline=None)
def test_random_circuits_never_worse_than_oracle(circuit):
    for kernel_pass, oracle_pass in PASSES.items():
        out, ref = kernel_pass(circuit), oracle_pass(circuit)
        assert phase_free_equal(out.to_matrix(), ref.to_matrix()), kernel_pass.__name__
        assert len(out) <= len(ref), kernel_pass.__name__
        assert out.cx_count <= ref.cx_count, kernel_pass.__name__
        assert out.depth() <= ref.depth(), kernel_pass.__name__


@given(random_circuits(max_gates=24))
@settings(max_examples=80, deadline=None)
def test_cancel_adjacent_is_idempotent(circuit):
    once = cancel_adjacent(circuit)
    assert cancel_adjacent(once).gates == once.gates


@pytest.mark.parametrize("spec", CASES)
def test_cancel_adjacent_is_idempotent_on_trotter(spec):
    once = cancel_adjacent(trotter_circuit(mapped(spec, "hatt"), order="mutual"))
    assert cancel_adjacent(once).gates == once.gates


def _unitaries(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        yield q


@pytest.mark.parametrize(
    "u",
    list(_unitaries(30, 5))
    + [gate_matrix(n) for n in ["i", "x", "y", "z", "h", "s", "sdg", "t", "tdg"]]
    + [gate_matrix("rz", (0.4,)), gate_matrix("rx", (math.pi,)), gate_matrix("ry", (-2.0,))],
)
def test_zyz_angles_match_oracle(u):
    """Kernel and oracle angles give the same u3 (and both rebuild ``u``)."""
    kernel = gate_matrix("u3", zyz_angles(u))
    reference = gate_matrix("u3", oracle.zyz_angles(u))
    assert np.allclose(kernel, reference, atol=1e-12)
    assert phase_free_equal(kernel, u, atol=1e-12)
