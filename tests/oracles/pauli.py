"""Reference per-term Pauli loops behind the packed-table kernels.

* :func:`map_majorana_operator` — each Majorana monomial multiplied out one
  string at a time on raw ``(x, z, k)`` integer triples (the twin of
  :func:`repro.mappings.map_majorana_operator`);
* :func:`expectation` — ``⟨ψ|H|ψ⟩`` as one statevector copy and Pauli
  application per term (the twin of :meth:`repro.sim.Statevector.expectation`);
* :func:`commutator_weight` — the anticommuting-pair sum as a Python double
  loop (the twin of :func:`repro.analysis.commutator_weight`).

Each works on the scalar :class:`~repro.paulis.PauliString` algebra only, so
it shares no kernel with the packed :class:`~repro.paulis.PauliTable` code
under test.
"""

from __future__ import annotations

import numpy as np

from repro.fermion import MajoranaOperator
from repro.paulis import PauliString, QubitOperator
from repro.paulis.algebra import mul_xzk
from repro.sim import Statevector

_PHASE = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


def map_majorana_operator(
    op: MajoranaOperator, strings: list[PauliString], n_qubits: int
) -> QubitOperator:
    """``Σ c_T Π_{i∈T} M_i`` → ``Σ c_T Π_{i∈T} S_i``, term by term."""
    n_modes = (op.n_majoranas + 1) // 2
    if 2 * n_modes > len(strings):
        raise ValueError(
            f"operator spans {n_modes} modes and needs {2 * n_modes} Majorana "
            f"strings (2 per mode) but only {len(strings)} were supplied"
        )
    raw = [(s.x, s.z, s.phase) for s in strings]
    out = QubitOperator(n_qubits)
    for indices, coeff in op.terms():
        x = z = k = 0
        for i in indices:
            x, z, k = mul_xzk(x, z, k, *raw[i])
        out.add_raw(x, z, coeff * _PHASE[k])
    return out.simplify()


def expectation(state: Statevector, op: QubitOperator) -> float:
    """``⟨ψ|H|ψ⟩`` summed one Pauli string at a time."""
    if op.n != state.n:
        raise ValueError("qubit count mismatch")
    total = 0.0 + 0j
    for string, coeff in op.terms():
        phi = state.copy()
        phi.apply_pauli(string)
        total += coeff * np.vdot(state.amplitudes, phi.amplitudes)
    return float(total.real)


def commutator_weight(h: QubitOperator) -> float:
    """``Σ_{i<j} |c_i||c_j| · ||[P_i, P_j]||`` over every term pair."""
    terms = [(s, abs(c)) for s, c in h.terms() if not s.is_identity]
    total = 0.0
    for i, (si, ci) in enumerate(terms):
        for sj, cj in terms[i + 1 :]:
            if not si.commutes_with(sj):
                total += 2.0 * ci * cj
    return total
