"""Dense statevector simulator.

Amplitude ordering: basis index ``b`` has qubit 0 as its least-significant
bit, matching :meth:`repro.paulis.PauliString.to_matrix`.
"""

from __future__ import annotations

import numpy as np

from ..circuits.gates import Gate
from ..paulis import PauliString, QubitOperator

__all__ = ["Statevector"]


class Statevector:
    """A mutable ``2^n`` complex amplitude vector."""

    def __init__(self, n_qubits: int, amplitudes: np.ndarray | None = None):
        self.n = n_qubits
        if amplitudes is None:
            amplitudes = np.zeros(1 << n_qubits, dtype=complex)
            amplitudes[0] = 1.0
        self.amplitudes = np.asarray(amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << n_qubits,):
            raise ValueError("amplitude vector has wrong length")

    @classmethod
    def basis(cls, n_qubits: int, bits: int) -> "Statevector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[bits] = 1.0
        return cls(n_qubits, amps)

    def copy(self) -> "Statevector":
        return Statevector(self.n, self.amplitudes.copy())

    # ------------------------------------------------------------------
    # Gate application
    # ------------------------------------------------------------------
    def apply(self, gate: Gate) -> None:
        mat = gate.matrix()
        if len(gate.qubits) == 1:
            self._apply_1q(mat, gate.qubits[0])
        else:
            self._apply_2q(mat, gate.qubits[0], gate.qubits[1])

    def _apply_1q(self, mat: np.ndarray, q: int) -> None:
        # View as (high, 2, low) with axis 1 = qubit q.
        a = self.amplitudes.reshape(1 << (self.n - q - 1), 2, 1 << q)
        self.amplitudes = np.einsum("ij,ajb->aib", mat, a).reshape(-1)

    def _apply_2q(self, mat: np.ndarray, q0: int, q1: int) -> None:
        # Gate matrices index (q0, q1) with q0 as the most significant bit of
        # the pair (first listed qubit = control for cx).
        n = self.n
        a = self.amplitudes.reshape([2] * n)
        # numpy axis k corresponds to qubit n-1-k.
        ax0, ax1 = n - 1 - q0, n - 1 - q1
        m = mat.reshape(2, 2, 2, 2)  # [q0', q1', q0, q1]
        a = np.tensordot(m, a, axes=[[2, 3], [ax0, ax1]])
        # tensordot puts the new (q0', q1') axes first; move them back.
        a = np.moveaxis(a, [0, 1], [ax0, ax1])
        self.amplitudes = a.reshape(-1)

    def apply_circuit(self, circuit) -> "Statevector":
        for gate in circuit.gates:
            self.apply(gate)
        return self

    def apply_pauli(self, pauli: PauliString) -> None:
        """Apply a Pauli string (as X/Y/Z gates; exact global phase kept)."""
        if pauli.n != self.n:
            raise ValueError("qubit count mismatch")
        for q, op in pauli.ops():
            self._apply_1q(Gate(op.lower(), (q,)).matrix(), q)
        self.amplitudes *= pauli.phase_value

    # ------------------------------------------------------------------
    # Measurement-free observables
    # ------------------------------------------------------------------
    def expectation(self, op: QubitOperator) -> float:
        """⟨ψ|H|ψ⟩ for a Hermitian operator, evaluated in one pass through
        the packed :meth:`repro.paulis.PauliTable.expectation_values` kernel."""
        if op.n != self.n:
            raise ValueError("qubit count mismatch")
        table, coeffs = op.to_table()
        return float(table.expectation_values(self.amplitudes, coeffs).real)

    def probability(self, bits: int) -> float:
        return float(abs(self.amplitudes[bits]) ** 2)

    def fidelity(self, other: "Statevector") -> float:
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))
