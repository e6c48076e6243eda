"""Reference peephole passes: fixpoint sweeps and NumPy 2×2 products.

These are the passes :mod:`repro.circuits.optimize` ran before its one-pass
kernels.  :func:`cancel_adjacent` re-sweeps the whole gate list until no
inverse pair or rotation merge is left (a cancel only clears the qubits'
``last_on`` entry, so the gate it exposes waits for the next sweep);
:func:`fuse_single_qubit` multiplies ``gate.matrix()`` arrays and tests for
the identity with ``np.allclose``; :func:`zyz_angles` divides by
``sqrt(np.linalg.det(u))``.  :func:`to_cx_u3` chains them with its own copy of
the cz/swap expansion, so it is the whole reference pipeline.

The oracle shares no private helper with the kernels; tests assert both give
the same gates (:func:`same_gates`) and the bench times one against the
other.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.circuits import Circuit, Gate

_INVERSE_PAIRS = {
    ("h", "h"), ("x", "x"), ("y", "y"), ("z", "z"),
    ("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t"),
    ("cx", "cx"), ("cz", "cz"), ("swap", "swap"),
}

_ROTATIONS = {"rx", "ry", "rz"}

_ANGLE_EPS = 1e-12


def cancel_adjacent(circuit: Circuit) -> Circuit:
    """Iteratively remove inverse pairs / merge rotations that are adjacent in
    the circuit DAG (no gate on any shared qubit in between)."""
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        # last_on[q] = index into `out` of the latest gate touching qubit q.
        out: list[Gate | None] = []
        last_on: dict[int, int] = {}
        for gate in gates:
            prev_idx = {last_on.get(q) for q in gate.qubits}
            prev = prev_idx.pop() if len(prev_idx) == 1 else None
            if prev is not None and out[prev] is not None:
                pg = out[prev]
                if pg.qubits == gate.qubits:
                    if (pg.name, gate.name) in _INVERSE_PAIRS and pg.params == ():
                        out[prev] = None
                        for q in gate.qubits:
                            last_on.pop(q, None)
                        changed = True
                        continue
                    if (
                        pg.name == gate.name
                        and gate.name in _ROTATIONS
                    ):
                        angle = pg.params[0] + gate.params[0]
                        if abs(angle) < _ANGLE_EPS:
                            out[prev] = None
                            for q in gate.qubits:
                                last_on.pop(q, None)
                        else:
                            out[prev] = Gate(gate.name, gate.qubits, (angle,))
                        changed = True
                        continue
            for q in gate.qubits:
                last_on[q] = len(out)
            out.append(gate)
        gates = [g for g in out if g is not None]
    return Circuit(circuit.n_qubits, gates)


def zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """ZYZ Euler angles (θ, φ, λ) with ``u ≅ e^{iα}·Rz(φ)·Ry(θ)·Rz(λ)``.

    Global phase is discarded — u3(θ, φ, λ) then equals ``u`` up to phase.
    """
    det = np.linalg.det(u)
    su = u / cmath.sqrt(det)
    theta = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[0, 0]) < 1e-12:
        # Pure off-diagonal: only φ - λ is defined.
        phi = 2.0 * cmath.phase(su[1, 0])
        lam = 0.0
    elif abs(su[1, 0]) < 1e-12:
        phi = 2.0 * cmath.phase(su[1, 1])
        lam = 0.0
    else:
        plus = 2.0 * cmath.phase(su[1, 1])
        minus = 2.0 * cmath.phase(su[1, 0])
        phi = (plus + minus) / 2.0
        lam = (plus - minus) / 2.0
    return theta, phi, lam


def _is_identity(u: np.ndarray) -> bool:
    phase = u[0, 0]
    if abs(abs(phase) - 1.0) > 1e-9:
        return False
    return bool(np.allclose(u, phase * np.eye(2), atol=1e-9))


def fuse_single_qubit(circuit: Circuit) -> Circuit:
    """Fuse maximal 1q-gate runs into single u3 gates (dropping identities)."""
    pending: dict[int, np.ndarray] = {}
    out: list[Gate] = []

    def flush(q: int) -> None:
        u = pending.pop(q, None)
        if u is None or _is_identity(u):
            return
        theta, phi, lam = zyz_angles(u)
        out.append(Gate("u3", (q,), (theta, phi, lam)))

    for gate in circuit.gates:
        if len(gate.qubits) == 1:
            q = gate.qubits[0]
            pending[q] = gate.matrix() @ pending.get(q, np.eye(2, dtype=complex))
        else:
            for q in gate.qubits:
                flush(q)
            out.append(gate)
    for q in sorted(pending):
        flush(q)
    return Circuit(circuit.n_qubits, out)


def _expand_to_cx(circuit: Circuit) -> Circuit:
    """Rewrite cz and swap into cx + 1q gates.

    A SWAP has two CX decompositions (``cx(a,b)·cx(b,a)·cx(a,b)`` and its
    mirror); both are palindromes, so the orientation fixes the *outer* CX
    pair.  Routed circuits constantly emit a SWAP right next to a CX on the
    same edge, so the orientation is chosen to match the neighbouring CX —
    the cancellation pass then deletes the touching pair (2 CX per oriented
    junction).
    """
    gates = circuit.gates
    out = Circuit(circuit.n_qubits)
    for i, gate in enumerate(gates):
        if gate.name == "cz":
            c, t = gate.qubits
            out.add("h", t)
            out.add("cx", c, t)
            out.add("h", t)
        elif gate.name == "swap":
            a, b = gate.qubits
            prev = out.gates[-1] if out.gates else None
            nxt = gates[i + 1] if i + 1 < len(gates) else None
            if (prev is not None and prev.name == "cx" and prev.qubits == (b, a)) or (
                not (prev is not None and prev.name == "cx" and prev.qubits == (a, b))
                and nxt is not None
                and nxt.name == "cx"
                and nxt.qubits == (b, a)
            ):
                a, b = b, a
            out.add("cx", a, b)
            out.add("cx", b, a)
            out.add("cx", a, b)
        else:
            out.append(gate)
    return out


def to_cx_u3(circuit: Circuit) -> Circuit:
    """Full pipeline into the paper's {CX, U3} basis."""
    return fuse_single_qubit(cancel_adjacent(_expand_to_cx(cancel_adjacent(circuit))))


def optimize(circuit: Circuit) -> Circuit:
    """Cancellation followed by 1q fusion, then one more cancellation pass."""
    return cancel_adjacent(fuse_single_qubit(cancel_adjacent(circuit)))


def same_gates(kernel: Circuit, reference: Circuit, atol: float = 1e-12) -> bool:
    """Same gate names and qubits in the same order, params equal modulo 2π
    within ``atol`` (a ZYZ phase may land either side of the ±π cut)."""
    if [(g.name, g.qubits) for g in kernel.gates] != [
        (g.name, g.qubits) for g in reference.gates
    ]:
        return False
    return all(
        abs(math.remainder(x - y, 2 * math.pi)) <= atol
        for a, b in zip(kernel.gates, reference.gates)
        for x, y in zip(a.params, b.params)
    )
