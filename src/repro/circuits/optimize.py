"""Peephole circuit optimization (the paper's 'Qiskit L3' stand-in).

Passes:

* :func:`cancel_adjacent` — remove DAG-adjacent inverse pairs (H·H, CX·CX,
  S·S†, …) and merge adjacent Rx/Ry/Rz rotations, in one pass.
* :func:`fuse_single_qubit` — collapse maximal runs of single-qubit gates
  into one ``u3`` via ZYZ decomposition (identity runs vanish).
* :func:`optimize` / :func:`to_cx_u3` — the full pipeline; ``to_cx_u3``
  additionally rewrites cz/swap into the {CX, U3} basis the paper compiles to.

Both passes are linear in the gate count.  Cancellation keeps per-qubit
stacks of live gates, so a cancel exposes the gate beneath it at once; fusion
multiplies 2×2 unitaries held as ``(u00, u01, u10, u11)`` tuples of Python
complexes, with no NumPy array per gate.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .circuit import Circuit
from .gates import Gate, gate_matrix

__all__ = ["cancel_adjacent", "fuse_single_qubit", "optimize", "to_cx_u3", "zyz_angles"]

#: Parameter-free gate -> the gate that cancels it when DAG-adjacent.
_INVERSE = {
    "h": "h", "x": "x", "y": "y", "z": "z",
    "s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t",
    "cx": "cx", "cz": "cz", "swap": "swap",
}

_ROTATIONS = frozenset({"rx", "ry", "rz"})

_ANGLE_EPS = 1e-12


def cancel_adjacent(circuit: Circuit) -> Circuit:
    """Remove inverse pairs / merge rotations that are adjacent in the
    circuit DAG (no gate on any shared qubit in between)."""
    return Circuit(circuit.n_qubits, _cancel(circuit.gates, circuit.n_qubits))


def _cancel(gates: list[Gate], n_qubits: int) -> list[Gate]:
    """:func:`cancel_adjacent` on a gate list, in one pass.

    ``stacks[q]`` holds the indices of the live gates on qubit ``q``; a gate
    is checked against the common top of its qubits' stacks, and a cancel
    pops that top, so the gate below is the next one checked (``h·s·sdg·h``
    collapses whole).  A live gate never loses a predecessor, so the result
    is a fixpoint of the pass.
    """
    out: list[Gate | None] = []
    stacks: list[list[int]] = [[] for _ in range(n_qubits)]
    for gate in gates:
        qubits = gate.qubits
        below = stacks[qubits[0]]
        if below:
            top = below[-1]
            prev = out[top]
            if prev.qubits == qubits and (len(qubits) == 1 or stacks[qubits[1]][-1] == top):
                name = gate.name
                if _INVERSE.get(prev.name) == name:
                    out[top] = None
                    for q in qubits:
                        stacks[q].pop()
                    continue
                if name == prev.name and name in _ROTATIONS:
                    angle = prev.params[0] + gate.params[0]
                    if abs(angle) < _ANGLE_EPS:
                        out[top] = None
                        below.pop()
                    else:
                        out[top] = Gate(name, qubits, (angle,))
                    continue
        index = len(out)
        for q in qubits:
            stacks[q].append(index)
        out.append(gate)
    return [g for g in out if g is not None]


# ----------------------------------------------------------------------
# 2×2 unitaries as (u00, u01, u10, u11) tuples
# ----------------------------------------------------------------------
_FIXED = {
    name: tuple(complex(v) for v in gate_matrix(name).flat)
    for name in ("i", "x", "y", "z", "h", "s", "sdg", "t", "tdg")
}


def _unitary(gate: Gate) -> tuple[complex, complex, complex, complex]:
    fixed = _FIXED.get(gate.name)
    if fixed is not None:
        return fixed
    name, params = gate.name, gate.params
    if name == "rz":
        half = 0.5 * params[0]
        return (cmath.exp(-1j * half), 0j, 0j, cmath.exp(1j * half))
    if name == "u3":
        theta, phi, lam = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return (
            complex(c),
            -cmath.exp(1j * lam) * s,
            cmath.exp(1j * phi) * s,
            cmath.exp(1j * (phi + lam)) * c,
        )
    c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
    if name == "rx":
        return (complex(c), -1j * s, -1j * s, complex(c))
    return (complex(c), complex(-s), complex(s), complex(c))  # ry


def _is_identity(u: tuple[complex, complex, complex, complex]) -> bool:
    """``u ≅ phase·I`` at the tolerances of ``np.allclose(u, u00·I, atol=1e-9)``
    (its default ``rtol=1e-5`` applies to the diagonal)."""
    a, b, c, d = u
    mod = abs(a)
    return (
        abs(mod - 1.0) <= 1e-9
        and abs(b) <= 1e-9
        and abs(c) <= 1e-9
        and abs(d - a) <= 1e-9 + 1e-5 * mod
    )


def _zyz(a: complex, b: complex, c: complex, d: complex) -> tuple[float, float, float]:
    """ZYZ angles of ``[[a, b], [c, d]]`` (see :func:`zyz_angles`)."""
    root = cmath.sqrt(a * d - b * c)
    a, c, d = a / root, c / root, d / root
    mod_a, mod_c = abs(a), abs(c)
    theta = 2.0 * math.atan2(mod_c, mod_a)
    if mod_a < 1e-12:
        # Pure off-diagonal: only φ - λ is defined.
        return theta, 2.0 * cmath.phase(c), 0.0
    if mod_c < 1e-12:
        return theta, 2.0 * cmath.phase(d), 0.0
    plus = 2.0 * cmath.phase(d)
    minus = 2.0 * cmath.phase(c)
    return theta, (plus + minus) / 2.0, (plus - minus) / 2.0


def zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """ZYZ Euler angles (θ, φ, λ) with ``u ≅ e^{iα}·Rz(φ)·Ry(θ)·Rz(λ)``.

    Global phase is discarded — u3(θ, φ, λ) then equals ``u`` up to phase.
    """
    return _zyz(complex(u[0, 0]), complex(u[0, 1]), complex(u[1, 0]), complex(u[1, 1]))


def fuse_single_qubit(circuit: Circuit) -> Circuit:
    """Fuse maximal 1q-gate runs into single u3 gates (dropping identities)."""
    return Circuit(circuit.n_qubits, _fuse(circuit.gates))


def _fuse(gates: list[Gate]) -> list[Gate]:
    """:func:`fuse_single_qubit` on a gate list."""
    pending: dict[int, tuple[complex, complex, complex, complex]] = {}
    out: list[Gate] = []

    def flush(q: int) -> None:
        u = pending.pop(q)
        if not _is_identity(u):
            out.append(Gate("u3", (q,), _zyz(*u)))

    for gate in gates:
        qubits = gate.qubits
        if len(qubits) == 1:
            q = qubits[0]
            g = _unitary(gate)
            p = pending.get(q)
            if p is None:
                pending[q] = g
            else:
                # g @ p: the later gate acts after the run so far.
                g00, g01, g10, g11 = g
                p00, p01, p10, p11 = p
                pending[q] = (
                    g00 * p00 + g01 * p10,
                    g00 * p01 + g01 * p11,
                    g10 * p00 + g11 * p10,
                    g10 * p01 + g11 * p11,
                )
        else:
            for q in qubits:
                if q in pending:
                    flush(q)
            out.append(gate)
    for q in sorted(pending):
        flush(q)
    return out


def _expand_to_cx(gates: list[Gate]) -> list[Gate]:
    """Rewrite cz and swap into cx + 1q gates.

    A SWAP has two CX decompositions (``cx(a,b)·cx(b,a)·cx(a,b)`` and its
    mirror); both are palindromes, so the orientation fixes the *outer* CX
    pair.  Routed circuits constantly emit a SWAP right next to a CX on the
    same edge, so the orientation is chosen to match the neighbouring CX —
    the cancellation pass then deletes the touching pair (2 CX per oriented
    junction).
    """
    out: list[Gate] = []
    for i, gate in enumerate(gates):
        if gate.name == "cz":
            c, t = gate.qubits
            h = Gate("h", (t,))
            out += (h, Gate("cx", (c, t)), h)
        elif gate.name == "swap":
            a, b = gate.qubits
            prev = out[-1] if out else None
            nxt = gates[i + 1] if i + 1 < len(gates) else None
            if (prev is not None and prev.name == "cx" and prev.qubits == (b, a)) or (
                not (prev is not None and prev.name == "cx" and prev.qubits == (a, b))
                and nxt is not None
                and nxt.name == "cx"
                and nxt.qubits == (b, a)
            ):
                a, b = b, a
            outer = Gate("cx", (a, b))
            out += (outer, Gate("cx", (b, a)), outer)
        else:
            out.append(gate)
    return out


def optimize(circuit: Circuit) -> Circuit:
    """Cancellation followed by 1q fusion, then one more cancellation pass."""
    n = circuit.n_qubits
    return Circuit(n, _cancel(_fuse(_cancel(circuit.gates, n)), n))


def to_cx_u3(circuit: Circuit) -> Circuit:
    """Full pipeline into the paper's {CX, U3} basis."""
    n = circuit.n_qubits
    return Circuit(n, _fuse(_cancel(_expand_to_cx(_cancel(circuit.gates, n)), n)))
