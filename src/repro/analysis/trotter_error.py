"""Trotterization error analysis.

The paper compiles one first-order Trotter step (§II-B2) and uses Pauli
weight as the cost proxy; this module supplies the matching accuracy side:
the standard commutator bound for the first-order product formula and an
empirical spectral-norm error for small systems, so users can pick the step
count that makes the compiled circuits meaningful.
"""

from __future__ import annotations

import numpy as np

from ..paulis import QubitOperator

__all__ = ["commutator_weight", "trotter_error_bound", "empirical_trotter_error"]


def commutator_weight(h: QubitOperator) -> float:
    """``Σ_{i<j} |c_i||c_j| · ||[P_i, P_j]||`` with ``||[P_i,P_j]|| ∈ {0, 2}``.

    Only anticommuting Pauli pairs contribute; this is the quantity driving
    the first-order Trotter error.  All pairs are evaluated at once on the
    packed symplectic :class:`~repro.paulis.PauliTable`.
    """
    table, coeffs = h.to_table()
    keep = table.weights() > 0  # drop the identity term
    table = table.take(keep)
    c = np.abs(coeffs[keep])
    m = len(c)
    if m < 2:
        return 0.0
    # Chunked accumulation of c·A·c (A = anticommutation matrix): sums every
    # ordered anticommuting pair once, i.e. each unordered pair twice —
    # exactly the 2·Σ_{i<j} weighting above — while keeping peak memory at
    # chunk × m booleans instead of the full m × m matrix.
    total = 0.0
    chunk = 256
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        commute = table.take(slice(lo, hi)).commutation_matrix_with(table)
        total += float(c[lo:hi] @ (~commute @ c))
    return total


def trotter_error_bound(h: QubitOperator, time: float, steps: int) -> float:
    """First-order product-formula bound: ``(t²/2r)·Σ_{i<j}||[H_i,H_j]||``."""
    if steps < 1:
        raise ValueError("need at least one Trotter step")
    return (time * time) / (2.0 * steps) * commutator_weight(h)


def empirical_trotter_error(h: QubitOperator, time: float, steps: int) -> float:
    """Spectral-norm error ``||U_trotter - e^{-iHt}||`` (dense; n ≲ 8)."""
    from scipy.linalg import expm

    from ..circuits import trotter_circuit

    exact = expm(-1j * time * h.to_matrix())
    approx = trotter_circuit(h, time=time, steps=steps).to_matrix()
    # The synthesized circuit equals the product formula up to a global
    # phase; align with the trace inner product before comparing.
    phase = np.trace(exact.conj().T @ approx)
    if abs(phase) > 1e-12:
        approx = approx * (phase.conjugate() / abs(phase))
    return float(np.linalg.norm(approx - exact, ord=2))
