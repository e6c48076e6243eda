"""Reference SWAP router: per-candidate dict scans over the lookahead window.

This is the engine :func:`repro.circuits.route_circuit` ran before its
weighted-pair-multiset kernel.  Each SWAP decision scores every
distance-reducing candidate edge with the float
``d_front + Σ_k w_k/32 · d_k`` over every window position, re-deriving each
future pair's positions under the candidate swap.  All weights are exact
binary fractions and every partial sum stays far below 2^53, so the float
arithmetic is exact; the kernel's integer scores are 32x these, so the two
must rank every candidate identically and emit the same gates.

The oracle reuses the public :func:`~repro.circuits.routing.initial_layout`
and :func:`~repro.circuits.routing.distance_matrix` (the placement and the
metric are shared inputs, not the decision rule under test).
"""

from __future__ import annotations

from repro.circuits import Circuit, Gate
from repro.circuits.routing import (
    DEFAULT_LOOKAHEAD,
    RoutedCircuit,
    distance_matrix,
    initial_layout,
)

#: Lookahead weight of window offset ``k`` relative to the front gate:
#: ``[0, 4)`` → 8/32, ``[4, 16)`` → 4/32, ``[16, 64)`` → 2/32, rest → 1/32.
_TIERS = ((4, 8), (16, 4), (64, 2))


def _weight(k: int) -> float:
    for bound, weight in _TIERS:
        if k < bound:
            return weight / 32
    return 1 / 32


def route_circuit(
    circuit: Circuit, graph, lookahead: int = DEFAULT_LOOKAHEAD
) -> RoutedCircuit:
    """Route ``circuit`` onto ``graph`` one scored candidate at a time."""
    dist = distance_matrix(graph)
    d = {v: {u: int(x) for u, x in enumerate(row)} for v, row in enumerate(dist)}
    adj = [sorted(graph.neighbors(v)) for v in range(graph.number_of_nodes())]
    weights = [_weight(k) for k in range(lookahead)]
    layout = initial_layout(circuit, graph)
    phys_of = dict(layout)
    logical_of = {p: q for q, p in phys_of.items()}
    pairs = [g.qubits for g in circuit.gates if len(g.qubits) == 2]
    out = Circuit(graph.number_of_nodes())

    def swap(p1: int, p2: int) -> None:
        out.gates.append(Gate("swap", (p1, p2)))
        l1, l2 = logical_of.get(p1), logical_of.get(p2)
        if l1 is not None:
            phys_of[l1] = p2
        if l2 is not None:
            phys_of[l2] = p1
        logical_of[p1], logical_of[p2] = l2, l1

    t = 0  # index of the current gate within the two-qubit sequence
    for gate in circuit.gates:
        if len(gate.qubits) == 1:
            out.gates.append(Gate(gate.name, (phys_of[gate.qubits[0]],), gate.params))
            continue
        window = pairs[t + 1 : t + 1 + lookahead]
        t += 1
        a, b = gate.qubits
        while d[phys_of[a]][phys_of[b]] > 1:
            pa, pb = phys_of[a], phys_of[b]
            best, best_score = None, None
            for anchor, other in ((pa, pb), (pb, pa)):
                for nb in adj[anchor]:
                    base = d[nb][other]
                    if base >= d[anchor][other]:
                        continue
                    score = float(base)
                    for k, (la, lb) in enumerate(window):
                        qa, qb = phys_of[la], phys_of[lb]
                        # Where this future pair sits after the candidate swap.
                        qa = nb if qa == anchor else anchor if qa == nb else qa
                        qb = nb if qb == anchor else anchor if qb == nb else qb
                        score += weights[k] * d[qa][qb]
                    if best_score is None or score < best_score:
                        best_score, best = score, (anchor, nb)
            assert best is not None, "no distance-reducing swap found"
            swap(*best)
        out.gates.append(Gate(gate.name, (phys_of[a], phys_of[b]), gate.params))
    return RoutedCircuit(out, layout, dict(phys_of))
