"""SWAP-insertion routing onto constrained architectures (Tetris stand-in).

SABRE-style lightweight router: logical qubits get an initial placement that
puts heavily-interacting logicals on high-degree physicals; every CX whose
endpoints are not adjacent triggers SWAPs along a shortest path, choosing at
each step the move that also helps upcoming gates.

Lookahead model: the window is the next ``lookahead`` two-qubit gates with
*decaying* integer weights — offsets ``[0, 4)`` weigh 8, ``[4, 16)`` weigh 4,
``[16, 64)`` weigh 2 and the rest weigh 1, with the front gate itself at 32.
Near-term gates dominate (routing quality matches a short uniform window)
while the long tail still breaks ties toward globally useful SWAPs.

Engine: decisions come from an incrementally maintained *weighted pair
multiset*.  Trotter circuits repeat the same logical pairs constantly, so
the ``lookahead``-gate window collapses to a bounded set of (pair, weight)
slots, and each SWAP decision scores all candidate edges against all slots
as one integer ``(2, max_degree, K)`` kernel over the cached all-pairs
distance matrix; decision cost is independent of the window length.  The
integer scores are exactly 32x the float score ``d_front + Σ_k w_k/32 · d_k``
of a per-candidate dict scan over every window position — the reference
router in ``tests/oracles/routing.py``, which the property suite and the
Table IV bench hold bit-identical to this engine.

Determinism: candidate swap edges are enumerated in sorted order (front-gate
endpoints in gate order, neighbours ascending) and ties always break toward
the first candidate, so routing the same circuit twice yields the same gate
sequence.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter as _perf_counter

import networkx as nx
import numpy as np

from .circuit import Circuit
from .gates import Gate

__all__ = [
    "route_circuit",
    "RoutedCircuit",
    "initial_layout",
    "distance_matrix",
    "DEFAULT_LOOKAHEAD",
]

#: Default lookahead horizon (number of upcoming two-qubit gates scored per
#: candidate SWAP).  Deep horizons are nearly free: the weighted-multiset
#: kernel is O(distinct pairs), not O(horizon).
DEFAULT_LOOKAHEAD = 256

#: Decay schedule: window offsets below ``_TIER_BOUNDS[i]`` get weight
#: ``_TIER_WEIGHTS[i]``; offsets past the last bound get the final weight.
#: The front gate weighs ``_FRONT_WEIGHT``.
_TIER_BOUNDS = (4, 16, 64)
_TIER_WEIGHTS = (8, 4, 2, 1)
_FRONT_WEIGHT = 32

#: Graph-attribute slots caching per-architecture routing tables.
_DIST_KEY = "_repro_distance_matrix"
_ADJ_KEY = "_repro_sorted_adjacency"
_ADJM_KEY = "_repro_padded_adjacency"

#: Sentinel score for masked-out candidates; larger than any reachable score.
_SCORE_INF = np.int64(1) << 40


def _offset_weight(k: int) -> int:
    """Integer lookahead weight of the window gate at offset ``k``."""
    for bound, weight in zip(_TIER_BOUNDS, _TIER_WEIGHTS):
        if k < bound:
            return weight
    return _TIER_WEIGHTS[-1]


class RoutedCircuit:
    """Routing result: hardware circuit + layout bookkeeping."""

    def __init__(self, circuit: Circuit, initial: dict[int, int], final: dict[int, int]):
        self.circuit = circuit
        self.initial_layout = initial  # logical -> physical
        self.final_layout = final

    @property
    def cx_count(self) -> int:
        return self.circuit.cx_count

    @property
    def swap_count(self) -> int:
        return self.circuit.count("swap")

    def depth(self) -> int:
        return self.circuit.depth()


def _graph_signature(graph: nx.Graph) -> tuple[int, int]:
    """Cheap structural fingerprint: node count + hashed sorted edge set.

    O(E log E) per call — negligible against the BFS sweep it guards — and
    it changes whenever the graph gains/loses nodes or edges, so tables
    cached before a mutation are recomputed instead of silently reused.
    """
    edges = tuple(sorted((u, v) if u <= v else (v, u) for u, v in graph.edges))
    return (graph.number_of_nodes(), hash(edges))


def _cached_table(graph: nx.Graph, key: str, build):
    """Signature-validated memo slot on ``graph.graph[key]``."""
    sig = _graph_signature(graph)
    cached = graph.graph.get(key)
    if cached is not None and cached[0] == sig:
        return cached[1]
    value = build()
    graph.graph[key] = (sig, value)
    return value


def distance_matrix(graph: nx.Graph) -> np.ndarray:
    """All-pairs shortest-path distances as an ``(n, n)`` int32 matrix.

    Cached on ``graph.graph`` keyed by the graph's structural signature, so
    every route onto one architecture instance pays the BFS sweep once — the
    compilation pipeline reuses one graph per architecture across its whole
    mapping sweep — while mutating the graph afterwards invalidates the
    entry instead of serving stale distances.  Nodes must be the integers
    ``0..n-1`` (all :mod:`.architectures` graphs are).
    """

    def build() -> np.ndarray:
        n = graph.number_of_nodes()
        if sorted(graph.nodes) != list(range(n)):
            raise ValueError("coupling-graph nodes must be the integers 0..n-1")
        dist = np.full((n, n), -1, dtype=np.int32)
        for src, lengths in nx.all_pairs_shortest_path_length(graph):
            for dst, d in lengths.items():
                dist[src, dst] = d
        if (dist < 0).any():
            raise ValueError("coupling graph must be connected")
        return dist

    return _cached_table(graph, _DIST_KEY, build)


def _sorted_adjacency(graph: nx.Graph) -> list[list[int]]:
    """Per-node neighbour lists in ascending order (cached on the graph)."""
    return _cached_table(
        graph,
        _ADJ_KEY,
        lambda: [sorted(graph.neighbors(v)) for v in range(graph.number_of_nodes())],
    )


def _padded_adjacency(graph: nx.Graph) -> np.ndarray:
    """Sorted adjacency as an ``(n, max_degree)`` matrix, rows padded with
    the node itself (self-entries never reduce the front distance, so the
    candidate filter drops them)."""

    def build() -> np.ndarray:
        adj = _sorted_adjacency(graph)
        n = graph.number_of_nodes()
        width = max(len(row) for row in adj)
        mat = np.empty((n, width), dtype=np.int32)
        for v, row in enumerate(adj):
            mat[v, : len(row)] = row
            mat[v, len(row) :] = v
        return mat

    return _cached_table(graph, _ADJM_KEY, build)


def initial_layout(circuit: Circuit, graph: nx.Graph) -> dict[int, int]:
    """Greedy placement: most-interacting logical pairs onto adjacent,
    high-degree physical qubits.  Fully deterministic: nodes are ranked by
    ``(-degree, node)``, hot pairs by ``(-count, pair)``, and neighbourhoods
    scanned in ascending order."""
    pair_usage = Counter()
    for gate in circuit.gates:
        if len(gate.qubits) == 2:
            pair_usage[tuple(sorted(gate.qubits))] += 1
    nodes_by_degree = sorted(graph.nodes, key=lambda v: (-graph.degree[v], v))
    layout: dict[int, int] = {}
    used: set[int] = set()
    hot_pairs = sorted(pair_usage.items(), key=lambda item: (-item[1], item[0]))
    for (a, b), _ in hot_pairs:
        if a in layout and b in layout:
            continue
        if a not in layout and b not in layout:
            # Find an adjacent free pair, preferring high degree.
            placed = False
            for u in nodes_by_degree:
                if u in used:
                    continue
                for v in sorted(graph.neighbors(u)):
                    if v not in used:
                        layout[a], layout[b] = u, v
                        used.update((u, v))
                        placed = True
                        break
                if placed:
                    break
        else:
            anchor, free = (a, b) if a in layout else (b, a)
            for v in sorted(graph.neighbors(layout[anchor])):
                if v not in used:
                    layout[free] = v
                    used.add(v)
                    break
    # Any remaining logicals (including idle ones) go to leftover physicals.
    for q in range(circuit.n_qubits):
        if q not in layout:
            spot = next(v for v in nodes_by_degree if v not in used)
            layout[q] = spot
            used.add(spot)
    return layout


def route_circuit(
    circuit: Circuit,
    graph: nx.Graph,
    lookahead: int = DEFAULT_LOOKAHEAD,
) -> RoutedCircuit:
    """Map ``circuit`` onto ``graph``; inserted SWAPs count as 3 CX.

    Output gates act on *physical* qubit indices.  The final layout records
    where each logical ended up (routing permutes qubits; semantics are
    preserved modulo that output permutation).
    """
    if lookahead < 0:
        raise ValueError(f"lookahead must be non-negative, got {lookahead}")
    if circuit.n_qubits > graph.number_of_nodes():
        raise ValueError(
            f"{circuit.n_qubits} logical qubits exceed the architecture's "
            f"{graph.number_of_nodes()}"
        )
    dist = distance_matrix(graph)  # also validates node labels + connectivity
    layout = initial_layout(circuit, graph)
    started = _perf_counter()
    routed = _route(circuit, graph, dist, layout, lookahead)
    from ..obs.metrics import get_registry

    get_registry().histogram(
        "repro_routing_seconds",
        help="Wall time of SWAP-insertion routing runs.",
    ).observe(_perf_counter() - started)
    return routed


def _two_qubit_pairs(circuit: Circuit) -> list[tuple[int, ...]]:
    return [g.qubits for g in circuit.gates if len(g.qubits) == 2]


_GATE_NEW = Gate.__new__
_SET = object.__setattr__


def _relabel(gate: Gate, qubits: tuple[int, ...]) -> Gate:
    """Trusted Gate construction for the emission hot path.

    Bypasses dataclass validation: the name/params come from an already
    validated gate and the qubits are in-range physical indices by
    construction.
    """
    g = _GATE_NEW(Gate)
    _SET(g, "name", gate.name)
    _SET(g, "qubits", qubits)
    _SET(g, "params", gate.params)
    return g


def _swap_gate(p1: int, p2: int) -> Gate:
    g = _GATE_NEW(Gate)
    _SET(g, "name", "swap")
    _SET(g, "qubits", (p1, p2))
    _SET(g, "params", ())
    return g


class _WeightedWindow:
    """Sliding lookahead window as a weighted logical-pair multiset.

    Distinct pairs get stable slots (zero-weight slots score zero, so slots
    are never compacted); sliding the window only bumps per-slot integer
    weights in a plain Python list.  The numpy views the scoring kernel
    needs are materialized lazily — most gates route without any SWAP, so
    they never pay for an array build.  Total slot count is bounded by the
    number of distinct two-qubit pairs in the circuit — for Trotter ladders
    that is O(n_qubits), far below the horizon length.
    """

    def __init__(self, pairs: list[tuple[int, ...]], horizon: int):
        self.pairs = pairs
        self.horizon = horizon
        self.slot_of: dict[tuple[int, ...], int] = {}
        self.endpoints: list[int] = []  # slot i at [i] and [n + i] once baked
        self.weights: list[int] = []
        self._la: list[int] = []
        self._lb: list[int] = []
        self._baked: tuple[np.ndarray, np.ndarray] | None = None
        # Weight bumps when the window slides one gate: the head leaves at
        # full near weight; pairs crossing a tier bound gain the difference.
        self.transitions = [
            (bound, _offset_weight(bound - 1) - _offset_weight(bound))
            for bound in _TIER_BOUNDS
            if bound < horizon
        ]
        self.tail_weight = _offset_weight(horizon - 1)
        for offset, pair in enumerate(pairs[1 : 1 + horizon]):
            self._bump(pair, _offset_weight(offset))

    def _bump(self, pair: tuple[int, ...], delta: int) -> None:
        slot = self.slot_of.get(pair)
        if slot is None:
            self.slot_of[pair] = len(self.weights)
            self._la.append(pair[0])
            self._lb.append(pair[1])
            self.weights.append(delta)
        else:
            self.weights[slot] += delta
        self._baked = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint index array ``[la..., lb...]`` and the weight vector."""
        if self._baked is None:
            self._baked = (
                np.array(self._la + self._lb, dtype=np.int32),
                np.array(self.weights, dtype=np.int64),
            )
        return self._baked

    def advance(self, t: int) -> None:
        """Slide from front-gate index ``t`` to ``t + 1``."""
        pairs, n = self.pairs, len(self.pairs)
        head = t + 1
        if head < n:
            self._bump(pairs[head], -_TIER_WEIGHTS[0])
        for bound, gain in self.transitions:
            idx = t + 1 + bound
            if idx < n:
                self._bump(pairs[idx], gain)
        tail = t + 1 + self.horizon
        if tail < n:
            self._bump(pairs[tail], self.tail_weight)


def _route(
    circuit: Circuit,
    graph: nx.Graph,
    dist: np.ndarray,
    layout: dict[int, int],
    lookahead: int,
) -> RoutedCircuit:
    """Route ``circuit`` from ``layout``.

    Layout bookkeeping stays in plain Python (a list mirror of the numpy
    position array — single-element numpy indexing is slower than list
    access), while each SWAP decision runs as one batched integer kernel:
    every candidate edge is scored against every weighted window slot at
    once, so the decision cost does not grow with the lookahead horizon.
    """
    d: list[list[int]] = dist.tolist()
    adj = _sorted_adjacency(graph)
    adjm = _padded_adjacency(graph)
    n_logical = circuit.n_qubits
    phys_list = [0] * n_logical
    for q, p in layout.items():
        phys_list[q] = p
    phys_np = np.array(phys_list, dtype=np.int32)
    logical_of: dict[int, int] = {p: q for q, p in layout.items()}
    pairs = _two_qubit_pairs(circuit)
    window = _WeightedWindow(pairs, lookahead)
    out_gates: list[Gate] = []

    # Reusable per-decision index buffers (the cube is a view of the column
    # buffer, so the scalar assignments below update both).
    anchor_col = np.empty((2, 1), dtype=np.int32)
    other_col = np.empty((2, 1), dtype=np.int32)
    anchor_cube = anchor_col[:, :, None]

    t = 0
    for gate in circuit.gates:
        if len(gate.qubits) == 1:
            out_gates.append(_relabel(gate, (phys_list[gate.qubits[0]],)))
            continue
        a, b = gate.qubits
        while d[phys_list[a]][phys_list[b]] > 1:
            pa, pb = phys_list[a], phys_list[b]
            front = d[pa][pb]
            # Cheap pre-scan: with a single distance-reducing edge there is
            # nothing to score (it wins unconditionally).
            sole = None
            n_candidates = 0
            for anchor, other in ((pa, pb), (pb, pa)):
                row = d[other]
                for nb_ in adj[anchor]:
                    if row[nb_] < front:
                        n_candidates += 1
                        sole = (anchor, nb_)
            if n_candidates == 1:
                p1, p2 = sole
            else:
                anchor_col[0, 0] = pa
                anchor_col[1, 0] = pb
                other_col[0, 0] = pb
                other_col[1, 0] = pa
                win_ab, win_w = window.arrays()
                nbs = adjm[(pa, pb), :]  # (2, M), padded with self
                base = dist[nbs, other_col]  # (2, M)
                keep = base < front
                nb_cube = nbs[:, :, None]  # (2, M, 1)
                pos = phys_np[win_ab]  # (2K,): la positions then lb positions
                pos2 = np.where(pos == anchor_cube, nb_cube, pos)
                pos2 = np.where(pos == nb_cube, anchor_cube, pos2)
                half = win_w.shape[0]
                future = dist[pos2[:, :, :half], pos2[:, :, half:]] @ win_w
                scores = np.where(
                    keep, base * _FRONT_WEIGHT + future, _SCORE_INF
                )
                k = int(np.argmin(scores))  # first minimum breaks ties
                p1 = (pa, pb)[k // nbs.shape[1]]
                p2 = int(nbs.flat[k])
            out_gates.append(_swap_gate(p1, p2))
            l1, l2 = logical_of.get(p1), logical_of.get(p2)
            if l1 is not None:
                phys_list[l1] = p2
                phys_np[l1] = p2
            if l2 is not None:
                phys_list[l2] = p1
                phys_np[l2] = p1
            logical_of[p1], logical_of[p2] = l2, l1
        out_gates.append(_relabel(gate, (phys_list[a], phys_list[b])))
        window.advance(t)
        t += 1

    out = Circuit(graph.number_of_nodes())
    out.gates = out_gates  # trusted: every index is a valid physical qubit
    final = {q: phys_list[q] for q in range(n_logical)}
    return RoutedCircuit(out, layout, final)
