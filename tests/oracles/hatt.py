"""Reference HATT construction (paper Algorithms 1–3), one candidate at a time.

This is the per-candidate scan :class:`repro.hatt.HattConstruction` ran
before its broadcast kernels: every working-set node keeps its
term-membership mask as a Python big-int, the candidates of a selection step
are scored one by one in ``itertools.combinations`` order (Algorithm 1) or
as an ``O_X``-then-``O_Z`` double loop (Algorithms 2/3), and the tree is
grown from linked :class:`~repro.mappings.tree.TreeNode` objects.  With
``cached=False`` the Z-descendant and pair-partner lookups walk those nodes
explicitly (Algorithm 2); with ``cached=True`` they read the ``mdown``/
``mup`` dicts (Algorithm 3).

With a coupling graph (``hatt-arch``) the scan key is the blended integer
score ``SCALE·weight + round(arch_weight·SCALE)·penalty`` and every new
internal node is anchored by the greedy rule below, written out here so the
kernel's anchor bookkeeping is checked against an independent copy.

The oracle shares no state or private helper with the kernel; tests assert
the two produce the same trace and the same tree.
"""

from __future__ import annotations

from itertools import combinations

from repro.circuits.routing import distance_matrix
from repro.fermion import FermionOperator, MajoranaOperator, majorana_form
from repro.hatt import ARCH_WEIGHT_SCALE, DEFAULT_ARCH_WEIGHT
from repro.mappings import FermionQubitMapping
from repro.mappings.tree import TernaryTree, TreeNode


class HattOracle:
    """Scalar twin of :class:`repro.hatt.HattConstruction` (same arguments,
    minus ``memory_budget``; same ``trace``/``step_weights``/``run()``)."""

    def __init__(
        self,
        hamiltonian: MajoranaOperator,
        n_modes: int,
        vacuum: bool = True,
        cached: bool = True,
        graph=None,
        arch_weight: float | None = None,
    ):
        self.n = n_modes
        self.vacuum = vacuum
        self.cached = cached
        self.trace: list[tuple[int, tuple[int, int, int], int]] = []
        n_leaves = 2 * n_modes + 1
        self.nodes = [TreeNode(leaf_index=i) for i in range(n_leaves)]
        self.uid_of = {id(node): uid for uid, node in enumerate(self.nodes)}
        self.masks = [0] * n_leaves
        for t, term in enumerate(hamiltonian.support_terms()):
            for idx in term:
                self.masks[idx] |= 1 << t
        # Removals keep order and each new parent has the largest uid, so the
        # working list is always uid-sorted.
        self.working = list(range(n_leaves))
        self.mdown = {i: i for i in range(n_leaves)}
        self.mup = {i: i for i in range(n_leaves)}
        self.graph = graph
        if graph is None:
            self.aw = 0
            return
        weight = DEFAULT_ARCH_WEIGHT if arch_weight is None else float(arch_weight)
        self.aw = int(round(weight * ARCH_WEIGHT_SCALE))
        self.dist = distance_matrix(graph).tolist()
        self.rank = sorted(graph.nodes, key=lambda v: (-graph.degree[v], v))
        self.used: set[int] = set()
        self.anchor: dict[int, int] = {}

    # ------------------------------------------------------------------
    def weight(self, a: int, b: int, c: int) -> int:
        """Pauli weight the triple leaves on the new qubit."""
        ma, mb, mc = self.masks[a], self.masks[b], self.masks[c]
        return ((ma | mb | mc) & ~(ma & mb & mc)).bit_count()

    def penalty(self, a: int, b: int, c: int) -> int:
        """Summed ``max(dist - 1, 0)`` over the anchored pairs of the triple."""
        anchors = [self.anchor[u] for u in (a, b, c) if u in self.anchor]
        return sum(
            max(self.dist[p][q] - 1, 0) for p, q in combinations(anchors, 2)
        )

    def place(self, parent: int, children: tuple[int, int, int]) -> None:
        """Anchor a new internal node: the free physical qubit closest (summed
        distance) to its anchored children, else the highest-rank free one;
        earlier rank wins every tie."""
        anchored = [self.anchor[u] for u in children if u in self.anchor]
        free = [p for p in self.rank if p not in self.used]
        if anchored:
            best = min(free, key=lambda p: sum(self.dist[p][q] for q in anchored))
        else:
            best = free[0]
        self.used.add(best)
        self.anchor[parent] = best

    # ------------------------------------------------------------------
    def desc_z(self, uid: int) -> int:
        if self.cached:
            return self.mdown[uid]
        return self.nodes[uid].desc_z().leaf_index

    def owner(self, leaf: int) -> int:
        """The working-set node whose subtree holds ``leaf``."""
        if self.cached:
            return self.mup[leaf]
        node, uid = self.nodes[leaf], leaf
        while uid not in self.working:
            node = node.parent
            uid = self.uid_of[id(node)]
        return uid

    def select_free(self) -> tuple[tuple[int, int, int], int]:
        arch = self.graph is not None
        best = best_s = best_w = None
        for a, b, c in combinations(self.working, 3):
            w = self.weight(a, b, c)
            s = ARCH_WEIGHT_SCALE * w + self.aw * self.penalty(a, b, c) if arch else w
            if best_s is None or s < best_s:
                best, best_s, best_w = (a, b, c), s, w
                if s == 0:
                    break
        return best, best_w

    def select_paired(self) -> tuple[tuple[int, int, int], int]:
        arch = self.graph is not None
        best = best_s = best_w = None
        for ox in self.working:
            x_leaf = self.desc_z(ox)
            if x_leaf == 2 * self.n:
                continue  # the discarded string never pairs
            oy = self.owner(x_leaf ^ 1)
            if oy == ox:
                continue
            cx, cy = (ox, oy) if x_leaf % 2 == 0 else (oy, ox)
            for oz in self.working:
                if oz in (ox, oy):
                    continue
                w = self.weight(cx, cy, oz)
                s = (
                    ARCH_WEIGHT_SCALE * w + self.aw * self.penalty(cx, cy, oz)
                    if arch
                    else w
                )
                if best_s is None or s < best_s:
                    best, best_s, best_w = (cx, cy, oz), s, w
                    if s == 0:
                        break
            if best_s == 0:
                break
        if best is None:
            raise RuntimeError("no valid (O_X, O_Z) selection")
        return best, best_w

    def reduce(self, qubit: int, children: tuple[int, int, int]) -> None:
        cx, cy, cz = children
        uid = len(self.nodes)
        parent = TreeNode(qubit=qubit)
        for branch, child in zip("XYZ", children):
            parent.attach(branch, self.nodes[child])
        self.nodes.append(parent)
        self.uid_of[id(parent)] = uid
        self.masks.append(self.masks[cx] ^ self.masks[cy] ^ self.masks[cz])
        for child in children:
            self.working.remove(child)
        self.working.append(uid)
        self.mdown[uid] = self.mdown[cz]
        self.mup[self.mdown[cz]] = uid
        if self.graph is not None:
            self.place(uid, children)

    def run(self) -> TernaryTree:
        select = self.select_paired if self.vacuum else self.select_free
        for qubit in range(self.n):
            children, w = select()
            self.trace.append((qubit, children, w))
            self.reduce(qubit, children)
        (root,) = self.working
        tree = TernaryTree(self.nodes[root], self.n)
        tree.validate()
        return tree

    @property
    def step_weights(self) -> list[int]:
        return [w for _, _, w in self.trace]


def hatt_mapping(
    hamiltonian: FermionOperator | MajoranaOperator,
    n_modes: int | None = None,
    vacuum: bool = True,
    cached: bool = True,
    graph=None,
    arch_weight: float | None = None,
) -> FermionQubitMapping:
    """:func:`repro.hatt.hatt_mapping` built on the oracle."""
    majorana = majorana_form(hamiltonian)
    if n_modes is None:
        n_modes = majorana.n_modes
    oracle = HattOracle(
        majorana, n_modes, vacuum=vacuum, cached=cached, graph=graph,
        arch_weight=arch_weight,
    )
    strings = oracle.run().strings_by_leaf_index()
    base = "HATT-arch" if graph is not None else "HATT"
    name = base if vacuum else base + "-unopt"
    mapping = FermionQubitMapping(strings[:-1], name=name, discarded=strings[-1])
    mapping.construction = oracle
    return mapping
