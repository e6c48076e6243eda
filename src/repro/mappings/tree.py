"""Complete ternary trees and Pauli-string extraction (paper §III-A).

A complete ternary tree with ``N`` internal nodes has ``2N + 1`` leaves.  Each
internal node is assigned a qubit; each root-to-leaf path spells a Pauli
string: an internal node on the path contributes X, Y or Z on its qubit
according to the branch the path takes, and I otherwise.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..paulis import PauliString

__all__ = [
    "TreeNode",
    "TernaryTree",
    "tree_from_uid_arrays",
    "children_uid_triples",
    "balanced_tree",
    "jw_tree",
    "parity_tree",
]

BRANCHES = ("X", "Y", "Z")


class TreeNode:
    """A node of a ternary tree.

    Internal nodes carry a ``qubit`` index and exactly three children;
    leaves carry a ``leaf_index`` (the Majorana index in HATT's convention).
    """

    __slots__ = ("qubit", "leaf_index", "children", "parent", "branch")

    def __init__(self, qubit: int | None = None, leaf_index: int | None = None):
        self.qubit = qubit
        self.leaf_index = leaf_index
        self.children: dict[str, "TreeNode"] = {}
        self.parent: "TreeNode | None" = None
        self.branch: str | None = None  # branch label from parent to this node

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def attach(self, branch: str, child: "TreeNode") -> None:
        if branch not in BRANCHES:
            raise ValueError(f"invalid branch {branch!r}")
        if branch in self.children:
            raise ValueError(f"branch {branch} already occupied")
        self.children[branch] = child
        child.parent = self
        child.branch = branch

    def desc_z(self) -> "TreeNode":
        """Z-descendant: follow Z branches down to a leaf (paper §IV-B)."""
        node = self
        while not node.is_leaf:
            node = node.children["Z"]
        return node

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"Leaf({self.leaf_index})"
        return f"Internal(q{self.qubit})"


class TernaryTree:
    """A complete ternary tree defining a fermion-to-qubit mapping."""

    def __init__(self, root: TreeNode, n_qubits: int):
        self.root = root
        self.n_qubits = n_qubits
        self._leaves: dict[int, TreeNode] = {}
        self._internals: list[TreeNode] = []
        self._index_nodes()

    def _index_nodes(self) -> None:
        for node in self.iter_nodes():
            if node.is_leaf:
                if node.leaf_index is None:
                    raise ValueError("leaf without leaf_index")
                if node.leaf_index in self._leaves:
                    raise ValueError(f"duplicate leaf index {node.leaf_index}")
                self._leaves[node.leaf_index] = node
            else:
                if node.qubit is None:
                    raise ValueError("internal node without qubit")
                self._internals.append(node)

    def iter_nodes(self) -> Iterator[TreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    @property
    def n_internal(self) -> int:
        return len(self._internals)

    @property
    def n_leaves(self) -> int:
        return len(self._leaves)

    def leaf(self, index: int) -> TreeNode:
        return self._leaves[index]

    def validate(self) -> None:
        """Assert completeness: every internal node has exactly 3 children,
        leaf count is 2·internal + 1, and qubit labels are a permutation."""
        for node in self.iter_nodes():
            if not node.is_leaf and set(node.children) != set(BRANCHES):
                raise ValueError(f"internal node {node} lacks a full X/Y/Z child set")
        if self.n_leaves != 2 * self.n_internal + 1:
            raise ValueError(
                f"tree is not complete: {self.n_internal} internal nodes but "
                f"{self.n_leaves} leaves"
            )
        qubits = sorted(node.qubit for node in self._internals)
        if qubits != list(range(self.n_qubits)):
            raise ValueError("internal-node qubit labels are not 0..N-1")

    # ------------------------------------------------------------------
    # String extraction (paper Fig. 3)
    # ------------------------------------------------------------------
    def string_for_leaf(self, leaf: TreeNode) -> PauliString:
        """Walk from ``leaf`` up to the root collecting branch operators."""
        ops: dict[int, str] = {}
        node = leaf
        while node.parent is not None:
            ops[node.parent.qubit] = node.branch
            node = node.parent
        return PauliString.from_ops(ops, self.n_qubits)

    def strings_by_leaf_index(self) -> list[PauliString]:
        """All ``2N + 1`` strings ordered by leaf index."""
        return [self.string_for_leaf(self._leaves[i]) for i in sorted(self._leaves)]

    def vacuum_pairing(self) -> tuple[list[PauliString], PauliString]:
        """Majorana strings with vacuum-state preservation, plus the discarded string.

        For each internal node ``v`` (enumerated in qubit order), the leaves
        ``descZ(v.X)`` and ``descZ(v.Y)`` give strings sharing an (X, Y) pair
        on ``v.qubit`` while agreeing on ``|0⟩`` elsewhere (all deeper
        operators on the two paths are Z).  Assigning them to ``M_2l`` and
        ``M_2l+1`` yields ``a_l |0…0⟩ = 0`` for every mode ``l``.  The single
        unpaired leaf is ``descZ(root)`` (paper Lemma 1), returned separately.
        """
        strings: list[PauliString] = []
        for v in sorted(self._internals, key=lambda nd: nd.qubit):
            x_leaf = v.children["X"].desc_z()
            y_leaf = v.children["Y"].desc_z()
            strings.append(self.string_for_leaf(x_leaf))
            strings.append(self.string_for_leaf(y_leaf))
        discarded = self.string_for_leaf(self.root.desc_z())
        return strings, discarded


# ----------------------------------------------------------------------
# Bulk construction from uid arrays
# ----------------------------------------------------------------------
def tree_from_uid_arrays(
    children: Sequence[Sequence[int]], n_modes: int
) -> TernaryTree:
    """Bulk-build a complete ternary tree from per-qubit child-uid triples.

    ``children[q]`` holds the ``(X, Y, Z)`` child uids of qubit ``q``'s
    internal node under the bottom-up uid numbering used by the HATT
    construction: uids ``0..2·n_modes`` are leaves (uid == leaf index) and
    uid ``2·n_modes + 1 + q`` is qubit ``q``'s node.  All nodes are allocated
    up front and wired in one pass, so the construction kernel can work purely
    on integer arrays and export the :class:`TreeNode` structure at the end.

    The root is the unique parentless node; callers should still
    :meth:`TernaryTree.validate` the result.
    """
    if len(children) != n_modes:
        raise ValueError(
            f"expected {n_modes} child triples for {n_modes} modes, got {len(children)}"
        )
    n_leaves = 2 * n_modes + 1
    nodes = [TreeNode(leaf_index=i) for i in range(n_leaves)]
    nodes.extend(TreeNode(qubit=q) for q in range(n_modes))
    for q, triple in enumerate(children):
        if len(triple) != 3:
            raise ValueError(f"qubit {q} has {len(triple)} children, expected 3")
        parent = nodes[n_leaves + q]
        for branch, uid in zip(BRANCHES, triple):
            uid = int(uid)
            if not 0 <= uid < len(nodes):
                raise ValueError(f"qubit {q} references unknown uid {uid}")
            parent.attach(branch, nodes[uid])
    roots = [node for node in nodes if node.parent is None]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root, found {len(roots)}")
    return TernaryTree(roots[0], n_modes)


def children_uid_triples(tree: TernaryTree) -> list[tuple[int, int, int]]:
    """Inverse of :func:`tree_from_uid_arrays`: per-qubit (X, Y, Z) child uids.

    Works for any complete ternary tree whose internal qubit labels are
    ``0..N-1``: a leaf's uid is its ``leaf_index`` and internal node ``q``'s
    uid is ``2N + 1 + q``, so
    ``tree_from_uid_arrays(children_uid_triples(t), t.n_internal)``
    reconstructs a tree with identical topology and Pauli strings.  This is
    the compact topology form embedded in schema-v2 mapping artifacts.
    """
    n_leaves = 2 * tree.n_internal + 1

    def uid(node: TreeNode) -> int:
        return node.leaf_index if node.is_leaf else n_leaves + node.qubit

    triples: dict[int, tuple[int, int, int]] = {}
    for node in tree.iter_nodes():
        if not node.is_leaf:
            triples[node.qubit] = tuple(uid(node.children[b]) for b in BRANCHES)
    if sorted(triples) != list(range(tree.n_internal)):
        raise ValueError("internal-node qubit labels are not 0..N-1")
    return [triples[q] for q in range(tree.n_internal)]


# ----------------------------------------------------------------------
# Stock tree builders
# ----------------------------------------------------------------------
def balanced_tree(n_modes: int) -> TernaryTree:
    """The balanced (minimum-depth) complete ternary tree of [Jiang et al.].

    Internal nodes fill positions 0..N-1 in BFS order (node ``k``'s children
    sit at ``3k+1, 3k+2, 3k+3``); positions ≥ N become leaves, numbered in BFS
    order.  Majorana assignment for this tree comes from
    :meth:`TernaryTree.vacuum_pairing`, which ignores leaf numbering.
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    n = n_modes
    nodes = [TreeNode(qubit=k) for k in range(n)]
    leaf_count = 0
    all_positions: list[TreeNode] = list(nodes)
    for k in range(n):
        for b, pos in zip(BRANCHES, (3 * k + 1, 3 * k + 2, 3 * k + 3)):
            if pos < n:
                child = all_positions[pos]
            else:
                child = TreeNode(leaf_index=leaf_count)
                leaf_count += 1
                all_positions.append(child)
            nodes[k].attach(b, child)
    # Renumber leaves in BFS position order so indices increase left-to-right.
    tree = TernaryTree(nodes[0], n)
    tree.validate()
    return tree


def jw_tree(n_modes: int) -> TernaryTree:
    """The degenerate 'caterpillar' tree whose mapping equals Jordan–Wigner.

    Internal node at depth ``d`` is qubit ``d``; its X and Y children are
    leaves ``2d`` and ``2d+1`` and its Z child is the next internal node
    (the deepest node's Z child is leaf ``2N``).
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    internals = [TreeNode(qubit=d) for d in range(n_modes)]
    for d, node in enumerate(internals):
        node.attach("X", TreeNode(leaf_index=2 * d))
        node.attach("Y", TreeNode(leaf_index=2 * d + 1))
        if d + 1 < n_modes:
            node.attach("Z", internals[d + 1])
        else:
            node.attach("Z", TreeNode(leaf_index=2 * n_modes))
    tree = TernaryTree(internals[0], n_modes)
    tree.validate()
    return tree


def parity_tree(n_modes: int) -> TernaryTree:
    """Caterpillar tree descending along X branches: the parity mapping.

    Mirror image of :func:`jw_tree` — the running chain uses X branches, so
    strings accumulate X (occupation-parity propagation) instead of Z.
    Internal node at depth ``d`` is qubit ``n-1-d`` so that qubit ``j`` stores
    the parity of modes ``0..j`` (matching the textbook parity transform).
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    internals = [TreeNode(qubit=n_modes - 1 - d) for d in range(n_modes)]
    for d, node in enumerate(internals):
        node.attach("Z", TreeNode(leaf_index=2 * (n_modes - 1 - d)))
        node.attach("Y", TreeNode(leaf_index=2 * (n_modes - 1 - d) + 1))
        if d + 1 < n_modes:
            node.attach("X", internals[d + 1])
        else:
            node.attach("X", TreeNode(leaf_index=2 * n_modes))
    tree = TernaryTree(internals[0], n_modes)
    tree.validate()
    return tree
