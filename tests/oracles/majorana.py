"""Reference fermion→Majorana expansion (paper Eq. 2), term by term.

This is the direct algorithm :meth:`repro.fermion.MajoranaOperator.
from_fermion_operator` used before its shape-planned kernel: every ladder
operator becomes ``(M_2j ∓ i·M_2j+1) / 2``, each monomial's factors are
multiplied out one operator at a time, and the per-term products are summed
into one accumulator.  It is kept only so tests can check the kernel
against it term for term.

The oracle carries its own merge-sort product rule, so it shares no sign
logic with the code under test.
"""

from __future__ import annotations

from repro.fermion import FermionOperator, MajoranaOperator

Terms = dict[tuple[int, ...], complex]


def merge_product(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Multiply two canonical Majorana monomials by merge-counting inversions.

    Returns ``(canonical_product, ±1)``; indices present in both cancel.
    """
    sign = 1
    merged: list[int] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            # right[j] moves past the remaining left elements.
            if (len(left) - i) % 2 == 1:
                sign = -sign
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    out: list[int] = []
    k = 0
    while k < len(merged):
        if k + 1 < len(merged) and merged[k] == merged[k + 1]:
            k += 2
        else:
            out.append(merged[k])
            k += 1
    return tuple(out), sign


def _add_term(terms: Terms, key: tuple[int, ...], coeff: complex) -> None:
    # MajoranaOperator.add_term: exact zeros leave the dict.
    new = terms.get(key, 0.0) + coeff
    if new == 0:
        terms.pop(key, None)
    else:
        terms[key] = new


def _multiply(left: Terms, right: Terms) -> Terms:
    out: Terms = {}
    for t1, c1 in left.items():
        for t2, c2 in right.items():
            prod, sign = merge_product(t1, t2)
            _add_term(out, prod, sign * c1 * c2)
    return out


def from_fermion_operator(op: FermionOperator) -> MajoranaOperator:
    """Expand ladder monomials through the paper's Eq. (2)."""
    total: Terms = {}
    for actions, coeff in op.terms():
        factor: Terms = {(): coeff}
        for mode, dagger in actions:
            ladder = {(2 * mode,): 0.5, (2 * mode + 1,): -0.5j if dagger else 0.5j}
            factor = _multiply(factor, ladder)
        for key, value in factor.items():
            _add_term(total, key, value)
    return MajoranaOperator(total).simplify()
