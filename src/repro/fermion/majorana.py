"""Majorana-operator algebra.

The 2N Majorana operators of an N-mode fermionic system satisfy

    {M_i, M_j} = 2 δ_ij,    M_i† = M_i,    M_i² = 1,

and relate to the ladder operators by the paper's Eq. (2):

    a†_j = (M_2j - i·M_2j+1) / 2,      a_j = (M_2j + i·M_2j+1) / 2.

A :class:`MajoranaOperator` stores a weighted sum of *Majorana monomials*;
each monomial is a strictly-increasing tuple of Majorana indices (the product
``M_{i1} M_{i2} …`` in ascending order).  Reordering an arbitrary product into
this canonical form contributes a sign from anticommutation and removes
squared factors.  One rule does that reordering everywhere in this module:
with the monomial held as an index bitmask, right-multiplying by ``M_i``
flips bit ``i`` and negates when an odd number of set bits lie above ``i``.

**Expansion kernel.**  :meth:`MajoranaOperator.from_fermion_operator` plans
by term *shape*: a ladder monomial's dagger flags plus the relative order of
its modes.  A degree-k shape expands to at most 2^k Majorana monomials; its
plan, built once through the bitmask rule and kept in a bounded
``lru_cache``, lists the survivors in canonical order with their exact
relative coefficients (± powers of ½, real or imaginary).  A term then costs
one key rebuild and one in-place accumulate per survivor.  Entries that sum
to exactly zero leave the accumulator, as with :meth:`MajoranaOperator.
add_term`, and the result is simplified at the end.  Coefficients come out
as Python ``complex``.

**Memo.**  :func:`majorana_form` is the call-side entry point: it memoizes
the expansion on the ``FermionOperator`` (its ``_majorana`` slot, cleared by
``add_term``; ``copy()`` and arithmetic results start without one), so
HATT construction and mapping share one expansion.  The memoized operator is
shared: callers must treat it as read-only.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .operators import FermionOperator

__all__ = ["MajoranaOperator", "majorana_form", "normal_order_majorana_product"]

_COEFF_TOLERANCE = 1e-12


def _times_majorana(mask: int, index: int) -> tuple[int, int]:
    """Right-multiply the canonical monomial ``mask`` by ``M_index``.

    ``mask`` holds the monomial's indices as set bits.  ``M_index`` moves
    left past every factor above it, one sign flip each, and cancels against
    an equal factor (``M² = 1``).  Returns ``(new_mask, ±1)``.
    """
    sign = -1 if (mask >> (index + 1)).bit_count() & 1 else 1
    return mask ^ (1 << index), sign


def _walk(mask: int, indices: Iterable[int]) -> tuple[int, int]:
    """Right-multiply ``mask`` by each ``M_i`` in turn; returns ``(mask, ±1)``."""
    sign = 1
    for index in indices:
        mask, step = _times_majorana(mask, index)
        sign *= step
    return mask, sign


def _mask_indices(mask: int) -> tuple[int, ...]:
    """Set bits of ``mask`` in ascending order (the canonical monomial)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def normal_order_majorana_product(
    left: tuple[int, ...], right: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """Multiply two canonical (sorted, duplicate-free) Majorana monomials.

    Returns ``(canonical_product, sign)`` where ``sign ∈ {+1, -1}`` accounts
    for the anticommutations needed to merge-sort the concatenation, and
    indices appearing in both factors cancel (``M² = 1``).
    """
    mask, sign = _walk(sum(1 << i for i in left), right)
    return _mask_indices(mask), sign


def _key_getter(positions: tuple[int, ...]) -> Callable[[list[int]], tuple[int, ...]]:
    # itemgetter returns a bare item for one position and needs at least one.
    if not positions:
        return lambda base: ()
    if len(positions) == 1:
        (p,) = positions
        return lambda base: (base[p],)
    return itemgetter(*positions)


#: One plan entry: (key builder over the term's Majorana base, relative coefficient).
_PlanEntry = tuple[Callable[[list[int]], tuple[int, ...]], complex]


@functools.lru_cache(maxsize=4096)
def _expansion_plan(shape: tuple[int, ...]) -> tuple[_PlanEntry, ...]:
    """Majorana expansion of one ladder-monomial shape.

    ``shape`` encodes each ladder operator as ``2·rank + dagger``, where
    ``rank`` is its mode's rank among the term's distinct modes.  Rank ``r``
    owns positions ``2r`` (the ``½·M_2j`` half of Eq. 2) and ``2r + 1`` (the
    ``∓½i·M_2j+1`` half) of the term's base list ``[2·m_0, 2·m_0 + 1, 2·m_1,
    …]`` over its sorted modes, so ascending positions give ascending
    Majorana indices.  The operators multiply out left to right with exact
    zeros popped.  Every step is a sign flip or a scaling by ½ or ½i, so the
    relative coefficients are exact, and ``coeff * relative`` equals what
    multiplying the term out with coefficient ``coeff`` reaches.
    """
    factor: dict[int, complex] = {0: 1.0}
    for code in shape:
        even = code & ~1
        halves = ((even, 0.5), (even + 1, -0.5j if code & 1 else 0.5j))
        product: dict[int, complex] = {}
        for mask, value in factor.items():
            for position, half in halves:
                new_mask, sign = _times_majorana(mask, position)
                new = product.get(new_mask, 0.0) + sign * value * half
                if new == 0:
                    product.pop(new_mask, None)
                else:
                    product[new_mask] = new
        factor = product
    return tuple((_key_getter(_mask_indices(mask)), value) for mask, value in factor.items())


class MajoranaOperator:
    """Weighted sum of canonical Majorana monomials."""

    __slots__ = ("_terms", "_packed", "_fingerprint_cache")

    def __init__(self, terms: dict[tuple[int, ...], complex] | None = None):
        self._terms: dict[tuple[int, ...], complex] = dict(terms) if terms else {}
        #: Cached bulk-mapping plan (padded index matrix + coefficient vector);
        #: rebuilt lazily by :meth:`packed_terms`, cleared on mutation.
        self._packed = None
        #: Service-layer memo for the canonical fingerprint form — owned by
        #: repro.service.fingerprint, cleared on mutation like _packed.
        self._fingerprint_cache = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "MajoranaOperator":
        return cls()

    @classmethod
    def identity(cls, coeff: complex = 1.0) -> "MajoranaOperator":
        return cls({(): coeff})

    @classmethod
    def single(cls, index: int, coeff: complex = 1.0) -> "MajoranaOperator":
        """``coeff · M_index``."""
        return cls({(index,): coeff})

    @classmethod
    def from_term(cls, indices: Iterable[int], coeff: complex = 1.0) -> "MajoranaOperator":
        """Build from an arbitrary (possibly unsorted/repeated) index product."""
        mask, sign = _walk(0, indices)
        out = cls()
        out.add_term(_mask_indices(mask), sign * coeff)
        return out

    @classmethod
    def from_fermion_operator(cls, op: FermionOperator) -> "MajoranaOperator":
        """Expand ladder monomials through the paper's Eq. (2) (plan kernel).

        Call sites go through :func:`majorana_form`, which memoizes this.
        """
        out = cls()
        terms = out._terms
        get = terms.get
        for actions, coeff in op.terms():
            modes = sorted({mode for mode, _ in actions})
            even = {mode: 2 * r for r, mode in enumerate(modes)}
            plan = _expansion_plan(tuple([even[mode] + dagger for mode, dagger in actions]))
            base = [index for mode in modes for index in (2 * mode, 2 * mode + 1)]
            coeff = complex(coeff)
            for key_of, relative in plan:
                key = key_of(base)
                new = get(key, 0.0) + coeff * relative
                if new == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = new
        return out.simplify()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        yield from self._terms.items()

    @property
    def constant(self) -> complex:
        return self._terms.get((), 0.0)

    def coefficient(self, indices: tuple[int, ...]) -> complex:
        return self._terms.get(tuple(sorted(indices)), 0.0)

    @property
    def n_majoranas(self) -> int:
        """1 + highest Majorana index in any term."""
        # Monomials are canonical (strictly increasing), so the last entry of
        # each is its maximum.
        return max((term[-1] for term in self._terms if term), default=-1) + 1

    @property
    def n_modes(self) -> int:
        """Number of fermionic modes this operator acts on (ceil of index/2)."""
        return (self.n_majoranas + 1) // 2

    def support_terms(self, drop_identity: bool = True) -> list[tuple[int, ...]]:
        """The monomial index sets, optionally without the identity term."""
        return [t for t in self._terms if t or not drop_identity]

    def packed_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Bulk-mapping plan: ``(index matrix, coefficient vector)``, cached.

        The index matrix is ``(n_terms, max_len)`` with every monomial's
        Majorana indices **shifted up by one** and right-padded with ``0`` —
        the convention of :meth:`repro.paulis.PauliTable.padded_row_products`,
        whose virtual identity row sits at index 0.  Because the padding does
        not depend on any particular mapping, one plan serves every mapping
        this operator is evaluated under (the HATT workload maps one
        Hamiltonian with many candidate trees); mutation through
        :meth:`add_term` or :meth:`simplify` invalidates the cache.
        """
        if self._packed is None:
            from ..paulis.table import pack_monomials

            idx = pack_monomials(list(self._terms.keys()))
            coeffs = np.fromiter(
                self._terms.values(), dtype=complex, count=len(self._terms)
            )
            self._packed = (idx, coeffs)
        return self._packed

    def is_hermitian(self, tol: float = 1e-9) -> bool:
        """A monomial of k Majoranas conjugates to ``(-1)^{k(k-1)/2}`` itself."""
        for term, coeff in self._terms.items():
            k = len(term)
            sign = -1 if (k * (k - 1) // 2) % 2 else 1
            if abs(complex(coeff).conjugate() * sign - coeff) > tol:
                return False
        return True

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def add_term(self, indices: tuple[int, ...], coeff: complex) -> None:
        self._packed = None
        self._fingerprint_cache = None
        new = self._terms.get(indices, 0.0) + coeff
        if new == 0:
            self._terms.pop(indices, None)
        else:
            self._terms[indices] = new

    def simplify(self, tol: float = _COEFF_TOLERANCE) -> "MajoranaOperator":
        self._packed = None
        self._fingerprint_cache = None
        self._terms = {t: c for t, c in self._terms.items() if abs(c) > tol}
        return self

    def copy(self) -> "MajoranaOperator":
        return MajoranaOperator(self._terms)

    def __add__(self, other: "MajoranaOperator") -> "MajoranaOperator":
        if not isinstance(other, MajoranaOperator):
            return NotImplemented
        out = self.copy()
        for term, coeff in other._terms.items():
            out.add_term(term, coeff)
        return out

    def __sub__(self, other: "MajoranaOperator") -> "MajoranaOperator":
        return self + (other * -1.0)

    def __mul__(self, other) -> "MajoranaOperator":
        if isinstance(other, (int, float, complex)):
            return MajoranaOperator({t: c * other for t, c in self._terms.items()})
        if isinstance(other, MajoranaOperator):
            out = MajoranaOperator()
            for t1, c1 in self._terms.items():
                for t2, c2 in other._terms.items():
                    prod, sign = normal_order_majorana_product(t1, t2)
                    out.add_term(prod, sign * c1 * c2)
            return out
        return NotImplemented

    def __rmul__(self, other) -> "MajoranaOperator":
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, MajoranaOperator):
            return NotImplemented
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= 1e-9 for k in keys
        )

    def __repr__(self) -> str:
        def fmt(term):
            return " ".join(f"M{i}" for i in term) or "1"

        parts = [f"({c:.4g})·{fmt(t)}" for t, c in list(self._terms.items())[:6]]
        more = f" … ({len(self)} terms)" if len(self) > 6 else ""
        return f"MajoranaOperator({' + '.join(parts) or '0'}{more})"


def majorana_form(hamiltonian: FermionOperator | MajoranaOperator) -> MajoranaOperator:
    """The Majorana form of ``hamiltonian``, expanded at most once per operator.

    A ``MajoranaOperator`` is returned as is.  A ``FermionOperator``'s
    expansion is memoized in its ``_majorana`` slot, which ``add_term``
    clears; the returned operator is shared and must not be mutated.
    """
    if isinstance(hamiltonian, MajoranaOperator):
        return hamiltonian
    if isinstance(hamiltonian, FermionOperator):
        if hamiltonian._majorana is None:
            hamiltonian._majorana = MajoranaOperator.from_fermion_operator(hamiltonian)
        return hamiltonian._majorana
    raise TypeError(
        f"expected a FermionOperator or MajoranaOperator, got {type(hamiltonian).__name__}"
    )
