"""Pauli algebra substrate: strings, sums, and raw symplectic helpers.

Two interchangeable representations cover the Pauli arithmetic:

* **scalar** — arbitrary-precision integer bitmask triples ``(x, z, k)``
  (:mod:`~repro.paulis.algebra`, :class:`PauliString`).  Exact, allocation-free
  per string, and the reference implementation for everything below.
* **table** — :class:`PauliTable`, a batch of strings packed as rows of a
  ``uint64`` X|Z bit matrix plus a phase vector.  Row-wise products,
  commutation tests, weights and duplicate combination run as vectorized
  NumPy kernels; this is the representation behind the bulk mapping and analysis
  hot paths (``repro.mappings.apply``, ``repro.analysis``).

The two are cross-checked on random operators (including >64-qubit,
multi-word masks) in ``tests/test_pauli_table.py``; conversions between them
(:meth:`PauliTable.from_strings`, :meth:`QubitOperator.to_table`, …) are
lossless.
"""

from .algebra import BITS_TO_OP, OP_TO_BITS, commutes, mul_xzk, phase_of_product, weight
from .pauli import PauliString, pauli_strings_anticommute_pairwise
from .pauli_sum import QubitOperator
from .table import PauliTable

__all__ = [
    "PauliString",
    "PauliTable",
    "QubitOperator",
    "pauli_strings_anticommute_pairwise",
    "mul_xzk",
    "phase_of_product",
    "commutes",
    "weight",
    "OP_TO_BITS",
    "BITS_TO_OP",
]
