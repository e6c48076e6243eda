"""Property-based tests: PauliTable (vectorized) vs the scalar reference.

The scalar side is the :class:`PauliString` algebra and, for the bulk
kernels built on the table (operator mapping, commutator weight), the
per-term loops in ``tests/oracles/pauli.py``.  Random operators are drawn up
to 130 qubits so the packed representation exercises multi-word (``> 64``
qubit) masks, word boundaries included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pauli as oracle
from repro.analysis import commutator_weight
from repro.fermion import MajoranaOperator
from repro.mappings import balanced_ternary_tree, jordan_wigner
from repro.mappings.apply import map_majorana_operator
from repro.paulis import PauliString, PauliTable, QubitOperator

QUBIT_COUNTS = (1, 5, 63, 64, 65, 130)
PHASES = st.integers(min_value=0, max_value=3)


@st.composite
def pauli_batches(draw, min_size=1, max_size=12):
    """A qubit count plus a batch of random PauliStrings on it."""
    n = draw(st.sampled_from(QUBIT_COUNTS))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    strings = [
        PauliString(n, draw(masks), draw(masks), draw(PHASES)) for _ in range(size)
    ]
    return n, strings


@given(pauli_batches())
@settings(max_examples=60, deadline=None)
def test_string_roundtrip_lossless(batch):
    n, strings = batch
    table = PauliTable.from_strings(strings, n=n)
    assert table.to_strings() == strings


@given(pauli_batches())
@settings(max_examples=60, deadline=None)
def test_mul_rows_matches_scalar(batch):
    n, strings = batch
    table = PauliTable.from_strings(strings, n=n)
    other = PauliTable.from_strings(strings[::-1], n=n)
    products = table.mul_rows(other).to_strings()
    for got, a, b in zip(products, strings, strings[::-1]):
        assert got == a * b


@given(pauli_batches())
@settings(max_examples=60, deadline=None)
def test_commutation_matches_scalar(batch):
    n, strings = batch
    table = PauliTable.from_strings(strings, n=n)
    matrix = table.commutation_matrix(chunk=3)
    for i, a in enumerate(strings):
        for j, b in enumerate(strings):
            assert matrix[i, j] == a.commutes_with(b)
    aligned = table.commutes_with(PauliTable.from_strings(strings[::-1], n=n))
    for got, a, b in zip(aligned, strings, strings[::-1]):
        assert got == a.commutes_with(b)


@given(pauli_batches())
@settings(max_examples=60, deadline=None)
def test_weights_match_scalar(batch):
    n, strings = batch
    table = PauliTable.from_strings(strings, n=n)
    assert [int(w) for w in table.weights()] == [s.weight for s in strings]


@given(pauli_batches(), st.data())
@settings(max_examples=60, deadline=None)
def test_simplify_matches_scalar_combination(batch, data):
    n, strings = batch
    # Duplicate rows on purpose so simplify has real combining to do.
    picks = data.draw(
        st.lists(st.integers(0, len(strings) - 1), min_size=1, max_size=30)
    )
    coeffs = [
        complex(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
        for _ in picks
    ]
    table = PauliTable.from_strings([strings[i] for i in picks], n=n)
    reference = QubitOperator(n)
    for i, c in zip(picks, coeffs):
        reference.add_string(strings[i], c)
    reference.simplify()
    assert table.to_qubit_operator(np.asarray(coeffs)) == reference


@given(pauli_batches())
@settings(max_examples=40, deadline=None)
def test_qubit_operator_roundtrip(batch):
    n, strings = batch
    op = QubitOperator(n)
    for i, s in enumerate(strings):
        op.add_string(s, 1.0 + 0.25 * i)
    table, coeffs = op.to_table()
    assert QubitOperator.from_table(table, coeffs) == op


@given(pauli_batches(max_size=40))
@settings(max_examples=40, deadline=None)
def test_commutator_weight_matches_oracle(batch):
    """Real quarter-integer coefficients keep every partial sum exact, so
    the chunked table kernel must equal the pairwise loop bit for bit."""
    n, strings = batch
    coeffs: dict[str, float] = {}
    for i, s in enumerate(strings):
        # Hermitian label of the string's (x, z) bits; its phase is dropped
        # so merged duplicates keep real coefficients.
        label = "".join("IXZY"[(s.x >> q & 1) | (s.z >> q & 1) << 1] for q in range(n))
        coeffs[label] = coeffs.get(label, 0.0) + 0.25 * (i % 7) - 0.75
    op = QubitOperator.from_label_dict(coeffs)
    assert commutator_weight(op) == oracle.commutator_weight(op)


@st.composite
def majorana_operators(draw, n_modes):
    """A random Majorana operator on 2·n_modes Majoranas."""
    n_majoranas = 2 * n_modes
    monomials = draw(
        st.lists(
            st.lists(
                st.integers(0, n_majoranas - 1), min_size=0, max_size=5, unique=True
            ),
            min_size=1,
            max_size=20,
        )
    )
    op = MajoranaOperator()
    for mono in monomials:
        op.add_term(tuple(sorted(mono)), draw(st.integers(-3, 3)) + 0.5)
    return op


@pytest.mark.parametrize("n_modes", [3, 33, 65])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_map_majorana_backends_agree(n_modes, data):
    """The table kernel and the per-term oracle agree on JW and BTT mappings."""
    op = data.draw(majorana_operators(n_modes))
    for mapping in (jordan_wigner(n_modes), balanced_ternary_tree(n_modes)):
        scalar = oracle.map_majorana_operator(op, mapping.strings, mapping.n_qubits)
        table = map_majorana_operator(op, mapping.packed_table, mapping.n_qubits)
        assert table == scalar


def test_map_majorana_validates_qubit_count():
    op = MajoranaOperator({(0, 1): 1.0})
    strings = jordan_wigner(2).strings
    with pytest.raises(ValueError, match="acts on 2 qubits"):
        map_majorana_operator(op, strings, n_qubits=5)


def test_map_majorana_validates_coverage():
    # Operator touches M4 => 3 modes => needs 6 strings, only 5 supplied.
    op = MajoranaOperator({(4,): 1.0})
    strings = jordan_wigner(3).strings[:5]
    with pytest.raises(ValueError, match="2 per mode"):
        map_majorana_operator(op, strings, n_qubits=3)
    with pytest.raises(ValueError, match="2 per mode"):
        map_majorana_operator(op, jordan_wigner(3).packed_table.take(slice(0, 5)), 3)


def test_map_majorana_rejects_unknown_backend():
    """The table kernel is the only mapper; the old selector keyword is gone."""
    op = MajoranaOperator({(0,): 1.0})
    with pytest.raises(TypeError):
        map_majorana_operator(op, jordan_wigner(1).strings, 1, backend="scalar")


def test_map_majorana_rejects_empty_strings():
    with pytest.raises(ValueError, match="no Majorana strings"):
        map_majorana_operator(MajoranaOperator(), [], 1)


def test_packed_terms_cache_invalidation():
    op = MajoranaOperator({(0, 1): 1.0})
    idx, coeffs = op.packed_terms()
    assert op.packed_terms()[0] is idx  # cached
    op.add_term((2, 3), 2.0)
    idx2, coeffs2 = op.packed_terms()
    assert idx2.shape[0] == 2 and len(coeffs2) == 2
    jw = jordan_wigner(2)
    assert map_majorana_operator(op, jw.strings, 2) == oracle.map_majorana_operator(
        op, jw.strings, 2
    )


def test_table_rejects_out_of_range_bits():
    with pytest.raises(ValueError, match="outside the qubit range"):
        PauliTable.from_masks(3, [0b1000], [0])


def test_padded_row_products_rejects_bad_index():
    table = jordan_wigner(2).packed_table
    with pytest.raises(IndexError):
        table.padded_row_products(np.array([[99]], dtype=np.intp))


def test_from_terms_table_path_matches_scalar_path():
    """QubitOperator.from_terms gives identical results on both sides of the
    bulk-path threshold."""
    n = 6
    rng = np.random.default_rng(7)
    strings = [
        PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        for _ in range(40)
    ]
    terms = [(strings[i % len(strings)], 0.5 * i - 3) for i in range(130)]
    bulk = QubitOperator.from_terms(terms)  # above threshold: table path
    scalar = QubitOperator(n)
    for s, c in terms:
        scalar.add_string(s, c)
    assert bulk == scalar
