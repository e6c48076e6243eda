"""Tests for MajoranaOperator: Clifford-algebra relations and Eq. (2)/(3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.majorana import from_fermion_operator as reference_expansion
from oracles.majorana import merge_product
from repro.fermion import (
    FermionOperator,
    MajoranaOperator,
    majorana_form,
    normal_order_majorana_product,
)
from repro.sources import build_case


def M(i):
    return MajoranaOperator.single(i)


class TestMonomialProduct:
    def test_disjoint_sorted(self):
        assert normal_order_majorana_product((0, 2), (1, 3)) == ((0, 1, 2, 3), -1)

    def test_square_cancels(self):
        assert normal_order_majorana_product((0, 1), (0, 1)) == ((), -1)
        # M0M1·M0M1 = -M0M0M1M1 = -1.

    def test_identity_factors(self):
        assert normal_order_majorana_product((), (1, 2)) == ((1, 2), 1)
        assert normal_order_majorana_product((1, 2), ()) == ((1, 2), 1)

    def test_single_swap_sign(self):
        assert normal_order_majorana_product((1,), (0,)) == ((0, 1), -1)
        assert normal_order_majorana_product((0,), (1,)) == ((0, 1), 1)


@given(
    st.lists(st.integers(0, 6), min_size=0, max_size=6),
    st.lists(st.integers(0, 6), min_size=0, max_size=6),
)
@settings(max_examples=100)
def test_product_associativity_random(seq1, seq2):
    """from_term(seq1+seq2) == from_term(seq1)·from_term(seq2)."""
    joint = MajoranaOperator.from_term(seq1 + seq2)
    split = MajoranaOperator.from_term(seq1) * MajoranaOperator.from_term(seq2)
    assert joint == split


class TestCliffordRelations:
    def test_square_is_one(self):
        for i in range(4):
            assert M(i) * M(i) == MajoranaOperator.identity()

    def test_anticommute(self):
        for i in range(3):
            for j in range(3):
                anti = M(i) * M(j) + M(j) * M(i)
                expected = MajoranaOperator.identity(2.0 if i == j else 0.0).simplify()
                assert anti.simplify() == expected

    def test_hermitian_check(self):
        assert M(0).is_hermitian()
        assert (1j * M(0) * M(1)).is_hermitian()  # i·M0M1 is Hermitian
        assert not (M(0) * M(1)).is_hermitian()
        assert MajoranaOperator.from_term([0, 1, 2, 3], -1.0).is_hermitian()


class TestFermionConversion:
    def test_number_operator(self):
        # a†_0 a_0 = 1/2 + (i/2)·M0 M1  (paper §III-C example).
        n0 = MajoranaOperator.from_fermion_operator(FermionOperator.number(0))
        assert n0.constant == pytest.approx(0.5)
        assert n0.coefficient((0, 1)) == pytest.approx(0.5j)
        assert len(n0) == 2

    def test_paper_equation_3(self):
        """HF = a†0 a0 + 2 a†1 a†2 a1 a2 maps to the Majorana form in Eq. (3)."""
        hf = FermionOperator.number(0) + 2.0 * FermionOperator.from_term(
            [(1, True), (2, True), (1, False), (2, False)]
        )
        hm = MajoranaOperator.from_fermion_operator(hf)
        assert hm.coefficient((0, 1)) == pytest.approx(0.5j)
        assert hm.coefficient((2, 3)) == pytest.approx(-0.5j)
        assert hm.coefficient((4, 5)) == pytest.approx(-0.5j)
        assert hm.coefficient((2, 3, 4, 5)) == pytest.approx(0.5)
        # Non-identity support exactly matches the paper's four monomials.
        assert sorted(hm.support_terms()) == [(0, 1), (2, 3), (2, 3, 4, 5), (4, 5)]

    def test_creation_annihilation_inverse_relation(self):
        # a_j + a†_j = M_2j ; a_j - a†_j = i·M_2j+1.
        for j in (0, 2):
            plus = MajoranaOperator.from_fermion_operator(
                FermionOperator.annihilation(j) + FermionOperator.creation(j)
            )
            assert plus == MajoranaOperator.single(2 * j)
            minus = MajoranaOperator.from_fermion_operator(
                FermionOperator.annihilation(j) - FermionOperator.creation(j)
            )
            assert minus == MajoranaOperator.single(2 * j + 1, 1j)

    def test_hermitian_fermion_gives_hermitian_majorana(self):
        hop = FermionOperator.hopping(0, 1, 0.7) + FermionOperator.number(1, 2.0)
        hm = MajoranaOperator.from_fermion_operator(hop)
        assert hm.is_hermitian()

    def test_car_preserved_through_majoranas(self):
        """{a_0, a†_0} = 1 computed in the Majorana representation."""
        a0 = MajoranaOperator.from_fermion_operator(FermionOperator.annihilation(0))
        a0d = MajoranaOperator.from_fermion_operator(FermionOperator.creation(0))
        anti = a0 * a0d + a0d * a0
        assert anti.simplify() == MajoranaOperator.identity()

    def test_annihilation_squared_zero(self):
        a0 = MajoranaOperator.from_fermion_operator(FermionOperator.annihilation(0))
        assert (a0 * a0).simplify() == MajoranaOperator.zero()

    def test_modes_counting(self):
        hm = MajoranaOperator.from_fermion_operator(FermionOperator.number(2))
        assert hm.n_majoranas == 6
        assert hm.n_modes == 3


# ----------------------------------------------------------------------
# Plan kernel vs the term-by-term reference expansion (tests/oracles)
# ----------------------------------------------------------------------
def assert_same_expansion(op: FermionOperator) -> MajoranaOperator:
    """Kernel output equals the oracle's: keys, insertion order, values."""
    got = list(MajoranaOperator.from_fermion_operator(op).terms())
    want = list(reference_expansion(op).terms())
    assert [key for key, _ in got] == [key for key, _ in want]
    assert [value for _, value in got] == [value for _, value in want]
    return MajoranaOperator(dict(got))


# Low modes repeat often; modes 32+ put Majorana indices past 63, where any
# fixed 64-bit index mask would overflow.
_modes = st.one_of(st.integers(0, 4), st.integers(32, 40))
# Magnitudes stay in the normal float range: the kernel scales a coefficient
# by 2^-k once where the reference halves it k times, and the two agree
# whenever no intermediate value is subnormal.
_magnitudes = st.floats(1e-9, 1e6, allow_nan=False, allow_infinity=False)
_reals = st.one_of(st.just(0.0), _magnitudes, _magnitudes.map(lambda x: -x))
_coeffs = st.one_of(_reals, st.builds(complex, _reals, _reals))


def _monomials(min_size=0):
    return st.lists(st.tuples(_modes, st.booleans()), min_size=min_size, max_size=6).map(tuple)


@st.composite
def _cancelling_pair(draw):
    """A monomial plus its adjacent-swap twin: equal Majorana forms of
    opposite sign when the swapped modes differ, so their sum cancels."""
    actions = draw(_monomials(min_size=2))
    i = draw(st.integers(0, len(actions) - 2))
    swapped = actions[:i] + (actions[i + 1], actions[i]) + actions[i + 2 :]
    coeff = draw(_coeffs)
    return [(actions, coeff), (swapped, coeff)]


_pieces = st.one_of(
    st.tuples(_monomials(), _coeffs).map(lambda term: [term]), _cancelling_pair()
)


@given(st.lists(_pieces, max_size=6))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_reference_expansion(pieces):
    assert_same_expansion(FermionOperator({a: c for piece in pieces for a, c in piece}))


class TestKernelEdgeCases:
    def test_number_operator(self):
        hm = assert_same_expansion(FermionOperator.number(0))
        assert hm.support_terms(drop_identity=False) == [(), (0, 1)]

    def test_repeated_annihilation_vanishes(self):
        aa = FermionOperator.from_term([(0, False), (0, False)], 0.7)
        assert len(assert_same_expansion(aa)) == 0

    def test_high_modes(self):
        op = FermionOperator.from_term([(40, True), (33, False), (40, False)], 1.5 - 2j)
        hm = assert_same_expansion(op)
        assert hm.n_majoranas == 82

    def test_cancelling_sum_is_empty(self):
        op = FermionOperator(
            {((0, True), (1, False)): 0.3, ((1, False), (0, True)): 0.3}
        )
        assert len(assert_same_expansion(op)) == 0

    @pytest.mark.parametrize(
        "spec, n_terms",
        [
            ("H2_sto3g", 15),
            ("hubbard:2x3", 55),
            ("neutrino:2x2F", 73),
            ("random:syk:n=6,seed=7", 562),
        ],
    )
    def test_golden_cases(self, spec, n_terms):
        assert len(assert_same_expansion(build_case(spec))) == n_terms


class TestSignRule:
    @given(st.lists(st.integers(0, 80), max_size=8), _coeffs)
    @settings(max_examples=200, deadline=None)
    def test_from_term_matches_merge_rule(self, indices, coeff):
        key, sign = (), 1
        for index in indices:
            key, step = merge_product(key, (index,))
            sign *= step
        expected = [(key, sign * coeff)] if coeff != 0 else []
        assert list(MajoranaOperator.from_term(indices, coeff).terms()) == expected

    @given(st.sets(st.integers(0, 80), max_size=6), st.sets(st.integers(0, 80), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_product_matches_merge_rule(self, left, right):
        left, right = tuple(sorted(left)), tuple(sorted(right))
        assert normal_order_majorana_product(left, right) == merge_product(left, right)


# ----------------------------------------------------------------------
# Memoized Majorana form on FermionOperator
# ----------------------------------------------------------------------
class TestExpansionMemo:
    def test_memo_is_reused(self):
        h = build_case("H2_sto3g")
        assert majorana_form(h) is majorana_form(h)

    def test_majorana_input_passes_through(self):
        hm = MajoranaOperator.single(3)
        assert majorana_form(hm) is hm

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            majorana_form("H2_sto3g")

    def test_add_term_invalidates(self):
        h = FermionOperator.number(0)
        before = majorana_form(h)
        h.add_term(((1, True), (1, False)), 2.0)
        after = majorana_form(h)
        assert after is not before
        assert after == MajoranaOperator.from_fermion_operator(h)
        assert after.coefficient((2, 3)) == pytest.approx(1j)

    def test_copies_and_sums_start_without_memo(self):
        h = FermionOperator.number(0)
        majorana_form(h)
        assert h._majorana is not None
        assert h.copy()._majorana is None
        assert (h + FermionOperator.number(1))._majorana is None

    def test_compile_expands_once(self, monkeypatch):
        from repro.compile import CompilationPipeline

        calls = []
        expand = MajoranaOperator.from_fermion_operator

        def counting(op):
            calls.append(op)
            return expand(op)

        monkeypatch.setattr(MajoranaOperator, "from_fermion_operator", staticmethod(counting))
        h = build_case("H2_sto3g")
        CompilationPipeline().compile_one(h, "hatt", "manhattan")
        assert len(calls) == 1 and calls[0] is h

    def test_compile_leaves_shared_form_unmutated(self):
        from repro.compile import CompilationPipeline

        h = build_case("hubbard:2x3")
        shared = majorana_form(h)
        before = list(shared.terms())
        CompilationPipeline().compile_one(h, "hatt", "manhattan")
        assert majorana_form(h) is shared
        assert list(shared.terms()) == before
