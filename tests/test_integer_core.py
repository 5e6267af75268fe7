"""The pure-integer linear algebra in lattice.py, checked against its definitions.

The references in ``helpers`` share no code with ``lattice``: det by
elimination over ``Fraction``s, negative definiteness by Sylvester's
criterion on the leading minors that elimination without row exchanges
leaves on the diagonal, and the invariant factors from the determinantal
divisors, D_k = d_1 ... d_k the gcd of the k x k minors.  The adjugate is
checked by its certificate G adj(G) = det(G) I once det is checked against
the reference: for a nonsingular G only det(G) G^{-1} passes it.
"""

import random
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import reference_det, reference_invariant_factors, reference_negative_definite
from unknotone import lattice
from unknotone.catalog import builtin_record
from unknotone.errors import SingularFormError
from unknotone.lattice import QuadraticForm, cokernel


@st.composite
def symmetric_rows(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = draw(st.integers(min_value=-6, max_value=6))
    # a common factor c > 1 puts (Z/c)^dim into the cokernel: non-cyclic
    scale = draw(st.sampled_from([1, 1, 2, 3]))
    return [[scale * entry for entry in row] for row in rows]


@settings(max_examples=120, deadline=None)
@given(symmetric_rows())
@example([[-2, 2], [2, -2]])  # singular
@example([[0, 1], [1, 0]])  # indefinite, zero leading minor
@example([[-3, 0], [0, -3]])  # non-cyclic
@example([[-3, 0], [0, -5]])  # cyclic, no coordinate generator
@example([[-1, 1, 0], [1, -1, 1], [0, 1, -1]])  # det 1, zero second leading minor
@example([[-2, 0, 0], [0, -3, 0], [0, 0, -6]])  # Z/6 + Z/6 once Z/2 + Z/3 is ordered
def test_integer_core_agrees_with_its_definitions(rows):
    form = QuadraticForm.from_rows(rows)
    assert form.det == reference_det(rows)
    assert form.is_negative_definite == reference_negative_definite(rows)
    if form.det == 0:
        with pytest.raises(SingularFormError):
            form.adjugate
        with pytest.raises(SingularFormError):
            cokernel(form)
        return
    assert_adjugate(form, rows)
    expected = tuple(d for d in reference_invariant_factors(rows) if d != 1)
    assert cokernel(form) == expected


def assert_adjugate(form, rows):
    """The certificate G adj(G) = det(G) I: once det(G) is checked and nonzero, only
    adj(G) = det(G) G^{-1} passes it."""
    adj = form.adjugate
    rng = range(form.dim)
    product = [[sum(rows[i][k] * adj[k][j] for k in rng) for j in rng] for i in rng]
    assert product == [[form.det * (i == j) for j in rng] for i in rng]


@settings(max_examples=200, deadline=None)
@given(symmetric_rows())
@example([[0, 1], [1, 0]])  # swap with the next row
@example([[0, 0, -1], [0, -1, 0], [-1, 0, -2]])  # swap with a row two below
# a swap at step 1 with a row two below; only the last pivot is out of sign
@example([[-1, 1, 0, -1], [1, -1, 0, 0], [0, 0, -2, 0], [-1, 0, 0, -2]])
def test_a_row_swap_puts_two_pivot_ratios_of_opposite_signs(rows):
    # the argument in QuadraticForm.is_negative_definite: if the first swap, at
    # step k, brings up row l, then p_(l+1) / p_l = -p_(k+1) / p_k
    n = len(rows)
    minors = [reference_det([row[:j] for row in rows[:j]]) for j in range(1, n + 1)]
    if 0 not in minors:
        return
    k = minors.index(0)

    def bordered(i):
        return reference_det([row[: k + 1] for row in rows[:k] + [rows[i]]])

    l = next((i for i in range(k + 1, n) if bordered(i)), None)
    pivots = lattice._gauss_jordan(rows)[0]
    if l is None or 0 in pivots[: l + 2]:
        return
    assert pivots[: k + 1] == [1, *minors[:k]]
    assert pivots[l + 1] * pivots[k] == -pivots[l] * pivots[k + 1]
    assert not QuadraticForm.from_rows(rows).is_negative_definite


@st.composite
def symmetric_rows_of_corank(draw):
    """Symmetric forms of dimension 1..8 and rank n, n - 1 or n - 2.

    A nonsingular symmetric core, padded with zero rows and columns, is
    conjugated by unimodular shears, which keep the rank.
    """
    dim = draw(st.integers(min_value=1, max_value=8))
    rank = dim - draw(st.integers(min_value=0, max_value=min(2, dim)))
    rows = [[0] * dim for _ in range(dim)]
    for i in range(rank):
        for j in range(i, rank):
            rows[i][j] = rows[j][i] = draw(st.integers(min_value=-4, max_value=4))
    assume(reference_det([row[:rank] for row in rows[:rank]]) != 0)
    for _ in range(draw(st.integers(min_value=0, max_value=2 * dim))):
        i = draw(st.integers(min_value=0, max_value=dim - 1))
        j = draw(st.integers(min_value=0, max_value=dim - 1))
        if i == j:
            continue
        c = draw(st.sampled_from([-1, 1]))
        # G <- U^T G U with U = I + c E_ij
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
        for row in rows:
            row[j] += c * row[i]
    return rows


@settings(max_examples=150, deadline=None)
@given(symmetric_rows_of_corank())
@example([[0, 1], [1, 0]])  # zero first pivot
@example([[-2, 1, 0], [1, 0, 1], [0, 1, 0]])  # zero pivots after elimination
@example([[2, 2], [2, 2]])  # rank 1
@example([[0] * 3] * 3)  # rank 0
def test_adjugate_up_to_dimension_eight(rows):
    form = QuadraticForm.from_rows(rows)
    assert form.det == reference_det(rows)
    if form.det == 0:
        with pytest.raises(SingularFormError):
            form.adjugate
        return
    assert_adjugate(form, rows)


@st.composite
def non_cyclic_rows(draw):
    """Nonsingular symmetric forms with a non-cyclic cokernel.

    Either k H for k >= 2, which puts (Z/k)^dim into the cokernel, or a
    block sum whose two blocks are scaled by multiples of one factor s,
    which puts Z/s into both, conjugated by unimodular shears that hide
    the blocks.
    """

    def block(dim, scale):
        rows = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                rows[i][j] = rows[j][i] = scale * draw(st.integers(min_value=-5, max_value=5))
        return rows

    if draw(st.booleans()):
        dim = draw(st.integers(min_value=2, max_value=5))
        rows = block(dim, draw(st.integers(min_value=2, max_value=12)))
    else:
        shared = draw(st.sampled_from([2, 3, 4, 6, 9, 10]))
        first, second = (
            block(draw(st.integers(1, 3)), shared * draw(st.integers(1, 3))) for _ in range(2)
        )
        dim = len(first) + len(second)
        rows = [row + [0] * len(second) for row in first]
        rows += [[0] * len(first) + row for row in second]
        for _ in range(draw(st.integers(min_value=0, max_value=2 * dim))):
            i = draw(st.integers(min_value=0, max_value=dim - 1))
            j = draw(st.integers(min_value=0, max_value=dim - 1))
            if i == j:
                continue
            c = draw(st.sampled_from([-1, 1]))
            rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
            for row in rows:
                row[j] += c * row[i]
    assume(reference_det(rows) != 0)
    return rows


@settings(max_examples=80, deadline=None)
@given(non_cyclic_rows())
@example([[-3, 0], [0, -3]])
@example([[4, 2, 0], [2, 4, 0], [0, 0, 6]])
@example([[-2, 0, 0], [0, -3, 0], [0, 0, -6]])  # Z/6 + Z/6 once Z/2 + Z/3 is ordered
def test_bounded_smith_reduction_agrees_with_the_determinantal_divisors(rows):
    form = QuadraticForm.from_rows(rows)
    assert len(cokernel(form)) > 1
    expected = reference_invariant_factors(rows)
    order = abs(form.det)
    minors = gcd(*(x for row in form.adjugate for x in row))
    assert lattice._smith_diagonal(rows, order, minors) == expected
    assert cokernel(form) == tuple(d for d in expected if d != 1)


def test_invariant_factors_beside_huge_even_entries():
    # diagonal 2 and even 2,892-bit entries: Z/2 three times and one huge
    # factor; unbounded, the reduction takes 4,795 passes over entries of up
    # to 11,566 bits, while mod the gcd of the minors, 8, they stay below 8
    rng = random.Random(5)
    rows = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            rows[i][j] = rows[j][i] = 2 * rng.getrandbits(2892)
    form = QuadraticForm.from_rows(rows)
    order = abs(form.det)
    assert cokernel(form) == (2, 2, 2, order // 8)
    assert (order // 8).bit_length() == 11566


def test_one_elimination_per_form(monkeypatch):
    calls = []
    eliminate = lattice._gauss_jordan

    def counted(rows):
        calls.append(rows)
        return eliminate(rows)

    monkeypatch.setattr(lattice, "_gauss_jordan", counted)
    form = builtin_record("8_10").form
    assert form.det == -27
    assert form.is_negative_definite
    assert form.inverse_numerator == tuple(tuple(-x for x in row) for row in form.adjugate)
    assert len(calls) == 1

