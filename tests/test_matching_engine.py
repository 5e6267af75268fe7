"""The integer matching engine against a plain enumeration kept in this file.

The reference scans every unit 1..D-1 and both signs on the integer
numerators over 4D, with no half-unit scan and no early exit, and reads
the four filters off each distinct C's ``Fraction`` entries with
``helpers.reference_derived``, as the definitions read.  The engine must
return the very same tuple: C, provenance and order, which ``==``
compares, and the representative unit and sign and the four flags, which
it does not.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from helpers import cyclic_odd, derived, negative_definite_forms, reference_derived
from unknotone.catalog import builtin_dataset
from unknotone.corrections import CorrectionVector, correction_vector
from unknotone.errors import NonCyclicCokernelError, ValidationError
from unknotone.gamma import gamma_vector
from unknotone.matching import Matching, Outcome, enumerate_matchings, even_matchings, obstruct


def reference_matchings(A, B):
    """The matchings, sorted by C, each with its ``reference_derived`` values."""
    D, a, b = A.D, A.numerators, B.numerators
    found = {}
    for epsilon in (1, -1):
        for u in range(1, D):
            if gcd(u, D) == 1:
                C = tuple(-b[i] - epsilon * a[u * i % D] for i in range(D))
                found.setdefault(C, []).append((u, epsilon))
    # each provenance list is already epsilon = +1 first, units ascending
    return [
        (Matching(C, tuple(found[C])), reference_derived([Fraction(c, 4 * D) for c in C], found[C]))
        for C in sorted(found)
    ]


def check_engine(A, B):
    got = enumerate_matchings(A, B)
    expected = reference_matchings(A, B)
    assert got == tuple(m for m, _ in expected)
    assert [derived(m) for m in got] == [values for _, values in expected]
    # the early-exit scan keeps exactly the even entries, also on vectors
    # that no form has, where an integer C can be odd
    assert even_matchings(A, B) == tuple(m for m in got if m.even)
    assert all(type(c) is Fraction for m in got for c in m.C)
    D = A.D
    phi = sum(1 for u in range(1, D) if gcd(u, D) == 1)
    assert sum(len(m.provenance) for m in got) == 2 * phi
    for m in got:
        assert all((D - u, epsilon) in m.provenance for u, epsilon in m.provenance)
    return got


@pytest.mark.parametrize("record", builtin_dataset(), ids=lambda r: r.name)
def test_engine_on_bundled_records_and_mirrors(record):
    try:
        A = correction_vector(record.form)
    except NonCyclicCokernelError:
        pytest.skip("non-cyclic cokernel: no matchings")
    if A.D == 1:
        pytest.skip("determinant 1: no matchings")
    B = gamma_vector(A.D)
    check_engine(A, B)
    check_engine(A.mirrored(), B)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms(max_dim=3, max_abs_det=45))
def test_engine_on_random_forms(form):
    assume(cyclic_odd(form))
    A = correction_vector(form)
    B = gamma_vector(A.D)
    check_engine(A, B)
    check_engine(A.mirrored(), B)


def symmetric_vector(D, head):
    """The symmetric vector over 4D with numerators head[min(i, D - i)]."""
    nums = tuple(head[min(i, D - i)] for i in range(D))
    return CorrectionVector(numerators=nums, generator=(1,))


def test_engine_input_must_be_symmetric():
    # the half-unit scan relies on A_i = A_(D-i); the vector refuses anything else
    with pytest.raises(ValidationError, match="A_i = A_"):
        CorrectionVector(tuple(range(7)), (1,))


@pytest.mark.parametrize("shift, even", [(2, True), (1, False)])
def test_engine_on_a_shifted_model(shift, even):
    # A = -B - shift gives the constant matching C = shift at unit 1 (and D - 1), epsilon +1
    B = gamma_vector(11)
    A = CorrectionVector(tuple(-b - 4 * 11 * shift for b in B.numerators), (1,))
    [m] = [m for m in check_engine(A, B) if m.C == (Fraction(shift),) * 11]
    assert m.even == even
    assert m.positive and m.symmetric and m.staircase
    assert m.provenance[:2] == ((1, 1), (10, 1))


def test_staircase_fails_on_a_jump_of_four_below_the_quarter_point():
    # C is even, positive and symmetric about the quarter point k = 3, and
    # climbs from C_1 = 0 to C_2 = 4: A = -B - C gives it at unit 1 (and
    # D - 1), epsilon +1, and no other pair gives a matching past the gate
    B = gamma_vector(11)
    C = (0, 0, 4, 4, 4, 0, 0, 4, 4, 4, 0)
    A = CorrectionVector(tuple(-b - 4 * 11 * c for b, c in zip(B.numerators, C)), (1,))
    [m] = [m for m in check_engine(A, B) if m.C == C]
    assert (m.even, m.positive, m.symmetric, m.staircase) == (True, True, True, False)
    assert A.gate
    verdict = obstruct(A, B, strong=True)
    assert (verdict.outcome, verdict.witnesses) == (Outcome.STAIRCASE_FAIL, (m,))
    assert verdict.outcome.obstructed
    assert obstruct(A, B).outcome == Outcome.NOT_OBSTRUCTED


def test_a_pair_even_at_its_first_three_entries_can_be_odd_later():
    # C = 1 at i = 3 and i = 8 and 0 elsewhere: A = -B - C gives it at unit 1,
    # epsilon +1, a pair that passes the narrowing by C_0, C_1 and C_2; no form
    # has this A, and the listing has no even entry, so no pair of it is even
    B = gamma_vector(11)
    C = tuple(44 * (i in (3, 8)) for i in range(11))
    A = CorrectionVector(tuple(-b - c for b, c in zip(B.numerators, C)), (1,))
    [m] = [m for m in check_engine(A, B) if m.numerators == C]
    assert (1, 1) in m.provenance and not m.even
    assert even_matchings(A, B) == ()
    assert obstruct(A, B).outcome == Outcome.NO_EVEN_MATCHING


SMALL_DETERMINANTS = [3, 5, 7, 9, 11, 13, 15, 21, 25, 27]


@st.composite
def heads_odd_past_the_narrowing(draw):
    """(D, head) for D >= 7: C = head[min(i, D - i)] is even at entries 0, 1
    and 2, so the pair that gives it passes the narrowing, and odd at one
    pair (i, D - i) with i >= 3, so its matching is not even."""
    D = draw(st.sampled_from([D for D in SMALL_DETERMINANTS if D >= 7]))
    head = [8 * D * draw(st.integers(min_value=-2, max_value=2)) for _ in range(D // 2 + 1)]
    head[draw(st.integers(min_value=3, max_value=D // 2))] += 4 * D
    return D, head


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SMALL_DETERMINANTS).flatmap(
        lambda D: st.tuples(
            st.just(D),
            st.lists(
                st.integers(min_value=-12 * D, max_value=12 * D),
                min_size=(D + 1) // 2,
                max_size=(D + 1) // 2,
            ),
        )
    ),
    heads_odd_past_the_narrowing(),
)
def test_engine_on_random_symmetric_vectors(case, planted):
    D, head = case
    check_engine(symmetric_vector(D, head), gamma_vector(D))
    # A = -B - C gives C at unit 1, epsilon = +1
    D, head = planted
    B = gamma_vector(D)
    A = symmetric_vector(D, [-b - c for b, c in zip(B.numerators, head)])
    [m] = [m for m in check_engine(A, B) if (1, 1) in m.provenance]
    assert m.numerators == symmetric_vector(D, head).numerators and not m.even
