"""The integer matching engine against a plain Fraction enumeration.

The reference scans every unit and both signs on ``Fraction``s and applies
the four filters to the ``Fraction`` entries, as the definitions read.  The
engine must return the very same tuple: C, unit, sign, provenance, flags
and order.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from helpers import numerators_over_4d, reference_classify
from test_properties import cyclic_odd, negative_definite_forms
from unknotone.catalog import builtin_dataset
from unknotone.corrections import CorrectionVector, correction_vector
from unknotone.errors import NonCyclicCokernelError, ValidationError
from unknotone.gamma import gamma_vector
from unknotone.matching import Matching, Outcome, enumerate_matchings, even_matchings, obstruct


def reference_matchings(A, B):
    D = A.D
    found = {}
    for epsilon in (1, -1):
        for u in range(1, D):
            if gcd(u, D) == 1:
                C = tuple(-B.values[i] - epsilon * A.values[(u * i) % D] for i in range(D))
                found.setdefault(C, []).append((u, epsilon))
    out = []
    for C, provenance in found.items():
        provenance.sort(key=lambda pair: (-pair[1], pair[0]))
        u, epsilon = provenance[0]
        m = Matching(
            D=D, numerators=numerators_over_4d(D, C), unit=u, epsilon=epsilon,
            provenance=tuple(provenance),
        )
        out.append(reference_classify(m))
    out.sort(key=lambda m: m.C)
    return tuple(out)


def check_engine(A, B):
    got = enumerate_matchings(A, B)
    assert got == reference_matchings(A, B)
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
    return CorrectionVector(D=D, numerators=nums, generator=(1,))


def test_engine_input_must_be_symmetric():
    # the half-unit scan relies on A_i = A_(D-i); the vector refuses anything else
    with pytest.raises(ValidationError, match="A_i = A_"):
        CorrectionVector(7, tuple(range(7)), (1,))
    with pytest.raises(ValidationError, match="7 entries"):
        CorrectionVector(7, (0,) * 6, (1,))


@pytest.mark.parametrize("shift, even", [(2, True), (1, False)])
def test_engine_on_a_shifted_model(shift, even):
    # A = -B - shift gives the constant matching C = shift at unit 1 (and D - 1), epsilon +1
    B = gamma_vector(11)
    A = CorrectionVector(11, tuple(-b - 4 * 11 * shift for b in B.numerators), (1,))
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
    A = CorrectionVector(11, tuple(-b - 4 * 11 * c for b, c in zip(B.numerators, C)), (1,))
    [m] = [m for m in check_engine(A, B) if m.C == C]
    assert (m.even, m.positive, m.symmetric, m.staircase) == (True, True, True, False)
    assert A.gate
    verdict = obstruct(A, B, strong=True)
    assert (verdict.outcome, verdict.witnesses) == (Outcome.STAIRCASE_FAIL, (m,))
    assert verdict.outcome.obstructed
    assert obstruct(A, B).outcome == Outcome.NOT_OBSTRUCTED


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 9, 11, 13, 15, 21, 25, 27]).flatmap(
        lambda D: st.tuples(
            st.just(D),
            st.lists(
                st.integers(min_value=-12 * D, max_value=12 * D),
                min_size=(D + 1) // 2,
                max_size=(D + 1) // 2,
            ),
        )
    )
)
def test_engine_on_random_symmetric_vectors(case):
    D, head = case
    check_engine(symmetric_vector(D, head), gamma_vector(D))
