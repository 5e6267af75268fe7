from fractions import Fraction

import pytest

from helpers import numerators_over_4d, rebuilt, reference_classify
from unknotone.alexander import (
    AlexanderPolynomial,
    lspace_coefficient_check,
    polynomial_from_torsion,
    residue_to_torsion_index,
    torsion_from_matching,
    torsion_from_polynomial,
)
from unknotone.errors import TorsionExtractionError, ValidationError
from unknotone.gamma import gamma_vector
from unknotone.matching import Matching


def test_trefoil_torsion():
    poly = polynomial_from_torsion((1, 0))
    assert poly.a0 == -1
    assert poly.higher == (1,)
    assert poly.evaluate_at_one() == 1


def test_zero_torsion_gives_unknot():
    poly = polynomial_from_torsion((0,))
    assert poly.a0 == 1
    assert poly.higher == ()
    assert poly.terms() == "1"


def test_seven_four_torus_polynomial_roundtrip():
    # the (7,4) torus knot: second differences of its torsion recover it
    torsion = (4, 3, 2, 2, 2, 1, 1, 1, 1, 0)
    poly = polynomial_from_torsion(torsion)
    assert poly.a0 == -1
    assert poly.higher == (0, 1, 0, -1, 1, 0, 0, -1, 1)
    assert torsion_from_polynomial(poly) == torsion
    assert lspace_coefficient_check(poly)


def test_terms_rendering():
    poly = polynomial_from_torsion((4, 3, 2, 2, 2, 1, 1, 1, 1, 0))
    assert poly.terms() == (
        "-1 + (T^2 + T^-2) - (T^4 + T^-4) + (T^5 + T^-5) - (T^8 + T^-8) + (T^9 + T^-9)"
    )


def test_roundtrip_examples():
    for torsion in [(0,), (1, 0), (2, 1, 1, 0), (4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 0)]:
        poly = polynomial_from_torsion(torsion)
        assert poly.evaluate_at_one() == 1
        assert torsion_from_polynomial(poly) == tuple(torsion)


def test_coefficient_check_rejections():
    with_two = AlexanderPolynomial(a0=-3, higher=(2,))
    assert not lspace_coefficient_check(with_two)
    same_sign_adjacent = AlexanderPolynomial(a0=1, higher=(1, -1, 1, -1))
    # signs from the top: -1, +1, -1, +1, then a0 = +1 repeats +1
    assert not lspace_coefficient_check(same_sign_adjacent)


def test_normalisation_enforced():
    with pytest.raises(ValidationError):
        AlexanderPolynomial(a0=0, higher=(1,))
    with pytest.raises(ValidationError):
        AlexanderPolynomial(a0=1, higher=(1, 0))


def _symmetric_matching(D, window_values, start):
    n = (D + 1) // 2
    head = [Fraction(0)] * n
    for j, v in enumerate(window_values):
        head[start + j] = Fraction(v)
    C = head + [head[D - i] for i in range(n, D)]
    return reference_classify(Matching(
        D=D, numerators=numerators_over_4d(D, C), unit=1, epsilon=1, provenance=((1, 1),)
    ))


def test_nine_33_extraction_from_its_matching():
    # the symmetric matching of 9_33, with the torsion it actually carries
    window = (2, 2, 2, 2, 4, 4, 4, 6, 6, 8, 6, 6, 4, 4, 4, 2, 2, 2, 2)
    m = _symmetric_matching(61, window, 6)
    assert m.even and m.positive and m.symmetric
    B = gamma_vector(61)
    torsion = torsion_from_matching(m, B)
    assert torsion == (4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 0)
    poly = polynomial_from_torsion(torsion)
    assert lspace_coefficient_check(poly)
    # content check: the torsion content is pinned by the matching alone,
    # independent of any index bookkeeping
    content = torsion[0] + 2 * sum(torsion[1:])
    single = m.C[B.singly_attained_index]
    assert 4 * content == sum(m.C) + 2 * single


def test_torsion_requires_symmetric_even_positive():
    window = (2, 2, 4, 2, 2, 2)
    m = _symmetric_matching(27, (0,), 0)
    B = gamma_vector(27)
    # build the asymmetric 8_10 matching by hand
    head = [Fraction(0)] * 14
    for j, v in enumerate(window):
        head[5 + j] = Fraction(v)
    C = head + [head[27 - i] for i in range(14, 27)]
    asym = reference_classify(Matching(
        D=27, numerators=numerators_over_4d(27, C), unit=1, epsilon=1, provenance=((1, 1),)
    ))
    assert not asym.symmetric
    with pytest.raises(ValidationError):
        torsion_from_matching(asym, B)


def test_torsion_requires_even_entries():
    # the 9_33 matching halved: consistent on every class, but odd entries
    window = (1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1)
    m = rebuilt(_symmetric_matching(61, window, 6), even=True)
    assert m.positive and m.symmetric and m.C[0] == 0
    with pytest.raises(ValidationError, match="even matching"):
        torsion_from_matching(m, gamma_vector(61))


def test_torsion_requires_zero_at_origin():
    D = 11
    head = [Fraction(2)] * 6
    C = head + [head[D - i] for i in range(6, D)]
    m = reference_classify(Matching(
        D=D, numerators=numerators_over_4d(D, C), unit=1, epsilon=1, provenance=((1, 1),)
    ))
    assert m.symmetric
    B = gamma_vector(D)
    with pytest.raises(ValidationError, match="C_0"):
        torsion_from_matching(m, B)


def test_zero_matching_gives_zero_torsion():
    m = _symmetric_matching(27, (0,), 0)
    B = gamma_vector(27)
    assert torsion_from_matching(m, B) == (0,)
    assert polynomial_from_torsion((0,)).terms() == "1"


def test_inconsistent_classes_detected():
    # fabricate a vector that pretends to be symmetric but assigns two
    # different values to one integer-surgery class
    D = 27
    B = gamma_vector(D)
    n = B.n
    head = [Fraction(0)] * n
    # positions 1 and 12 share a class for D = 27 (residues of kappa list)
    r = B.v_index[1]
    partner = next(i for i in range(D) if i != 1 and B.v_index[i] == r)
    head[1] = Fraction(2)
    C = head + [head[D - i] for i in range(n, D)]
    C = list(C)
    if partner < n:
        C[partner] = Fraction(4)
        C[(D - partner) % D] = Fraction(4)
    else:
        C[partner] = Fraction(4)
        C[D - partner] = Fraction(4)
    m = Matching(
        D=D, numerators=numerators_over_4d(D, C), unit=1, epsilon=1, provenance=((1, 1),),
        even=True, positive=True, symmetric=True,
    )
    with pytest.raises(TorsionExtractionError):
        torsion_from_matching(m, B)


def test_residue_folding_is_symmetric():
    n = 31
    for r in range(1, 2 * n, 2):
        assert residue_to_torsion_index(r, n) == residue_to_torsion_index((-r) % (2 * n), n)
        assert 0 <= residue_to_torsion_index(r, n) <= n // 2


def test_every_residue_folds_into_the_torsion_range():
    # indices above n // 2 are never assigned, so a longer torsion list in
    # torsion_from_matching would only gain zeros, which the trim removes
    for n in range(1, 401):
        assert all(0 <= residue_to_torsion_index(r, n) <= n // 2 for r in range(2 * n)), n
