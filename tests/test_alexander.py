import random
from fractions import Fraction

import pytest

from helpers import classified, fold_residue, numerators_over_4d, reference_torsion
from oracles import torsion_from_polynomial
from unknotone.alexander import (
    AlexanderPolynomial,
    lspace_coefficient_check,
    polynomial_from_torsion,
    torsion_from_matching,
)
from unknotone.errors import ValidationError
from unknotone.gamma import gamma_vector
from unknotone.matching import Matching, quarter_point


def test_trefoil_torsion():
    poly = polynomial_from_torsion((1, 0))
    assert poly.a0 == -1
    assert poly.higher == (1,)
    assert poly.a0 + 2 * sum(poly.higher) == 1


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
        assert poly.a0 + 2 * sum(poly.higher) == 1
        assert torsion_from_polynomial(poly) == tuple(torsion)


def test_coefficient_check_rejections():
    with_two = AlexanderPolynomial(higher=(2,))
    assert with_two.a0 == -3
    assert not lspace_coefficient_check(with_two)
    same_sign_adjacent = AlexanderPolynomial(higher=(1, -1, 1, -1))
    assert same_sign_adjacent.a0 == 1
    # signs from the top: -1, +1, -1, +1, then a0 = +1 repeats +1
    assert not lspace_coefficient_check(same_sign_adjacent)


def test_normalisation_enforced():
    # a_0 follows from Delta(1) = 1, so only the higher coefficients are given
    for higher in [(), (1,), (0, 1, 0, -1), (3, -2)]:
        poly = AlexanderPolynomial(higher)
        assert poly.a0 + 2 * sum(poly.higher) == 1
    with pytest.raises(ValidationError):
        AlexanderPolynomial(higher=(1, 0))


def _symmetric_matching(D, window_values, start):
    n = (D + 1) // 2
    head = [Fraction(0)] * n
    for j, v in enumerate(window_values):
        head[start + j] = Fraction(v)
    return classified(head + [head[D - i] for i in range(n, D)])


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
    asym = classified(head + [head[27 - i] for i in range(14, 27)])
    assert not asym.symmetric
    with pytest.raises(ValidationError):
        torsion_from_matching(asym, B)


def test_torsion_requires_a_comparison_vector_of_the_same_determinant():
    m = _symmetric_matching(27, (0,), 0)
    with pytest.raises(ValidationError, match="different determinants"):
        torsion_from_matching(m, gamma_vector(29))


def test_torsion_requires_even_entries():
    # the 9_33 matching halved: consistent on every class, but odd entries,
    # which the even filter sees
    window = (1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1)
    halved = _symmetric_matching(61, window, 6)
    assert halved.positive and halved.symmetric and halved.C[0] == 0
    assert not halved.even
    with pytest.raises(ValidationError, match="even, positive, symmetric"):
        torsion_from_matching(halved, gamma_vector(61))
    # the 9_33 matching with odd entries past D/2, where no filter reads:
    # entry i and entry D - i differ, so no matching holds these entries
    window = (2, 2, 2, 2, 4, 4, 4, 6, 6, 8, 6, 6, 4, 4, 4, 2, 2, 2, 2)
    C = _symmetric_matching(61, window, 6).C
    C = C[:31] + tuple(c + 1 for c in C[31:])
    with pytest.raises(ValidationError, match=r"A_i = A_\(D-i\)"):
        Matching(numerators_over_4d(61, C), ((1, 1),))


def test_torsion_requires_zero_at_origin():
    D = 11
    head = [Fraction(2)] * 6
    m = classified(head + [head[D - i] for i in range(6, D)])
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
    # a vector whose entries i <= D/2, all that the filters read, are 0,
    # but which gives two values to one integer-surgery class: for D = 27
    # the positions 7 and 20 = D - 7 share a class, and C is 2 at 20 only
    D = 27
    B = gamma_vector(D)
    assert B.v_index[7] == B.v_index[20]
    C = [Fraction(0)] * D
    C[20] = Fraction(2)
    with pytest.raises(ValidationError, match=r"A_i = A_\(D-i\)"):
        Matching(numerators_over_4d(D, C), ((1, 1),))


@pytest.fixture(scope="module")
def folded_classes():
    """(D, B, the fold of each position's class residue) for every odd D in 3..1001,
    built once for the three sweeps below."""
    out = []
    for D in range(3, 1002, 2):
        B = gamma_vector(D)
        out.append((D, B, [fold_residue(residue, B.n) for residue in B.v_index]))
    return out


def test_residue_folding_is_symmetric(folded_classes):
    n = 31
    for r in range(1, 2 * n, 2):
        assert fold_residue(r, n) == fold_residue((-r) % (2 * n), n)
        assert 0 <= fold_residue(r, n) <= n // 2
    # positions i and D - i of the classes gamma --json prints fold alike
    for D, _, folded in folded_classes:
        assert all(folded[i] == folded[D - i] for i in range(1, D)), D


def test_every_residue_folds_into_the_torsion_range(folded_classes):
    # indices above n // 2 = k are never assigned, so the torsion read off
    # a matching has at most k + 1 entries before the trim
    for n in range(1, 401):
        assert all(0 <= fold_residue(r, n) <= n // 2 for r in range(2 * n)), n
    for D, B, folded in folded_classes:
        assert B.n // 2 == quarter_point(D), D
        assert set(folded) == set(range(B.n // 2 + 1)), D


def test_every_position_restricts_to_its_distance_from_the_quarter_point(folded_classes):
    # the index transport of the alexander docstring, against the residue
    # fold of the integer-surgery classes that gamma --json prints
    for D, _, folded in folded_classes:
        k = quarter_point(D)
        assert folded == [abs(min(i, D - i) - k) for i in range(D)], D


def seeded_symmetric_matchings(count, seed):
    """Even, positive matchings with C_0 = 0, C_i = C_(D-i) and C_i = C_(2k-i), odd D in 3..399.

    The entries i <= D/2 are seeded even numbers, zero below a seeded
    cutoff (so that some torsion ends in a run of zeros), then made
    symmetric about k over the symmetric filter's range; C_0 is 0 and the
    rest mirrors the half.
    """
    rng = random.Random(seed)
    for _ in range(count):
        D = rng.randrange(3, 400, 2)
        k = quarter_point(D)
        cutoff = rng.randint(0, k)
        half = [0] * cutoff + [2 * rng.randint(0, 6) for _ in range(D // 2 + 1 - cutoff)]
        half[0] = 0
        for i in range(1 if D % 4 == 3 else 0, k):
            half[2 * k - i] = half[i]
        C = [Fraction(half[min(i, D - i)]) for i in range(D)]
        yield Matching(numerators_over_4d(D, C), ((1, 1),))


def test_torsion_agrees_with_the_residue_transport():
    matchings = list(seeded_symmetric_matchings(300, seed=1))
    assert all(m.even and m.positive and m.symmetric and m.numerators[0] == 0 for m in matchings)
    assert {m.D % 4 for m in matchings} == {1, 3}
    for m in matchings:
        B = gamma_vector(m.D)
        assert torsion_from_matching(m, B) == reference_torsion(m, B), m.D
