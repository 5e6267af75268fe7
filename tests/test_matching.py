from fractions import Fraction
from math import gcd, isqrt

import pytest

from helpers import classified
from unknotone.catalog import record_from_dict
from unknotone.corrections import correction_vector
from unknotone.errors import ValidationError
from unknotone.gamma import gamma_vector
from unknotone import matching as matching_mod
from unknotone.lattice import QuadraticForm, prime_factors
from unknotone.matching import (
    Outcome,
    enumerate_matchings,
    format_compact,
    obstruct,
    quarter_point,
    half_units,
    check_listing_budget,
    sign_refined_obstruct,
)
from unknotone.report import analyze_record

EIGHT_TEN = QuadraticForm.from_rows([[-4, 1, 1], [1, -2, 1], [1, 1, -5]])
NINE_FIVE = QuadraticForm.from_rows([[-6, 1], [1, -4]])


@pytest.fixture(scope="module")
def eight_ten_pair():
    A = correction_vector(EIGHT_TEN)
    return A, gamma_vector(27)


def test_quarter_point():
    assert quarter_point(27) == 7  # 27 = 4*7 - 1
    assert quarter_point(29) == 7  # 29 = 4*7 + 1
    with pytest.raises(ValidationError):
        quarter_point(10)


def test_half_units():
    assert half_units(9) == [1, 2, 4]
    for D in range(1, 1000, 2):
        units = [u for u in range(1, D) if gcd(u, D) == 1]
        half = half_units(D)
        assert half == [u for u in units if 2 * u < D], D
        # u and D - u pair off for odd D, so the listing budget's count is 2 phi(D) D
        assert 2 * len(half) == len(units), D
        phi = D
        for p in prime_factors(D):
            phi -= phi // p
        assert phi // 2 == len(half), D


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(349_999) == [13, 19, 109]
    assert prime_factors(1_990_917) == [3, 157, 1409]
    for n in range(1, 10_001):
        primes = prime_factors(n)
        assert primes == sorted(set(primes)), n
        rest = n
        for p in primes:
            assert all(p % q for q in range(2, isqrt(p) + 1)) and rest % p == 0, (n, p)
            while rest % p == 0:
                rest //= p
        assert rest == 1, n


def test_listing_budget_counts_the_half_units_without_listing_them(monkeypatch):
    def never(D):
        raise AssertionError("the listing budget listed the units")

    monkeypatch.setattr(matching_mod, "half_units", never)
    check_listing_budget(1999)
    # 3999 = 3 * 31 * 43: phi = 2520, so 4 * 3999 * 1260 entries
    with pytest.raises(ValidationError) as refused:
        check_listing_budget(3999)
    assert str(refused.value) == (
        "matching listing for D = 3999 has 20154960 entries, above the budget of 10000000"
    )


def test_eight_ten_unique_even_positive(eight_ten_pair):
    A, B = eight_ten_pair
    matchings = enumerate_matchings(A, B)
    assert all(m.C[i] == m.C[(27 - i) % 27] for m in matchings for i in range(27))
    even_positive = [m for m in matchings if m.even and m.positive]
    assert len(even_positive) == 1
    m = even_positive[0]
    assert format_compact(m) == "2, 2, [4], 2, 2, 2"
    assert not m.symmetric
    # exactly two units produce it, paired u and D - u, with epsilon = +1
    assert len(m.provenance) == 2
    (u1, e1), (u2, e2) = m.provenance
    assert e1 == e2 == 1
    assert (u1 + u2) % 27 == 0


def test_eight_ten_verdict(eight_ten_pair):
    A, B = eight_ten_pair
    verdict = obstruct(A, B)
    assert verdict.outcome is Outcome.NO_SYMMETRIC_MATCHING
    assert verdict.gate_applied
    assert [format_compact(m) for m in verdict.witnesses] == ["2, 2, [4], 2, 2, 2"]


def test_nine_five_witness():
    A = correction_vector(NINE_FIVE)
    B = gamma_vector(23)
    verdict = obstruct(A, B)
    assert verdict.outcome is Outcome.NO_EVEN_POSITIVE_MATCHING
    assert [format_compact(m) for m in verdict.witnesses] == ["-2, 0, 0, 0, 2, [2], 2"]


def test_dimension_mismatch():
    A = correction_vector(NINE_FIVE)
    with pytest.raises(ValidationError):
        enumerate_matchings(A, gamma_vector(27))


def test_classify_zero_matching():
    zero = classified((Fraction(0),) * 27)
    assert zero.even and zero.positive and zero.symmetric and zero.staircase
    assert format_compact(zero) == "(all zero)"


def test_classify_symmetry_ranges():
    # D = 11 = 4*3 - 1: symmetric needs C_i = C_{6-i} for i = 1, 2
    C = [Fraction(0)] * 11
    C[1] = C[5] = Fraction(2)
    C[2] = C[4] = Fraction(4)
    C[3] = Fraction(6)
    C[6] = C[11 - 6] # conjugation partner already set
    for i in range(6, 11):
        C[i] = C[11 - i]
    assert classified(C).symmetric
    C[5] = Fraction(0)
    C[6] = Fraction(0)
    assert not classified(C).symmetric


def test_classify_staircase():
    # climbing by 0 or 2 up to the quarter point passes
    D = 11
    C = [Fraction(0)] * D
    for i, v in zip(range(1, 6), (2, 2, 4, 2, 2)):
        C[i] = Fraction(v)
    for i in range(6, 11):
        C[i] = C[11 - i]
    assert classified(C).staircase  # 2 <= 2 <= 4 at i = 1, 2
    C[2] = C[D - 2] = Fraction(6)
    assert not classified(C).staircase


def test_gate_off_reports_but_does_not_require_symmetry():
    # chain [-7]: spin value -3/2, so the symmetry filter must not apply
    A = correction_vector(QuadraticForm.from_rows([[-7]]))
    assert not A.gate
    B = gamma_vector(7)
    verdict = obstruct(A, B)
    assert not verdict.gate_applied
    assert verdict.outcome in (
        Outcome.NOT_OBSTRUCTED,
        Outcome.NO_EVEN_MATCHING,
        Outcome.NO_EVEN_POSITIVE_MATCHING,
    )


def test_non_cyclic_verdict_via_record():
    record = record_from_dict({"name": "granny-ish", "goeritz": [[-3, 0], [0, -3]]})
    report = analyze_record(record)
    assert report.outcome is Outcome.NON_CYCLIC_H1
    assert report.invariant_factors == (3, 3)


def test_unknot_determinant_shortcut():
    record = record_from_dict({"name": "unknot", "goeritz": [[-1]]})
    report = analyze_record(record)
    assert report.outcome is Outcome.UNKNOT_DETERMINANT
    assert not report.outcome.obstructed


def test_sign_refined_signature_obstruction(eight_ten_pair):
    A, B = eight_ten_pair
    verdict = sign_refined_obstruct(A, B, -4)
    assert verdict.outcome is Outcome.SIGNATURE_OBSTRUCTION
    with pytest.raises(ValidationError):
        sign_refined_obstruct(A, B, 3)


def test_sign_refined_eight_ten_both_signs_obstructed(eight_ten_pair):
    A, B = eight_ten_pair
    assert sign_refined_obstruct(A, B, 0).outcome.obstructed
    assert sign_refined_obstruct(A.mirrored(), B, 0).outcome.obstructed


def test_sign_refined_uses_single_epsilon(eight_ten_pair):
    A, B = eight_ten_pair
    # 8_10's even matchings need epsilon = +1, which sigma = 0 forbids
    v0 = sign_refined_obstruct(A, B, 0)
    assert v0.outcome is Outcome.NO_EVEN_MATCHING
    # sigma = 2 selects epsilon = +1 and sees them
    v2 = sign_refined_obstruct(A, B, 2)
    assert v2.outcome is Outcome.NO_SYMMETRIC_MATCHING


def test_matchings_sorted_and_deterministic(eight_ten_pair):
    A, B = eight_ten_pair
    first = enumerate_matchings(A, B)
    second = enumerate_matchings(A, B)
    assert first == second
    assert [m.C for m in first] == sorted(m.C for m in first)


def test_classify_non_integer_entry_over_another_denominator():
    # 2/11 (8/44 over 4D) is not an even integer although its numerator
    # over 11 is even; its step from 0 is still at most 2
    C = [Fraction(0)] * 11
    C[3] = C[11 - 3] = Fraction(2, 11)
    m = classified(C)
    assert not m.even
    assert m.positive and m.symmetric and m.staircase


def test_c_is_a_fraction_view_of_the_numerators():
    A = correction_vector(QuadraticForm.from_rows([[-2, 1], [1, -50]]))
    B = gamma_vector(A.D)
    read, unread = enumerate_matchings(A, B), enumerate_matchings(A, B)
    for m, twin in zip(read, unread):
        assert m.C == tuple(Fraction(n, 4 * m.D) for n in m.numerators)
        # one Fraction per distinct numerator
        assert len({id(c) for c in m.C}) == len(set(m.C))
        assert "C" not in vars(twin)
        assert m == twin and hash(m) == hash(twin)
    twin_hash = hash(twin)
    twin.C
    assert hash(twin) == twin_hash and twin == m
