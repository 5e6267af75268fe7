from fractions import Fraction

import pytest

from helpers import B27, model_form, pairing, spin_reference_value
from unknotone.errors import ValidationError
from unknotone.gamma import gamma_vector, kappa_list
from unknotone.lattice import BOX_BUDGET

def test_model_form_matrix():
    assert model_form(27).gram == ((-14, 1), (1, -2))
    assert model_form(27).det == 27


def test_model_form_rejects_bad_determinant():
    # 6 and 10 are even but not multiples of 4
    for bad in (1, 2, 4, 6, 10, -3):
        with pytest.raises(ValidationError) as info:
            gamma_vector(bad)
        assert str(info.value) == f"model form needs an odd determinant >= 3, got {bad}"


def test_kappa_list_small_even():
    assert kappa_list(2) == [(0, 0), (2, 0), (-2, 0)]


def test_kappa_list_small_odd():
    assert kappa_list(3) == [(1, -2), (3, -2), (-1, 0), (1, 0), (3, 0)]


@pytest.mark.parametrize("n", range(2, 26))
def test_kappa_list_length_and_parity(n):
    kappas = kappa_list(n)
    assert len(kappas) == 2 * n - 1
    for a, b in kappas:
        assert (a - n) % 2 == 0
        assert b % 2 == 0


def test_kappa_list_rejects_small_n():
    with pytest.raises(ValidationError):
        kappa_list(1)


def test_gamma_27_matches_published_list():
    assert list(gamma_vector(27).values) == B27


def test_gamma_3():
    assert list(gamma_vector(3).values) == [Fraction(1, 2), Fraction(-1, 6), Fraction(-1, 6)]


def test_gamma_refuses_d_above_the_box_budget():
    with pytest.raises(ValidationError, match="above the budget"):
        gamma_vector(BOX_BUDGET + 1)


@pytest.mark.parametrize("D", range(3, 60, 2))
def test_gamma_conjugation_symmetry(D):
    B = gamma_vector(D)
    assert all(B.values[i] == B.values[(D - i) % D] for i in range(D))


@pytest.mark.parametrize("D", range(3, 60, 2))
def test_gamma_defining_identity(D):
    B = gamma_vector(D)
    form = model_form(D)
    for kappa, value in zip(B.kappas, B.values):
        assert 4 * value - 2 == Fraction(pairing(form, kappa), abs(form.det))


def test_spin_reference_value_parity_split():
    # D = 2n - 1: value is 0 for odd n, 1/2 for even n
    assert spin_reference_value(27) == Fraction(1, 2)  # n = 14
    assert spin_reference_value(61) == 0  # n = 31
    assert gamma_vector(27).values[0] == Fraction(1, 2)
    assert gamma_vector(61).values[0] == 0


def test_vw_correspondence_small():
    assert gamma_vector(3).v_index == (0, 2, 2)


@pytest.mark.parametrize("n", range(2, 20))
def test_vw_each_class_twice_except_one(n):
    residues = gamma_vector(2 * n - 1).v_index
    counts = {}
    for r in residues:
        counts[r] = counts.get(r, 0) + 1
    assert sorted(counts.values()) == [1] + [2] * (len(counts) - 1)
    B = gamma_vector(2 * n - 1)
    expected_single = 0 if n % 2 == 0 else n - 1
    assert B.singly_attained_index == expected_single


@pytest.mark.parametrize("n", range(2, 16))
def test_vw_conjugate_positions_carry_negated_residues(n):
    residues = gamma_vector(2 * n - 1).v_index
    k = n // 2
    mod = 2 * n
    if n % 2 == 0:
        span = range(1, k)
    else:
        span = range(0, k)
    for i in span:
        assert (residues[i] + residues[2 * k - i]) % mod == 0
