from math import gcd

import pytest

from helpers import characteristic_candidates, coset_label, evaluate, pairing, q_map
from unknotone.corrections import correction_vector
from unknotone.errors import SingularFormError, ValidationError
from unknotone.lattice import QuadraticForm, cokernel, cokernel_generator

EIGHT_TEN = [[-4, 1, 1], [1, -2, 1], [1, 1, -5]]


def test_rejects_asymmetric_matrix():
    with pytest.raises(ValidationError, match="symmetric"):
        QuadraticForm.from_rows([[-2, 1], [0, -2]])


def test_rejects_non_square_and_non_integer():
    with pytest.raises(ValidationError):
        QuadraticForm.from_rows([[-2, 1]])
    with pytest.raises(ValidationError):
        QuadraticForm.from_rows([[-2.0]])


def test_det_and_definiteness():
    q = QuadraticForm.from_rows(EIGHT_TEN)
    assert q.det == -27
    assert q.is_negative_definite
    assert not QuadraticForm.from_rows([[1]]).is_negative_definite
    assert not QuadraticForm.from_rows([[-1, 2], [2, -1]]).is_negative_definite


def test_pairing_examples():
    # pairing(form, v) / |det| is v^t G^{-1} v
    assert pairing(QuadraticForm.from_rows([[-1]]), (1,)) == -1
    q = QuadraticForm.from_rows([[-2, 1], [1, -2]])
    assert pairing(q, (2, 0)) == -8  # -8/3
    assert pairing(q, (1, 0)) == -2  # -2/3
    assert pairing(q, (1, 1)) == -6  # (1, 1) = q(-1, -1), Q = -2


def test_pairing_zero_vector_model_form():
    q = QuadraticForm.from_rows([[-14, 1], [1, -2]])
    assert pairing(q, (0, 0)) == 0


def test_q_map_and_evaluate():
    # on the image of q the pairing is the form: q(u)^t G^{-1} q(u) = Q(u, u)
    q = QuadraticForm.from_rows([[-2, 1], [1, -2]])
    assert q_map(q, (1, 0)) == (-2, 1)
    assert evaluate(q, (1, 1)) == -2
    for rows in ([[-2, 1], [1, -2]], EIGHT_TEN, [[-14, 1], [1, -2]]):
        form = QuadraticForm.from_rows(rows)
        for u in ((1, 0, 0), (0, 1, -1), (2, -3, 1)):
            u = u[: form.dim]
            assert pairing(form, q_map(form, u)) == abs(form.det) * evaluate(form, u)


def test_characteristic_candidates_small():
    assert set(characteristic_candidates(QuadraticForm.from_rows([[-1]]))) == {(-1,), (1,)}
    grid = set(characteristic_candidates(QuadraticForm.from_rows([[-2, 1], [1, -2]])))
    assert grid == {(a, b) for a in (-2, 0, 2) for b in (-2, 0, 2)}


def test_cokernel_cyclic_order_three():
    assert cokernel(QuadraticForm.from_rows([[-2, 1], [1, -2]])) == (3,)


def test_cokernel_non_cyclic():
    assert cokernel(QuadraticForm.from_rows([[-3, 0], [0, -3]])) == (3, 3)


def test_cokernel_eight_ten():
    assert cokernel(QuadraticForm.from_rows(EIGHT_TEN)) == (27,)


def test_cokernel_singular():
    with pytest.raises(SingularFormError):
        cokernel(QuadraticForm.from_rows([[-2, 2], [2, -2]]))


def test_coset_labels_separate_and_identify():
    # the tests' label: v ~ w exactly when v - w = q(u) for some u; here
    # |G^{-1}| has entries at most 2/3, so every |u_i| <= 8 for |v - w| <= 6
    q = QuadraticForm.from_rows([[-2, 1], [1, -2]])
    image = {q_map(q, (a, b)) for a in range(-8, 9) for b in range(-8, 9)}
    vectors = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for v in vectors:
        for w in vectors:
            diff = (v[0] - w[0], v[1] - w[1])
            assert (coset_label(q, v) == coset_label(q, w)) == (diff in image)


def test_generator_fallback_when_no_basis_covector_generates():
    # coker = Z/15 but each coordinate covector only reaches a proper subgroup
    form = QuadraticForm.from_rows([[-3, 0], [0, -5]])
    assert cokernel(form) == (15,)
    assert gcd(15, *coset_label(form, cokernel_generator(form))) == 1


@pytest.mark.parametrize(
    "rows, generator, numerators",
    [
        (
            [[-3, 0], [0, -5]],
            (2, 4),
            (-90, 22, -2, -42, 22, -50, -18, -2, -2, -18, -50, 22, -42, -2, 22),
        ),
        # e_0 and e_1 have order 3 and e_2 order 5 in Z/15
        (
            [[-2, 1, 0], [1, -2, 0], [0, 0, -5]],
            (1, 0, 4),
            (-30, 2, -22, 18, 2, -70, 42, -22, -22, 42, -70, 2, 18, -22, 2),
        ),
    ],
)
def test_generator_fallback_pick_is_pinned(rows, generator, numerators):
    # the fallback's pick fixes the printed generator and the order of A
    form = QuadraticForm.from_rows(rows)
    basis = [tuple(int(j == i) for j in range(form.dim)) for i in range(form.dim)]
    # a label generates Z/15 when it is prime to 15
    assert all(gcd(15, *coset_label(form, e)) > 1 for e in basis)
    assert cokernel_generator(form) == generator
    A = correction_vector(form)
    assert (A.generator, A.numerators) == (generator, numerators)


@pytest.mark.parametrize(
    "rows, generator",
    [
        ([[-2, -1], [-1, -2]], (0, 1)),
        # e_2's label is 0, so only e_0 and e_1 generate, with one label
        ([[-2, -1, 1], [-1, -2, -1], [1, -1, -3]], (0, 1, 0)),
    ],
)
def test_generator_pick_on_tied_labels_takes_the_higher_coordinate(rows, generator):
    # a plain minimum over (label, i) would pick e_0 on both forms
    form = QuadraticForm.from_rows(rows)
    assert coset_label(form, (1,) + (0,) * (form.dim - 1)) == coset_label(form, generator)
    assert cokernel_generator(form) == generator
    assert correction_vector(form).generator == generator


def test_dimension_zero_form():
    q = QuadraticForm.from_rows([])
    assert q.dim == 0
    assert cokernel(q) == ()
    assert cokernel_generator(q) == ()
