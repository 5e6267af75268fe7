"""The correction terms against the surgery oracles in ``oracles.py``.

The oracles share no code with the box scan or the model vector: chain
plumbings bound lens spaces, B is the correction vector of L(D, 2), and a
companion's torsion must reproduce A under D/2-surgery.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_tables as ref
from oracles import chain_rows, equal_up_to_symmetry, hirzebruch_jung, lens_vector, surgery_d
from unknotone.catalog import builtin_dataset, builtin_record
from unknotone.corrections import correction_vector
from unknotone.gamma import gamma_vector
from unknotone.lattice import QuadraticForm
from unknotone.report import alexander_reports


def test_oracle_small_values():
    assert hirzebruch_jung([5]) == (5, 1)
    assert hirzebruch_jung([2, 2]) == (3, 2)
    assert hirzebruch_jung([2, 3, 2]) == (8, 5)
    # d(-L(p, 1), i) = (p - (2i - p)^2) / (4p)
    assert lens_vector(5, 1) == [Fraction(5 - (2 * i - 5) ** 2, 20) for i in range(5)]
    assert lens_vector(1, 0) == [0]


def test_oracle_catches_a_changed_entry():
    d = lens_vector(15, 4)
    assert equal_up_to_symmetry(d, d)
    assert equal_up_to_symmetry([-d[(3 + 7 * k) % 15] for k in range(15)], d)
    changed = list(d)
    changed[5] += 2
    changed[10] += 2
    assert not equal_up_to_symmetry(changed, d)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=5))
@example([2, 5001])  # the two-bridge chain [[-2, 1], [1, -5001]]: D = 10001
def test_chain_corrections_are_lens_space_d(weights):
    p, q = hirzebruch_jung(weights)
    assume(p % 2 == 1)
    A = correction_vector(QuadraticForm.from_rows(chain_rows(weights)))
    assert A.D == p
    assert equal_up_to_symmetry(A.values, lens_vector(p, q))


@pytest.mark.parametrize("D", [*range(3, 200, 2), 10001])
def test_gamma_vector_is_lens_space_d(D):
    assert equal_up_to_symmetry(gamma_vector(D).values, lens_vector(D, 2))


def test_surgery_of_the_unknot_is_the_lens_space():
    assert surgery_d(15, 2, ()) == [-d for d in lens_vector(15, 2)]
    # the trefoil's 5/2-surgery: V_0 = 1 lowers d by 2 where floor(i/2) = 0 or
    # floor((6 - i)/2) = 0, that is at i = 0 and 1
    d = surgery_d(5, 2, (1,))
    assert [a - b for a, b in zip(d, surgery_d(5, 2, ()))] == [-2, -2, 0, 0, 0]


def test_companion_torsion_reproduces_A():
    # pins the matching-to-torsion index transport (alexander.residue_to_torsion_index)
    seen = []
    for record in builtin_dataset():
        for companion in alexander_reports(record):
            A = correction_vector(record.form)
            assert equal_up_to_symmetry(A.values, surgery_d(A.D, 2, companion.torsion)), (
                record.name,
                companion.torsion,
            )
            seen.append(record.name)
    assert {"3_1", "4_1", "5_2", "9_33"} <= set(seen)


def test_published_nine_33_torsion_fails_the_oracle():
    # the known-red printed companion T(4,7); see ROADMAP "Known red"
    A = correction_vector(builtin_record("9_33").form)
    published = ref.SIGN_REFINED_EXAMPLE["torsion"]
    assert published == (4, 3, 2, 2, 2, 1, 1, 1, 1, 0)
    assert not equal_up_to_symmetry(A.values, surgery_d(A.D, 2, published))
