"""The correction terms against the surgery oracles in ``oracles.py``.

The oracles share no code with the box scan or the model vector: chain
plumbings bound lens spaces, B is the correction vector of L(D, 2), and a
companion's torsion must reproduce A under D/2-surgery.  The two-bridge
classification gives hundreds of knots with a known answer: none with
unknotting number one may be obstructed.
"""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_tables as ref
from oracles import (
    chain_rows,
    equal_up_to_symmetry,
    hirzebruch_jung,
    hirzebruch_jung_weights,
    lens_vector,
    surgery_d,
    two_bridge_signature,
    two_bridge_u1,
)
from unknotone.catalog import builtin_dataset, builtin_record, record_from_dict
from unknotone.corrections import correction_vector
from unknotone.gamma import gamma_vector
from unknotone.lattice import QuadraticForm
from unknotone.report import alexander_reports, analyze_record, sign_refined_record


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


# The two-bridge knots through seven crossings as S(p, q), with their
# unknotting numbers and |signature|; p/q is the continued fraction of the
# Conway notation (3_1 = 3, 4_1 = 2 2, ..., 7_7 = 2 1 1 1 2).
TWO_BRIDGE_KNOTS = {
    "3_1": (3, 1, 1, 2), "4_1": (5, 2, 1, 0), "5_1": (5, 1, 2, 4), "5_2": (7, 2, 1, 2),
    "6_1": (9, 2, 1, 0), "6_2": (11, 3, 1, 2), "6_3": (13, 5, 1, 0), "7_1": (7, 1, 3, 6),
    "7_2": (11, 2, 1, 2), "7_3": (13, 3, 2, 4), "7_4": (15, 4, 2, 2), "7_5": (17, 5, 2, 4),
    "7_6": (19, 8, 1, 2), "7_7": (21, 8, 1, 0),
}


def test_two_bridge_oracle_small_knots():
    for name, (p, q, u, sigma) in TWO_BRIDGE_KNOTS.items():
        assert two_bridge_u1(p, q) == (u == 1), name
        assert abs(two_bridge_signature(p, q)) == sigma, name
        # S(p, q), S(p, q^-1) and the mirror S(p, p - q) are one knot up to mirroring
        for other in (pow(q, -1, p), p - q):
            assert two_bridge_u1(p, other) == (u == 1), name
            assert abs(two_bridge_signature(p, other)) == sigma, name
    assert hirzebruch_jung_weights(21, 8) == [3, 3, 3]
    assert all(
        hirzebruch_jung(hirzebruch_jung_weights(p, q)) == (p, q)
        for p in range(2, 40)
        for q in range(1, p)
        if gcd(p, q) == 1
    )


def two_bridge_chains(max_p, max_box):
    """(p, q, rows) for odd p <= max_p and the chain of p/q, with a box of at most max_box points."""
    for p in range(3, max_p + 1, 2):
        for q in range(1, p):
            weights = hirzebruch_jung_weights(p, q) if gcd(p, q) == 1 else None
            if weights and prod(a + 1 for a in weights) <= max_box:
                yield p, q, chain_rows(weights)


def test_two_bridge_knots_with_unknotting_number_one_are_not_obstructed():
    chains = list(two_bridge_chains(61, 5000))
    assert len(chains) == 563
    unknotted = 0
    for p, q, rows in chains:
        A = correction_vector(QuadraticForm.from_rows(rows))
        # Manolescu-Owens: 2 d(Sigma(K), s_0) = -sigma / 2 for alternating K
        assert -4 * A.values[0] == two_bridge_signature(p, q), (p, q)
        if not two_bridge_u1(p, q):
            continue
        unknotted += 1
        for strong in (False, True):
            record = record_from_dict({"name": f"S({p},{q})", "goeritz": rows})
            report = analyze_record(record, strong=strong)
            assert not report.outcome.obstructed, (p, q, strong, report.outcome)
    assert unknotted == 168


def test_two_bridge_knots_with_unknotting_number_one_pass_the_sign_refined_test():
    # the chain of p/q stored with the signature of S(p, q): one of the two
    # crossing signs must leave the knot unobstructed; with the opposite
    # signature the test must have teeth and obstruct some of them
    unknotted = obstructed_mirrored = 0
    for p, q, rows in two_bridge_chains(61, 5000):
        if not two_bridge_u1(p, q):
            continue
        unknotted += 1
        sigma = two_bridge_signature(p, q)
        for signature in (sigma, -sigma):
            entry = {"name": f"S({p},{q})", "goeritz": rows, "signature": signature}
            signed = sign_refined_record(record_from_dict(entry))
            both = (signed.negative_to_positive, signed.positive_to_negative)
            obstructed = all(v.outcome.obstructed for v in both)
            if signature == sigma:
                assert not obstructed, (p, q, [v.outcome for v in both])
            else:
                obstructed_mirrored += obstructed
    assert unknotted == 168
    assert obstructed_mirrored > 0  # 92 of the 168


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
