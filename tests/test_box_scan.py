"""The box scans against plain references kept in this file.

The correction terms scan the reduced box and index each point directly
by its linking form with the generator; the class walk stops at the box
wall.  Each is compared with the direct computation it replaces: for the
correction terms, the maxima over the full box per tuple coset label,
listed by walking the multiples of the generator; for the class count, a
walk that follows every class to its end before deciding whether it stays
in the box.  The same full walk checks the lemmas behind the class walk's
seeds without calling the walk or the scan: every class inside the box
meets the reduced box, and every class that holds a coset maximiser lies
inside the box, so for odd D at least D classes do.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from helpers import unit_of_covector
from test_properties import cyclic_odd, negative_definite_forms
from unknotone import corrections
from unknotone.catalog import builtin_record
from unknotone.corrections import correction_vector, scan_box
from unknotone.errors import ValidationError
from unknotone.gamma import model_form
from unknotone.lattice import BOX_BUDGET, QuadraticForm, characteristic_box, cokernel
from unknotone.plumbing import PlumbingForm, class_count, plumbing_corrections
from unknotone.report import analyze_record


def reference_box(form):
    return product(*(range(d, -d + 1, 2) for d in (form.gram[i][i] for i in range(form.dim))))


def reference_classes(rows):
    """Each push class met from the box, walked in full: (members, inside)."""
    dim = len(rows)
    bound = [-rows[i][i] for i in range(dim)]
    cols = [tuple(2 * rows[j][i] for j in range(dim)) for i in range(dim)]

    def neighbours(vec):
        for i in range(dim):
            if vec[i] == bound[i]:
                yield tuple(a + b for a, b in zip(vec, cols[i]))
            elif vec[i] == -bound[i]:
                yield tuple(a - b for a, b in zip(vec, cols[i]))

    visited = set()
    for seed in reference_box(QuadraticForm.from_rows(rows)):
        if seed in visited:
            continue
        stack, members = [seed], {seed}
        while stack:
            for nxt in neighbours(stack.pop()):
                if nxt not in members:
                    members.add(nxt)
                    stack.append(nxt)
        visited |= members
        yield members, all(abs(v[i]) <= bound[i] for v in members for i in range(dim))


def reference_class_count(rows):
    """Walk every class in full; count those lying inside the box."""
    return sum(inside for _, inside in reference_classes(rows))


def reference_correction_values(form, generator=None):
    """Full-box maxima per tuple label, listed by a D-step walk of the generator."""
    structure = cokernel(form)
    best = {}
    for x in reference_box(form):
        label = structure.to_coset(x)
        value = form.pairing_numerator(x)
        best[label] = max(best.get(label, value), value)
    assert len(best) == structure.order
    step = structure.to_coset(generator or structure.generator)
    det = abs(form.det)
    values, label = [], structure.zero_label
    for _ in range(structure.order):
        values.append(Fraction(best[label] + form.dim * det, 4 * det))
        label = structure.add(label, step)
    assert label == structure.zero_label
    return tuple(values)


def assert_matches_reference(form, generator=None):
    """A, reindexed by the unit that lists it against ``generator``, against the reference."""
    A = correction_vector(form)
    if generator is not None:
        A = A.reindexed(unit_of_covector(form, generator))
    assert A.values == reference_correction_values(form, generator)


@st.composite
def star_plumbings_with_bad_vertex(draw):
    """Negative-definite stars whose centre has more legs than |weight|."""
    centre = draw(st.sampled_from([-1, -2]))
    legs = draw(
        st.lists(
            st.lists(st.integers(min_value=2, max_value=3), min_size=1, max_size=2),
            min_size=-centre + 1,
            max_size=3,
        )
    )
    weights = [centre] + [-w for leg in legs for w in leg]
    dim = len(weights)
    rows = [[weights[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    at = 1
    for leg in legs:
        previous = 0
        for _ in leg:
            rows[previous][at] = rows[at][previous] = 1
            previous, at = at, at + 1
    assume(QuadraticForm.from_rows(rows).is_negative_definite)
    return rows


@st.composite
def sign_flipped_stars(draw):
    """Stars of dimension 5..7 with e_i -> -e_i at some vertices.

    A flip negates the edges between a flipped and a kept vertex, so the
    off-diagonal entries take both signs.  A centre of weight -1 or -2 can
    be bad.
    """
    centre = draw(st.sampled_from([-1, -2, -3]))
    legs = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4).filter(
            lambda lengths: 4 <= sum(lengths) <= 6
        )
    )
    dim = 1 + sum(legs)
    weights = [centre] + draw(st.lists(st.sampled_from([-2, -3]), min_size=dim - 1, max_size=dim - 1))
    sign = draw(st.lists(st.sampled_from([1, -1]), min_size=dim, max_size=dim))
    rows = [[weights[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    at = 1
    for length in legs:
        previous = 0
        for _ in range(length):
            rows[previous][at] = rows[at][previous] = sign[previous] * sign[at]
            previous, at = at, at + 1
    assume(QuadraticForm.from_rows(rows).is_negative_definite)
    return rows


def test_box_budget_is_checked_before_scanning():
    assert len(characteristic_box(QuadraticForm.from_rows([[1 - BOX_BUDGET]]))[0]) == BOX_BUDGET
    with pytest.raises(ValidationError, match="above the budget"):
        characteristic_box(QuadraticForm.from_rows([[-BOX_BUDGET]]))
    huge = [[-41 if i == j else int(abs(i - j) == 1) for j in range(6)] for i in range(6)]
    with pytest.raises(ValidationError, match="5489031744 points"):
        class_count(PlumbingForm.from_rows(huge))
    with pytest.raises(ValidationError, match="5489031744 points"):
        correction_vector(QuadraticForm.from_rows(huge))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms())
def test_class_count_matches_full_walk(form):
    assert class_count(PlumbingForm(form)).count == reference_class_count(form.gram)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(star_plumbings_with_bad_vertex())
def test_class_count_matches_full_walk_on_stars_with_bad_vertex(rows):
    assert class_count(PlumbingForm.from_rows(rows)).count == reference_class_count(rows)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(sign_flipped_stars())
def test_class_count_matches_full_walk_on_sign_flipped_stars(rows):
    assert class_count(PlumbingForm.from_rows(rows)).count == reference_class_count(rows)


def assert_in_box_classes_meet_reduced_box(rows):
    """Every class inside the box has a member with x_i != G_ii for all i."""
    dim = len(rows)
    for members, inside in reference_classes(rows):
        if inside:
            assert any(all(x[i] != rows[i][i] for i in range(dim)) for x in members)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms())
def test_in_box_classes_meet_reduced_box(form):
    assert_in_box_classes_meet_reduced_box(form.gram)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(star_plumbings_with_bad_vertex())
def test_in_box_classes_meet_reduced_box_on_stars_with_bad_vertex(rows):
    assert_in_box_classes_meet_reduced_box(rows)


def assert_maximiser_classes_inside_box(rows):
    """Every class holding a full-box coset maximiser lies inside the box."""
    form = QuadraticForm.from_rows(rows)
    structure = cokernel(form)
    best = {}
    for x in reference_box(form):
        label, value = structure.to_coset(x), form.pairing_numerator(x)
        best[label] = max(best.get(label, value), value)
    inside_count = 0
    for members, inside in reference_classes(rows):
        inside_count += inside
        # a push adds 2 G e_i, which lies in q(V): a class lies in one coset
        most = best[structure.to_coset(next(iter(members)))]
        if any(form.pairing_numerator(x) == most for x in members):
            assert inside
    if structure.order % 2:
        # every coset holds characteristic covectors, so each has a maximiser,
        # and pushes keep the coset: the D maximiser classes are distinct
        assert len(best) == structure.order
        assert inside_count >= structure.order


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms())
def test_maximiser_classes_lie_inside_box(form):
    assert_maximiser_classes_inside_box(form.gram)


# the full walks of the star examples cost about 0.3 s each
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(star_plumbings_with_bad_vertex())
def test_maximiser_classes_lie_inside_box_on_stars_with_bad_vertex(rows):
    assert_maximiser_classes_inside_box(rows)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(sign_flipped_stars())
def test_maximiser_classes_lie_inside_box_on_sign_flipped_stars(rows):
    assert_maximiser_classes_inside_box(rows)


def test_maximiser_class_meeting_reduced_box_twice():
    # the class {(-4, -4), (-2, 4), (4, -2)} holds one coset's maximisers and
    # meets the reduced box at (-2, 4) and (4, -2): the scan settles one of
    # them, and the walk from the other reaches it and adds nothing
    rows = [[-4, -1], [-1, -4]]
    twice = [
        members
        for members, _ in reference_classes(rows)
        if sum(all(x[i] != rows[i][i] for i in range(2)) for x in members) == 2
    ]
    assert twice == [{(-4, -4), (-2, 4), (4, -2)}]
    assert_maximiser_classes_inside_box(rows)
    assert class_count(PlumbingForm.from_rows(rows)).count == reference_class_count(rows) == 15


@pytest.mark.parametrize("rows", [[[-2]], [[-3, 0], [0, -3]]], ids=["even", "non-cyclic"])
def test_class_count_without_coset_maxima(rows):
    # the scan refuses an even or non-cyclic cokernel, so no class is settled
    # before the walk
    plumbing = PlumbingForm.from_rows(rows)
    assert plumbing.scan is None
    assert class_count(plumbing).count == reference_class_count(rows)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms())
def test_coset_maxima_match_product_scan(form):
    assume(cyclic_odd(form))
    assert_matches_reference(form)
    # 2 g generates too, since D is odd
    assert_matches_reference(form, tuple(2 * a for a in cokernel(form).generator))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(star_plumbings_with_bad_vertex())
def test_coset_maxima_match_product_scan_on_stars(rows):
    form = QuadraticForm.from_rows(rows)
    assume(cyclic_odd(form))
    assert_matches_reference(form)


E8 = [
    [-2 if i == j else int({i, j} in ({0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {2, 7}))
     for j in range(8)]
    for i in range(8)
]


@pytest.mark.parametrize(
    "rows",
    [
        [[-1]],  # the reduced range is the single point x = 1
        [[-2, 1], [1, -1]],  # D = 1 in dimension 2
        E8,  # D = 1; the maximiser x = 0 lies in the reduced box {0, 2}^8
        [[-3, 0], [0, -5]],  # no coordinate covector generates Z/15
    ],
)
def test_reduced_scan_on_small_forms(rows):
    assert_matches_reference(QuadraticForm.from_rows(rows))


def test_one_point_box_and_unimodular_forms():
    assert characteristic_box(QuadraticForm.from_rows([[-1]])) == [range(-1, 2, 2)]
    assert correction_vector(QuadraticForm.from_rows([[-1]])).values == (0,)
    assert correction_vector(QuadraticForm.from_rows(E8)).values == (2,)


@pytest.mark.parametrize("D", [3, 5, 27, 61, 99])
def test_model_form_with_given_generator(D):
    assert_matches_reference(model_form(D), (2, 0))


def assert_both_scans_match_reference(form):
    """Plain and recording scans give the reference values; every recorded point is a maximiser."""
    reference = reference_correction_values(form)
    plain = scan_box(form)
    recorded = scan_box(form, record=True)
    assert plain.vector.values == recorded.vector.values == reference
    assert plain.heads == plain.tails == [] == list(plain.maximisers())
    structure = cokernel(form)
    step = structure.generator
    gram, m, D = form.gram, form.dim, structure.order
    points = list(recorded.maximisers())
    assert len(points) == D
    for i, x in enumerate(points):
        assert len(x) == m
        assert all(
            gram[j][j] + 2 <= x[j] <= -gram[j][j] and (x[j] - gram[j][j]) % 2 == 0
            for j in range(m)
        ), (i, x)
        assert structure.to_coset(x) == structure.to_coset([i * a for a in step]), (i, x)
        assert Fraction(form.pairing_numerator(x) + m * D, 4 * D) == reference[i], (i, x)


@pytest.mark.parametrize(
    "rows",
    [
        [[-5]],
        [[-1]],
        [[-4, 1], [1, -4]],
        [[-2, 1], [1, -6]],
        [[-6, 0, 1], [0, -1, 0], [1, 0, -1]],
        [[-3, 1, 0], [1, -3, 1], [0, 1, -3]],
        [[-3 if i == j else int(abs(i - j) == 1) for j in range(4)] for i in range(4)],
    ],
    ids=[
        "dimension-1",
        "dimension-1-one-point",
        "dimension-2-no-head",
        "dimension-2-unequal",
        "middle-range-of-length-1",
        "equal-ranges-dimension-3",
        "equal-ranges-dimension-4",
    ],
)
def test_scan_shapes_in_both_modes(rows):
    assert_both_scans_match_reference(QuadraticForm.from_rows(rows))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms())
def test_recorded_maximisers_reach_their_maxima(form):
    assume(cyclic_odd(form))
    assert_both_scans_match_reference(form)


def test_only_the_class_count_records_maximisers(monkeypatch):
    modes = []
    scan = corrections._coset_maxima

    def spy(form, weights, order, record):
        modes.append(record)
        return scan(form, weights, order, record)

    monkeypatch.setattr(corrections, "_coset_maxima", spy)
    correction_vector(builtin_record("8_10").form)
    analyze_record(builtin_record("8_10"))
    analyze_record(builtin_record("8_10"), listing=True)
    assert modes == [False, False, False]
    plumbing = PlumbingForm(builtin_record("10_125").form)
    class_count(plumbing)
    plumbing_corrections(plumbing)
    assert modes == [False, False, False, True]
