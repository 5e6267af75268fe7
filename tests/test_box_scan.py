"""The box scans against plain references kept in this file.

The correction terms scan the reduced box and index each point directly
by its linking form with the generator; the class count closes the
classes that leave the box and walks only those left.  Each is compared
with the direct computation it replaces: for the correction terms, the
maxima over the full box per tuple coset label, listed by walking the
multiples of the generator; for the class count, a walk that follows
every class to its end before deciding whether it stays in the box.  The
same full walk checks the lemmas behind the class count's seeds without
calling the count or the scan: every class inside the box meets the
reduced box, and every class that holds a coset maximiser lies inside the
box, so for odd D at least D classes do.
"""

from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from helpers import box_points, coset_label, pairing, unit_of_covector
from test_properties import cyclic_odd, negative_definite_forms
from unknotone import corrections, plumbing as plumbing_mod
from unknotone.catalog import builtin_record
from unknotone.corrections import correction_vector, scan_box
from unknotone.errors import ValidationError
from unknotone.gamma import gamma_vector, model_form
from unknotone.lattice import (
    BOX_BUDGET,
    QuadraticForm,
    box_strides,
    characteristic_box,
    cokernel,
)
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
    best = {}
    for x in reference_box(form):
        label, value = coset_label(form, x), pairing(form, x)
        best[label] = max(best.get(label, value), value)
    det = abs(form.det)
    assert len(best) == det
    step = coset_label(form, generator or cokernel(form).generator)
    zero = label = (0,) * form.dim
    values = []
    for _ in range(det):
        values.append(Fraction(best[label] + form.dim * det, 4 * det))
        label = tuple((a + b) % det for a, b in zip(label, step))
    assert label == zero
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
    best = {}
    for x in reference_box(form):
        label, value = coset_label(form, x), pairing(form, x)
        best[label] = max(best.get(label, value), value)
    inside_count = 0
    for members, inside in reference_classes(rows):
        inside_count += inside
        # a push adds 2 G e_i, which lies in q(V): a class lies in one coset
        most = best[coset_label(form, next(iter(members)))]
        if any(pairing(form, x) == most for x in members):
            assert inside
    D = abs(form.det)
    if D % 2:
        # every coset holds characteristic covectors, so each has a maximiser,
        # and pushes keep the coset: the D maximiser classes are distinct
        assert len(best) == D
        assert inside_count >= D


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


@pytest.mark.parametrize(
    "rows",
    [
        # |G_01| >= |G_11| + 1: every push at vertex 0 leaves the box
        [[-5, 2], [2, -1]],
        [[-10, 3], [3, -1]],
        [[-7, 3], [3, -2]],
        [[-7, 3, 0], [3, -2, 1], [0, 1, -3]],
        # negative entries move the pushed places down: negative place shifts
        [[-3, -1], [-1, -3]],
        [[-3, -1], [-1, -4]],
        [[-5, -2, 1], [-2, -4, -1], [1, -1, -3]],
        [[-1]],
        [[-5]],
    ],
    ids=[
        "empty-band",
        "empty-band-by-two",
        "empty-band-odd",
        "empty-band-dimension-3",
        "negative-even",
        "negative-odd",
        "mixed-signs",
        "dimension-1-one-point",
        "dimension-1",
    ],
)
def test_class_count_matches_full_walk_on_edge_shapes(rows):
    assert class_count(PlumbingForm.from_rows(rows)).count == reference_class_count(rows)


TEN_148 = [
    [-4, 3, 1, 0, 1],
    [3, -5, 0, 0, 0],
    [1, 0, -2, 1, 0],
    [0, 0, 1, -2, 0],
    [1, 0, 0, 0, -2],
]


def test_only_the_classes_left_after_the_closures_are_walked(monkeypatch):
    seeds = []
    places = plumbing_mod._places

    def spy(bits):
        for place in places(bits):
            seeds.append(place)
            yield place

    monkeypatch.setattr(plumbing_mod, "_places", spy)
    # 10_148 has 55 classes inside the box for D = 31: the walk counts 24 of them
    plumbing = PlumbingForm.from_rows(TEN_148)
    assert class_count(plumbing).count == reference_class_count(TEN_148) == 55
    assert abs(plumbing.form.det) == len(plumbing.scan.places) == 31
    assert len(seeds) >= 24
    # 10_125 certifies: every class inside the box is settled, and no walk starts
    seeds.clear()
    assert class_count(PlumbingForm(builtin_record("10_125").form)).count == 11
    assert seeds == []


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
    assert not plain.places
    step = cokernel(form).generator
    gram, m, D = form.gram, form.dim, abs(form.det)
    points = box_points(form, recorded.places)
    assert len(points) == D
    for i, x in enumerate(points):
        assert len(x) == m
        assert all(
            gram[j][j] + 2 <= x[j] <= -gram[j][j] and (x[j] - gram[j][j]) % 2 == 0
            for j in range(m)
        ), (i, x)
        assert coset_label(form, x) == coset_label(form, [i * a for a in step]), (i, x)
        assert Fraction(pairing(form, x) + m * D, 4 * D) == reference[i], (i, x)


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


def test_dimension_zero_scans_one_point():
    # two phantom axes leave one point, the empty covector, at place 0
    for record in (False, True):
        scan = scan_box(QuadraticForm.from_rows([]), record)
        assert (scan.vector.numerators, scan.vector.generator) == ((0,), ())
    assert list(scan.places) == [0]
    counted = class_count(PlumbingForm.from_rows([]))
    assert (counted.count, counted.determinant, counted.is_lspace) == (1, 1, True)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms())
def test_recorded_maximisers_reach_their_maxima(form):
    assume(cyclic_odd(form))
    assert_both_scans_match_reference(form)


def assert_places_number_the_box(form):
    """Each recorded place is the maximiser's index in the box, last coordinate fastest."""
    scan = scan_box(form, record=True)
    box = characteristic_box(form)
    strides = box_strides(box)
    size = prod(1 - form.gram[i][i] for i in range(form.dim))
    # itertools.product lists the box in the place order, independently of the strides
    listed = list(product(*box))
    points = box_points(form, scan.places)
    assert len(scan.places) == len(points) == abs(form.det)
    for place, x in zip(scan.places, points):
        assert place == sum((a - rg.start) // 2 * s for a, rg, s in zip(x, box, strides))
        assert 0 <= place < size == len(listed)
        assert listed[place] == x
        # a point of the reduced box is off the lower wall on every axis
        assert all(rg.start < a for a, rg in zip(x, box)), (place, x)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms())
def test_recorded_places_number_the_box(form):
    assume(cyclic_odd(form))
    assert_places_number_the_box(form)


@pytest.mark.parametrize(
    "rows",
    [
        [[-1]],
        [[-5]],
        [[-5, 1], [1, -2]],
        [[-6, 0, 1], [0, -1, 0], [1, 0, -1]],
        [[-2, 1, 0], [1, -7, 1], [0, 1, -3]],
    ],
    ids=[
        "dimension-1-one-point",
        "dimension-1",
        "longest-range-first",
        "longest-range-first-dimension-3",
        "longest-range-in-the-middle",
    ],
)
def test_recorded_places_when_the_scan_order_differs(rows):
    # the scan runs the longest range innermost, wherever it lies in coordinate order
    assert_places_number_the_box(QuadraticForm.from_rows(rows))


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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms())
def test_a_matching_is_even_when_its_first_three_entries_are(form):
    # x_0 + 2 t g is characteristic in the coset of 2 t g, and x^t G^{-1} x / 4
    # is constant mod 2 on a coset, so A mod 2 is a quadratic in the index,
    # and so is B; a quadratic mod 2 that vanishes at 0, 1 and 2 is
    # p_2 i (i - 1) with p_2 an integer, even everywhere.  The mirror -A with
    # sign epsilon gives the pairs of A with -epsilon, so both signs cover
    # both orientations.
    assume(cyclic_odd(form))
    a = correction_vector(form).numerators
    D = len(a)
    b = gamma_vector(D).numerators
    two = 8 * D  # 2 as a numerator over 4D
    for u in (u for u in range(1, D) if gcd(u, D) == 1):
        for epsilon in (1, -1):
            even = [(b[i] + epsilon * a[u * i % D]) % two == 0 for i in range(D)]
            assert all(even) == all(even[:3]), (u, epsilon)


@st.composite
def deep_sheared_forms(draw):
    """Forms of dimension 5..7 with odd cyclic cokernel and dense cross terms.

    A chain with diagonal -2 or -3, summed with up to two [-1] blocks, is
    sheared: row and column j gain c times row and column i.  No shear
    lands on a -1 vertex, so it keeps G_ii = -1, a head range of one
    point that never multiplies the heads, while shears from it put its
    cross terms into the other rows.  The scan's head then has three to
    five coordinates.
    """
    dim = draw(st.integers(min_value=5, max_value=7))
    ones = draw(st.integers(min_value=0, max_value=2))
    weights = draw(st.lists(st.sampled_from([2, 3]), min_size=dim - ones, max_size=dim - ones))
    weights += [1] * ones
    rows = [[-weights[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    for i in range(dim - ones - 1):
        rows[i][i + 1] = rows[i + 1][i] = 1
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        i = draw(st.integers(min_value=0, max_value=dim - 1))
        j = draw(st.integers(min_value=0, max_value=dim - ones - 1))
        if i == j:
            continue
        c = draw(st.sampled_from([-1, 1]))
        for k in range(dim):
            rows[j][k] += c * rows[i][k]
        for k in range(dim):
            rows[k][j] += c * rows[k][i]
    order = draw(st.permutations(range(dim)))
    rows = [[rows[i][j] for j in order] for i in order]
    assume(prod(1 - rows[i][i] for i in range(dim)) <= 20_000)
    form = QuadraticForm.from_rows(rows)
    assume(cyclic_odd(form))
    return form


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(deep_sheared_forms())
def test_deep_sheared_scans_in_both_modes(form):
    assert_both_scans_match_reference(form)
    assert_places_number_the_box(form)
    if prod(1 - form.gram[i][i] for i in range(form.dim)) <= 2_000:
        assert class_count(PlumbingForm(form)).count == reference_class_count(form.gram)
