"""The box scan and the class count against the plain references of ``helpers``.

The correction terms scan the reduced box and index each point directly
by its linking form with the generator; the class count, on plumbing
forests only, closes the classes that leave the box and counts those left
by their reduced-box points.  Each is compared with the direct
computation it replaces, on integers: for the correction terms, the
maxima over the full box per tuple coset label (``helpers.box_values``),
listed by walking the multiples of the generator; for the class count,
``helpers.push_classes``, which walks each class on from box points only
and marks it as leaving the box when a push does.  The same walk and box
values check the lemmas behind the class count without calling the count
or the scan: every class inside the box meets the reduced box on stars
with a bad vertex, and exactly once on sign-flipped stars, which are
balanced (on other forests the count itself is compared with the walk);
and every class that holds a coset maximiser lies inside the box, so for
odd D at least D classes do.
"""

from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from helpers import (
    E8,
    box_values,
    coset_label,
    cyclic_odd,
    flipped,
    model_form,
    negative_definite_forms,
    push_classes,
    reference_negative_definite,
    star,
    unit_of_covector,
)
from unknotone.corrections import correction_vector
from unknotone.errors import ValidationError
from unknotone.lattice import BOX_BUDGET, QuadraticForm, check_gram_entries, cokernel_generator
from unknotone.plumbing import PlumbingForm, class_count


def reference_class_count(rows):
    """The number of push classes that lie inside the box."""
    return sum(inside for _, inside in push_classes(rows))


def reference_correction_values(form, generator=None):
    """Full-box maxima per tuple label, listed by a D-step walk of the generator."""
    _, best = box_values(form)
    det = abs(form.det)
    assert len(best) == det
    step = coset_label(form, generator or cokernel_generator(form))
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
    rows = star(centre, [[-w for w in leg] for leg in legs])
    assume(reference_negative_definite(rows))
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
    weights = iter(draw(st.lists(st.sampled_from([-2, -3]), min_size=dim - 1, max_size=dim - 1)))
    sign = draw(st.lists(st.sampled_from([1, -1]), min_size=dim, max_size=dim))
    rows = flipped(star(centre, [[next(weights) for _ in range(n)] for n in legs]), sign)
    assume(reference_negative_definite(rows))
    return rows


@st.composite
def signed_forests(draw):
    """Negative-definite plumbing forests with edges of both signs, at most one bad vertex.

    Each vertex after the first hangs off an earlier one or starts a new
    tree.  Every vertex but one gets a weight of at least its degree, so at
    most that one is bad; the signs flip e_i -> -e_i at random vertices.
    """
    dim = draw(st.integers(min_value=1, max_value=7))
    parents = [draw(st.integers(min_value=-1, max_value=i - 1)) for i in range(1, dim)]
    degree = [0] * dim
    for child, parent in enumerate(parents, 1):
        if parent >= 0:
            degree[child] += 1
            degree[parent] += 1
    bad = draw(st.integers(min_value=0, max_value=dim - 1))
    weights = [
        max(draw(st.integers(min_value=1, max_value=5)), 0 if i == bad else degree[i])
        for i in range(dim)
    ]
    assume(prod(w + 1 for w in weights) <= 2_000)
    rows = [[-weights[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    for child, parent in enumerate(parents, 1):
        if parent >= 0:
            rows[child][parent] = rows[parent][child] = 1
    rows = flipped(rows, draw(st.lists(st.sampled_from([1, -1]), min_size=dim, max_size=dim)))
    assume(reference_negative_definite(rows))
    return rows


def test_box_budget_is_checked_before_scanning():
    # [[1 - BOX_BUDGET]] has a box of exactly BOX_BUDGET points
    check_gram_entries(QuadraticForm.from_rows([[1 - BOX_BUDGET]]))
    with pytest.raises(ValidationError, match="above the budget"):
        check_gram_entries(QuadraticForm.from_rows([[-BOX_BUDGET]]))
    huge = [[-41 if i == j else int(abs(i - j) == 1) for j in range(6)] for i in range(6)]
    with pytest.raises(ValidationError, match="5489031744 points"):
        class_count(PlumbingForm.from_rows(huge))
    with pytest.raises(ValidationError, match="5489031744 points"):
        correction_vector(QuadraticForm.from_rows(huge))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(signed_forests())
def test_class_count_matches_full_walk(rows):
    assert class_count(PlumbingForm.from_rows(rows)).count == reference_class_count(rows)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(star_plumbings_with_bad_vertex())
def test_class_count_matches_full_walk_on_stars_with_bad_vertex(rows):
    assert class_count(PlumbingForm.from_rows(rows)).count == reference_class_count(rows)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(sign_flipped_stars())
def test_class_count_matches_full_walk_on_sign_flipped_stars(rows):
    assert class_count(PlumbingForm.from_rows(rows)).count == reference_class_count(rows)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(star_plumbings_with_bad_vertex())
def test_in_box_classes_meet_reduced_box_on_stars_with_bad_vertex(rows):
    # every class inside the box has a member with x_i != G_ii for all i
    dim = len(rows)
    for members, inside in push_classes(rows):
        if inside:
            assert any(all(x[i] != rows[i][i] for i in range(dim)) for x in members)


def assert_maximiser_classes_inside_box(rows):
    """Every class holding a full-box coset maximiser lies inside the box."""
    form = QuadraticForm.from_rows(rows)
    points, best = box_values(form)
    inside_count = 0
    for members, inside in push_classes(rows):
        inside_count += inside
        if any(value == best[label] for label, value in map(points.get, members & points.keys())):
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


# the box values and walks of the star examples cost about 0.03 s each
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
    # meets the reduced box at (-2, 4) and (4, -2); its edge is negative, so
    # the count flips it to [[-4, 1], [1, -4]], where each class meets the
    # reduced box once
    rows = [[-4, -1], [-1, -4]]
    twice = [
        members
        for members, inside in push_classes(rows)
        if inside and sum(all(x[i] != rows[i][i] for i in range(2)) for x in members) == 2
    ]
    assert twice == [{(-4, -4), (-2, 4), (4, -2)}]
    assert_maximiser_classes_inside_box(rows)
    assert class_count(PlumbingForm.from_rows(rows)).count == reference_class_count(rows) == 15


@pytest.mark.parametrize(
    "rows",
    [
        # a neighbour of weight -1 or -2: a push at vertex 0 stays in the box
        # only from the points below that neighbour's upper wall
        [[-5, 1], [1, -1]],
        [[-10, -1], [-1, -1]],
        [[-7, 1], [1, -2]],
        [[-7, 1, 0], [1, -1, 1], [0, 1, -3]],
        # negative entries, flipped to +1 by the signs
        [[-3, -1], [-1, -3]],
        [[-3, -1], [-1, -4]],
        [[-5, -1, 1], [-1, -4, 0], [1, 0, -3]],
        [[-1]],
        [[-5]],
    ],
    ids=[
        "weight-1-neighbour",
        "weight-1-neighbour-negative",
        "weight-2-neighbour",
        "weight-1-middle",
        "negative-even",
        "negative-odd",
        "mixed-signs",
        "dimension-1-one-point",
        "dimension-1",
    ],
)
def test_class_count_matches_full_walk_on_edge_shapes(rows):
    assert class_count(PlumbingForm.from_rows(rows)).count == reference_class_count(rows)


TRIANGLE = [[-2, -1, -1], [-1, -2, -1], [-1, -1, -2]]


def reference_signs(rows):
    """Signs s with s_i s_j G_ij >= 0 off the diagonal, found by trying all of them."""
    dim = len(rows)
    for signs in product((1, -1), repeat=dim):
        if all(signs[i] * signs[j] * rows[i][j] >= 0 for i in range(dim) for j in range(i)):
            return signs
    return None


def reduced_points(rows, members):
    return sum(all(x[i] != rows[i][i] for i in range(len(rows))) for x in members)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(sign_flipped_stars())
def test_balanced_in_box_classes_meet_reduced_box_once_on_sign_flipped_stars(rows):
    # a balanced form, flipped to entries >= 0 off the diagonal: each class
    # inside the box has one point in the reduced box
    signs = reference_signs(rows)
    assert signs is not None
    rows = flipped(rows, signs)
    for members, inside in push_classes(rows):
        if inside:
            assert reduced_points(rows, members) == 1, members


@pytest.mark.parametrize(
    "rows, classes, points",
    [(TRIANGLE, 4, 8), ([[-2, 1, 1], [1, -2, -1], [1, -1, -2]], 4, 5)],
    ids=["triangle", "triangle-mixed-signs"],
)
def test_unbalanced_forms_have_more_reduced_points_than_classes(rows, classes, points):
    assert reference_signs(rows) is None
    inside = [members for members, inside in push_classes(rows) if inside]
    assert len(inside) == classes
    assert sum(reduced_points(rows, members) for members in inside) == points
    # no plumbing forest: the count is refused
    with pytest.raises(ValidationError, match="closes a cycle"):
        PlumbingForm.from_rows(rows)


@pytest.mark.parametrize("rows", [[[-2]], [[-3, 0], [0, -3]]], ids=["even", "non-cyclic"])
def test_class_count_without_coset_maxima(rows):
    # the scan refuses an even or non-cyclic cokernel, which the count does not need
    plumbing = PlumbingForm.from_rows(rows)
    assert class_count(plumbing).count == reference_class_count(rows)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms())
def test_coset_maxima_match_product_scan(form):
    assume(cyclic_odd(form))
    assert_matches_reference(form)
    # 2 g generates too, since D is odd
    assert_matches_reference(form, tuple(2 * a for a in cokernel_generator(form)))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(star_plumbings_with_bad_vertex())
def test_coset_maxima_match_product_scan_on_stars(rows):
    form = QuadraticForm.from_rows(rows)
    assume(cyclic_odd(form))
    assert_matches_reference(form)


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
    assert correction_vector(QuadraticForm.from_rows([[-1]])).values == (0,)
    assert correction_vector(QuadraticForm.from_rows(E8)).values == (2,)


@pytest.mark.parametrize("D", [3, 5, 27, 61, 99])
def test_model_form_with_given_generator(D):
    assert_matches_reference(model_form(D), (2, 0))


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
        [[-5, 1], [1, -2]],
        [[-2, 1, 0], [1, -7, 1], [0, 1, -3]],
    ],
    ids=[
        "dimension-1",
        "dimension-1-one-point",
        "dimension-2-no-head",
        "dimension-2-unequal",
        "middle-range-of-length-1",
        "equal-ranges-dimension-3",
        "equal-ranges-dimension-4",
        "longest-range-first",
        "longest-range-in-the-middle",
    ],
)
def test_scan_shapes(rows):
    # the scan runs the longest range innermost, wherever it lies in coordinate order
    assert_matches_reference(QuadraticForm.from_rows(rows))


def test_dimension_zero_scans_one_point():
    # two phantom axes leave one point, the empty covector
    vector = correction_vector(QuadraticForm.from_rows([]))
    assert (vector.numerators, vector.generator) == ((0,), ())
    counted = class_count(PlumbingForm.from_rows([]))
    assert (counted.count, counted.determinant, counted.is_lspace) == (1, 1, True)


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
def test_deep_sheared_scans(form):
    assert_matches_reference(form)
