"""The box scan against plain references kept in this file.

The odometer (``lattice.box_scan``), the coset maxima built on it and the
class walk that stops at the box wall are each compared with the direct
computation they replace: ``itertools.product`` over the box with row
products computed from scratch, and a class walk that follows every class
to its end before deciding whether it stays in the box.
"""

from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from test_properties import negative_definite_forms
from unknotone.corrections import _coset_maxima
from unknotone.errors import ValidationError
from unknotone.lattice import (
    BOX_BUDGET,
    QuadraticForm,
    box_scan,
    characteristic_box,
    characteristic_candidates,
    cokernel,
)
from unknotone.plumbing import PlumbingForm, class_count


def reference_box(form):
    return product(*(range(d, -d + 1, 2) for d in (form.gram[i][i] for i in range(form.dim))))


def reference_class_count(rows):
    """Walk every class in full; count those lying inside the box."""
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
    good = 0
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
        good += all(abs(v[i]) <= bound[i] for v in members for i in range(dim))
    return good


def reference_coset_maxima(form):
    structure = cokernel(form)
    best = {}
    for x in reference_box(form):
        label = structure.to_coset(x)
        value = form.pairing_numerator(x)
        best[label] = max(best.get(label, value), value)
    return best


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


def test_box_scan_is_product_order_with_exact_row_products():
    for rows in ([[-1]], [[-2, 1], [1, -3]], [[-4, 3, 1], [3, -5, 0], [1, 0, -2]]):
        form = QuadraticForm.from_rows(rows)
        num = form.inverse_numerator
        scanned = [(tuple(x), r, value) for x, r, value in box_scan(form)]
        expected = []
        for x in reference_box(form):
            r = [sum(num[i][j] * x[j] for j in range(form.dim)) for i in range(form.dim)]
            expected.append((x, r, sum(a * b for a, b in zip(x, r))))
        assert scanned == expected
        assert list(characteristic_candidates(form)) == [x for x, _, _ in expected]


def test_box_budget_is_checked_before_scanning():
    assert len(characteristic_box(QuadraticForm.from_rows([[1 - BOX_BUDGET]]))[0]) == BOX_BUDGET
    with pytest.raises(ValidationError, match="above the budget"):
        characteristic_box(QuadraticForm.from_rows([[-BOX_BUDGET]]))
    huge = [[-41 if i == j else int(abs(i - j) == 1) for j in range(6)] for i in range(6)]
    with pytest.raises(ValidationError, match="5489031744 points"):
        class_count(PlumbingForm.from_rows(huge))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms())
def test_class_count_matches_full_walk(form):
    assert class_count(PlumbingForm(form)).count == reference_class_count(form.gram)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(star_plumbings_with_bad_vertex())
def test_class_count_matches_full_walk_on_stars_with_bad_vertex(rows):
    assert class_count(PlumbingForm.from_rows(rows)).count == reference_class_count(rows)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms())
def test_coset_maxima_match_product_scan(form):
    assert _coset_maxima(form, cokernel(form)) == reference_coset_maxima(form)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(star_plumbings_with_bad_vertex())
def test_coset_maxima_match_product_scan_on_stars(rows):
    form = QuadraticForm.from_rows(rows)
    assert _coset_maxima(form, cokernel(form)) == reference_coset_maxima(form)
