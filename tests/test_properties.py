"""Property-based checks on randomized forms and sequences."""

from math import gcd

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from helpers import evaluate, q_map, reference_classify
from unknotone.corrections import correction_vector
from unknotone.gamma import gamma_vector
from unknotone.lattice import QuadraticForm, cokernel
from unknotone.matching import enumerate_matchings, obstruct

# --- random negative-definite forms ---------------------------------------
# build D0 = diag(-d_i) and conjugate by small unimodular shears, keeping
# the determinant (hence all invariants) under control


@st.composite
def negative_definite_forms(draw, max_dim=4, max_abs_det=60):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    while True:
        diag = draw(
            st.lists(st.integers(min_value=1, max_value=7), min_size=dim, max_size=dim)
        )
        det = 1
        for d in diag:
            det *= d
        if det % 2 == 1 and det <= max_abs_det:
            break
    rows = [[(-diag[i] if i == j else 0) for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=dim - 1))
        j = draw(st.integers(min_value=0, max_value=dim - 1))
        assume_ok = i != j
        if not assume_ok:
            continue
        c = draw(st.sampled_from([-1, 1]))
        # row/column shear: G <- U^T G U with U = I + c E_{ij}
        for k in range(dim):
            rows[j][k] += c * rows[i][k]
        for k in range(dim):
            rows[k][j] += c * rows[k][i]
    form = QuadraticForm.from_rows(rows)
    assume(form.is_negative_definite)
    return form


def cyclic_odd(form):
    structure = cokernel(form)
    return structure.is_cyclic and structure.order % 2 == 1 and structure.order >= 3


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms())
def test_invariant_factors_stable_under_congruence(form):
    # shear congruences preserve the cokernel up to isomorphism
    dim = form.dim
    rows = [list(r) for r in form.gram]
    if dim > 1:
        for k in range(dim):
            rows[1][k] += rows[0][k]
        for k in range(dim):
            rows[k][1] += rows[k][0]
    sheared = QuadraticForm.from_rows(rows)
    assert cokernel(sheared).invariant_factors == cokernel(form).invariant_factors


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms())
def test_correction_vector_conjugation_symmetry(form):
    assume(cyclic_odd(form))
    A = correction_vector(form)
    D = A.D
    assert all(A.values[i] == A.values[(D - i) % D] for i in range(D))
    assert (4 * A.values[0] + form.dim).denominator == 1


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms(max_dim=3, max_abs_det=45))
def test_generator_choice_does_not_change_matchings(form):
    assume(cyclic_odd(form))
    A = correction_vector(form)
    D = A.D
    B = gamma_vector(D)
    baseline = {m.C for m in enumerate_matchings(A, B)}
    unit = next(u for u in range(2, D) if gcd(u, D) == 1)
    re = A.reindexed(unit)
    assert {m.C for m in enumerate_matchings(re, B)} == baseline
    assert obstruct(A, B).outcome == obstruct(re, B).outcome


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms(max_dim=3, max_abs_det=45))
def test_mirror_invariance_of_verdicts(form):
    assume(cyclic_odd(form))
    A = correction_vector(form)
    B = gamma_vector(A.D)
    mirrored = A.mirrored()
    assert {m.C for m in enumerate_matchings(A, B)} == {
        m.C for m in enumerate_matchings(mirrored, B)
    }
    assert obstruct(A, B).outcome == obstruct(mirrored, B).outcome


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms(max_dim=3, max_abs_det=45), st.data())
def test_pairing_symmetric_bilinear(form, data):
    dim = form.dim
    vec = st.tuples(*[st.integers(min_value=-4, max_value=4) for _ in range(dim)])
    v = data.draw(vec)
    w = data.draw(vec)
    x = data.draw(vec)
    P = form.pairing_numerator
    plus = tuple(a + b for a, b in zip(v, w))
    minus = tuple(a - b for a, b in zip(v, w))
    # a quadratic form: the parallelogram law and homogeneity
    assert P(plus) + P(minus) == 2 * P(v) + 2 * P(w)
    assert P(tuple(3 * a for a in x)) == 9 * P(x)
    # the numerator of G^{-1}: P(v + q(x)) = P(v) + |det| (2 x.v + Q(x, x))
    shifted = tuple(a + b for a, b in zip(v, q_map(form, x)))
    dot = sum(a * b for a, b in zip(x, v))
    assert P(shifted) == P(v) + abs(form.det) * (2 * dot + evaluate(form, x))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=8))
def test_torsion_polynomial_roundtrip(torsion):
    from unknotone.alexander import polynomial_from_torsion, torsion_from_polynomial

    poly = polynomial_from_torsion(tuple(torsion))
    assert poly.evaluate_at_one() == 1
    trimmed = list(torsion)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    trimmed.append(0)
    assert torsion_from_polynomial(poly) == tuple(trimmed)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms(max_dim=3, max_abs_det=45))
def test_matchings_always_conjugation_symmetric(form):
    assume(cyclic_odd(form))
    A = correction_vector(form)
    B = gamma_vector(A.D)
    for m in enumerate_matchings(A, B):
        assert all(m.C[i] == m.C[(A.D - i) % A.D] for i in range(A.D))
        got = (m.even, m.positive, m.symmetric, m.staircase)
        re = reference_classify(m)
        assert (re.even, re.positive, re.symmetric, re.staircase) == got
