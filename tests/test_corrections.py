import gc
import weakref
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import example, given, strategies as st

from unknotone import corrections, lattice
from unknotone.catalog import builtin_record, record_from_dict
from helpers import A27_PUBLISHED, model_form, unit_of_covector
from unknotone.corrections import correction_vector, scannable_cokernel
from unknotone.errors import NonCyclicCokernelError, UnknotOneError, ValidationError
from unknotone.gamma import gamma_vector
from unknotone.lattice import QuadraticForm, rational_texts
from unknotone.matching import Outcome
from unknotone.plumbing import PlumbingForm
from unknotone.report import analyze_record

EIGHT_TEN = QuadraticForm.from_rows([[-4, 1, 1], [1, -2, 1], [1, 1, -5]])

def unit_reindexings(values):
    D = len(values)
    for u in range(1, D):
        from math import gcd

        if gcd(u, D) != 1:
            continue
        yield u, [values[(u * i) % D] for i in range(D)]


def test_eight_ten_matches_published_up_to_unit():
    A = correction_vector(EIGHT_TEN)
    assert A.D == 27
    assert A.values[0] == Fraction(-1, 2)
    assert any(re == A27_PUBLISHED for _, re in unit_reindexings(list(A.values)))


def test_eight_ten_spin_and_gate():
    A = correction_vector(EIGHT_TEN)
    assert A.values[0] == Fraction(-1, 2)
    assert A.gate


def test_unknot_form():
    A = correction_vector(QuadraticForm.from_rows([[-1]]))
    assert A.D == 1
    assert A.values == (Fraction(0),)


def test_model_form_cross_check():
    # the model vector is the correction vector of its own form, indexed by
    # the coset of the covector (2, 0)
    for D in (3, 5, 9, 27):
        form = model_form(D)
        A = correction_vector(form).reindexed(unit_of_covector(form, (2, 0)))
        assert list(A.values) == list(gamma_vector(D).values)


def test_conjugation_symmetry_and_denominators():
    A = correction_vector(EIGHT_TEN)
    for i in range(A.D):
        assert A.values[i] == A.values[(A.D - i) % A.D]
        # 4 A_i - m is a squared length of a covector, denominator | det
        assert (4 * A.values[i]).denominator in (1, 3, 9, 27)
    # the spin-class value satisfies the integral congruence on the nose
    assert (4 * A.values[0] + EIGHT_TEN.dim).denominator == 1


def test_non_cyclic_raises():
    with pytest.raises(NonCyclicCokernelError) as info:
        correction_vector(QuadraticForm.from_rows([[-3, 0], [0, -3]]))
    assert info.value.invariant_factors == (3, 3)


def test_even_order_raises():
    with pytest.raises(ValidationError, match="even"):
        correction_vector(QuadraticForm.from_rows([[-2]]))


def test_indefinite_raises():
    with pytest.raises(ValidationError):
        correction_vector(QuadraticForm.from_rows([[3]]))


def test_explicit_generator_reindexes_values():
    A = correction_vector(EIGHT_TEN)
    re = A.reindexed(2)
    assert re.values[1] == A.values[2]
    assert sorted(re.values) == sorted(A.values)
    with pytest.raises(ValidationError):
        A.reindexed(3)  # not a unit mod 27


def test_a_long_unit_reindexes_like_its_residue_and_keeps_its_generator():
    unit = 3 * 10**4299 + 1  # 4,300 digits, a unit mod 27
    A = correction_vector(EIGHT_TEN)
    re = A.reindexed(unit)
    assert re.numerators == A.reindexed(unit % A.D).numerators
    assert re.generator == tuple(unit * x for x in A.generator)


def test_mirrored_negates():
    A = correction_vector(EIGHT_TEN)
    assert [-v for v in A.mirrored().values] == list(A.values)


def test_mirrored_negates_each_shared_value_once():
    forms = [EIGHT_TEN, QuadraticForm.from_rows([[-2, 1], [1, -500]])]
    for form in forms:
        A = correction_vector(form)
        mirrored = A.mirrored()
        assert mirrored.values == tuple(-v for v in A.values)
        assert len({id(v) for v in mirrored.values}) == len(set(mirrored.values))
        assert len({id(v) for v in A.values}) == len(set(A.values))


def diagonal_line(i):
    """The refusal of a form whose Gram entry (i, i) is the first one >= 0."""
    return f"Gram entry ({i}, {i}) has G_ii >= 0; the form is not negative-definite"


# One form for each refusal of scannable_cokernel, in its order.
REFUSALS = {
    "diagonal": ([[1, 0], [0, -3]], diagonal_line(0)),
    "box": (
        [[-41 if i == j else int(abs(i - j) == 1) for j in range(6)] for i in range(6)],
        "characteristic box has 5489031744 points, above the budget of 2000000",
    ),
    "singular": ([[-2, 2], [2, -2]], "cokernel requires a nonsingular form"),
    "even": ([[-3, 1], [1, -3335]], "cokernel order 10004 is even; need a knot form"),
    "non-cyclic": ([[-3, 0], [0, -3003]], None),
    # D = 1, a negative diagonal and G_10^2 = G_00 G_11, at the entry bound:
    # only the last step refuses it
    "indefinite": (
        [[-1, 1, 0], [1, -1, 1], [0, 1, -3]], "correction terms require a negative-definite form"
    ),
}
# D = 1,990,917 and D of about 10^12, and no coordinate covector generates:
# a generator pick before the refusals would list all D cosets.  Each has a
# G_ii > 0, so the entry checks refuse it before the elimination.
LATE_REFUSALS = {
    "late-indefinite": ([[-1409, 0], [0, 1413]], diagonal_line(1)),
    "late-positive-definite": ([[1000003, 0], [0, 1000033]], diagonal_line(0)),
}


@pytest.mark.parametrize(
    "rows, message", [*REFUSALS.values(), *LATE_REFUSALS.values()], ids=[*REFUSALS, *LATE_REFUSALS]
)
def test_every_entry_point_refuses_a_form_alike(rows, message, monkeypatch):
    def never(form):
        raise AssertionError("the generator was picked")

    # the scan picks its generator only after every refusal
    monkeypatch.setattr(corrections, "cokernel_generator", never)
    entry_points = {
        "scannable_cokernel": lambda record: scannable_cokernel(record.form),
        "correction_vector": lambda record: correction_vector(record.form),
        "analyze_record": analyze_record,
        "analyze_record(listing=True)": lambda record: analyze_record(record, listing=True),
    }
    for name, run in entry_points.items():
        record = record_from_dict({"name": "r", "goeritz": rows})
        if message is not None:
            with pytest.raises(UnknotOneError) as info:
                run(record)
            assert str(info.value) == message, name
        elif not name.startswith("analyze_record"):
            with pytest.raises(NonCyclicCokernelError) as info:
                run(record)
            assert info.value.invariant_factors == (3, 3003), name
        else:
            report = run(record)
            assert (report.outcome, report.D, report.invariant_factors) == (
                Outcome.NON_CYCLIC_H1, 9009, (3, 3003)
            ), name


@pytest.mark.parametrize(
    "rows, message",
    [
        (REFUSALS["box"][0], REFUSALS["box"][1]),
        # singular, and refused for its box before the elimination could find it so
        (
            [[-2000, 2000], [2000, -2000]],
            "characteristic box has 4004001 points, above the budget of 2000000",
        ),
        (
            [[-2 if i == j else 1 for j in range(21)] for i in range(21)],
            "form has dimension 21; above dimension 20 no characteristic box fits the "
            "budget of 2000000",
        ),
        # a positive diagonal: not negative-definite, whatever its size
        (
            [[3 if i == j else 0 for j in range(21)] for i in range(21)],
            "form has dimension 21; above dimension 20 no characteristic box fits the "
            "budget of 2000000",
        ),
    ],
    ids=["box", "singular-box", "dimension-21", "dimension-21-positive"],
)
def test_an_over_budget_box_is_refused_before_the_elimination(rows, message, monkeypatch):
    def never(rows):
        raise AssertionError("the elimination ran")

    monkeypatch.setattr(lattice, "_gauss_jordan", never)
    for refuse in (scannable_cokernel, PlumbingForm):
        with pytest.raises(ValidationError) as info:
            refuse(QuadraticForm.from_rows(rows))
        assert str(info.value) == message


def test_a_form_of_dimension_20_still_reaches_the_later_refusals():
    # 2^20 points fit the budget, so the dimension bound refuses nothing here
    rows = [[-1 if i == j else 0 for j in range(20)] for i in range(20)]
    assert correction_vector(QuadraticForm.from_rows(rows)).numerators == (0,)
    rows[0][1] = rows[1][0] = 1
    with pytest.raises(UnknotOneError, match="nonsingular"):
        correction_vector(QuadraticForm.from_rows(rows))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[-2, 3], [3, -4]], "Gram entry (1, 0) has G_ij^2 > G_ii G_jj"),
        ([[-5, 0, -1], [0, -1, -3], [-1, -3, -7]], "Gram entry (2, 1) has G_ij^2 > G_ii G_jj"),
        (
            [[-2 if i == j else 10**3999 + i + j for j in range(13)] for i in range(13)],
            "Gram entry (1, 0) has G_ij^2 > G_ii G_jj",
        ),
        # a zero diagonal entry after a negative one; read as a bound of 0, it
        # would refuse the entry (1, 0) instead
        ([[-3, 1, 0], [1, 0, 1], [0, 1, -3]], "Gram entry (1, 1) has G_ii >= 0"),
        # a positive diagonal entry, refused before the box and the entry (1, 0)
        ([[-2, 5], [5, 7]], "Gram entry (1, 1) has G_ii >= 0"),
    ],
    ids=["dimension-2", "negative-entry", "13x13-of-4000-digits", "zero-diagonal",
         "positive-diagonal"],
)
def test_an_impossible_entry_is_refused_before_the_elimination(rows, message, monkeypatch):
    def never(rows):
        raise AssertionError("the elimination ran")

    monkeypatch.setattr(lattice, "_gauss_jordan", never)
    for refuse in (scannable_cokernel, PlumbingForm):
        with pytest.raises(ValidationError) as info:
            refuse(QuadraticForm.from_rows(rows))
        assert str(info.value) == message + "; the form is not negative-definite"


def test_an_entry_at_the_bound_reaches_the_later_refusals():
    # G_ij^2 = G_ii G_jj is no negative-definite form either, but the
    # elimination names what is wrong with it
    for refuse in (scannable_cokernel, PlumbingForm):
        with pytest.raises(ValidationError, match="nonsingular|negative-definite form"):
            refuse(QuadraticForm.from_rows([[-4, 6], [6, -9]]))


def test_one_cokernel_and_one_box_per_analysis(monkeypatch):
    calls = []
    build = QuadraticForm._cokernel.func
    counted = cached_property(lambda form: calls.append("cokernel") or build(form))
    counted.__set_name__(QuadraticForm, "_cokernel")
    monkeypatch.setattr(QuadraticForm, "_cokernel", counted)
    scan = corrections._coset_maxima
    monkeypatch.setattr(
        corrections, "_coset_maxima", lambda *args: calls.append("scan") or scan(*args)
    )
    report = analyze_record(builtin_record("8_10"), listing=True)
    assert report.D == 27
    assert report.matchings
    assert sorted(calls) == ["cokernel", "scan"]


def test_an_analysed_form_is_freed_by_reference_counting():
    # the form keeps its cokernel; a reference back to the form would
    # leave every analysed record to the cycle collector, which costs time
    record = builtin_record("8_10")
    form = weakref.ref(record.form)
    analyze_record(record, listing=True)
    gc.disable()
    try:
        del record
        assert form() is None
    finally:
        gc.enable()


@given(
    st.lists(st.integers(min_value=-(10**12), max_value=10**12)),
    st.integers(min_value=0, max_value=10**6).map(lambda k: 2 * k + 1),
)
@example([0], 27)
@example([-54, 0, -54], 27)
@example([-3], 1)
@example([-2 * 10001], 10001)
def test_rational_texts_are_the_fraction_strings(numerators, D):
    # repeats are allowed: each distinct numerator is rendered once and looked up
    assert rational_texts(numerators, 4 * D) == [str(Fraction(n, 4 * D)) for n in numerators]
