"""The value types: construction, equality, hashing, immutability and validation.

Every record type of the package derives from ``lattice.Value``.  Each is
built here once by position and once by keyword from the same field values,
in the order its fields are declared.
"""

from __future__ import annotations

import pytest

from unknotone.alexander import AlexanderPolynomial
from unknotone.catalog import KnotRecord, WhiteGraph
from unknotone.corrections import CorrectionVector, correction_vector
from unknotone.errors import ValidationError
from unknotone.gamma import GammaVector, gamma_vector
from unknotone.lattice import QuadraticForm, RationalVector, Value
from unknotone.matching import Matching, Outcome, Verdict, enumerate_matchings, obstruct
from unknotone.plumbing import ClassCount, PlumbingForm
from unknotone.report import AlexanderReport, RecordReport, SignedReport

FORM = QuadraticForm.from_rows([[-2, 1], [1, -2]])
A = correction_vector(FORM)
B = gamma_vector(3)
LISTING = enumerate_matchings(A, B)
MATCHING = Matching((0, 24, 24), ((1, 1), (2, 1)))
VERDICT = obstruct(A, B)
OTHER_VERDICT = Verdict(Outcome.NOT_OBSTRUCTED, (MATCHING,), True, True, "detail")

# each type with its field values, in declaration order
FIELDS = {
    RationalVector: {"numerators": (-6, 2, 2)},
    QuadraticForm: {"gram": ((-2, 1), (1, -2))},
    Matching: {"numerators": (0, 24, 24), "provenance": ((1, -1), (2, -1))},
    Verdict: {
        "outcome": Outcome.NOT_OBSTRUCTED,
        "witnesses": (MATCHING,),
        "gate_applied": True,
        "strong": True,
        "detail": "detail",
    },
    CorrectionVector: {"numerators": (-6, 2, 2), "generator": (1, 0)},
    GammaVector: {"numerators": B.numerators},
    WhiteGraph: {"vertex_count": 3, "edges": ((0, 1, 1), (1, 2, 1), (0, 2, 1))},
    KnotRecord: {
        "name": "r",
        "goeritz": FORM,
        "white_graph": None,
        "signature": 2,
        "determinant": 3,
    },
    PlumbingForm: {"form": FORM},
    ClassCount: {"count": 3, "determinant": 3},
    AlexanderPolynomial: {"higher": (1,)},
    RecordReport: {
        "name": "r",
        "D": 3,
        "verdict": VERDICT,
        "A": A,
        "B": B,
        "matchings": LISTING,
        "invariant_factors": (3,),
    },
    SignedReport: {
        "name": "r",
        "signature": 0,
        "negative_to_positive": VERDICT,
        "positive_to_negative": OTHER_VERDICT,
    },
    AlexanderReport: {
        "name": "r",
        "torsion": (1, 0),
        "matching": MATCHING,
    },
}
TYPES = pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)


def test_every_value_type_is_covered():
    assert len(FIELDS) == 14
    assert all(issubclass(cls, Value) for cls in FIELDS)


@TYPES
def test_positional_and_keyword_construction_agree(cls):
    fields = FIELDS[cls]
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    for name, value in fields.items():
        assert getattr(by_position, name) == value, name
    assert hash(by_position) == hash(by_keyword)


@TYPES
def test_a_field_cannot_be_assigned_or_deleted(cls):
    fields = FIELDS[cls]
    value = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == fields[name]


def test_equality_reads_every_field_and_the_class():
    vector = RationalVector((-6, 2, 2))
    assert vector != RationalVector((-6, 1, 1))
    assert vector != CorrectionVector((-6, 2, 2), (1, 0))
    fields = FIELDS[Matching]
    assert Matching(**fields) != Matching(**{**fields, "provenance": ((1, 1), (2, 1))})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CorrectionVector((0, 1, 2), (1, 0)), "A_i = A_\\(D-i\\)"),
        (lambda: WhiteGraph(2, ((0, 0, 1),)), "loop at vertex 0"),
        (lambda: KnotRecord("r"), "neither matrix nor white graph"),
        (lambda: KnotRecord("r", FORM, determinant=5), "does not match declared determinant 5"),
        (
            lambda: PlumbingForm(QuadraticForm.from_rows([[-1, 1, 0], [1, -1, 1], [0, 1, -3]])),
            "require a negative-definite form",
        ),
        (lambda: AlexanderPolynomial((0,)), "must not end in zero"),
    ],
    ids=[
        "CorrectionVector",
        "WhiteGraph",
        "KnotRecord-no-form",
        "KnotRecord-determinant",
        "PlumbingForm",
        "AlexanderPolynomial-trailing-zero",
    ],
)
def test_validation_runs_at_construction(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


# the even 9_33 matching (D = 61) with 1 added to every entry past D/2,
# where no filter reads: its entries 0..30 over 4D, then 31..60
NINE_33_HALF = tuple(244 * c for c in (0,) * 6 + (2, 2, 2, 2, 4, 4, 4, 6, 6, 8) + (6, 6, 4, 4, 4))
NINE_33_HALF += (488,) * 4 + (0,) * 6
NINE_33_SKEWED = NINE_33_HALF + tuple(c + 244 for c in NINE_33_HALF[:0:-1])
# every vector type, with its entry 1 unequal to its entry D - 1 = 2, and that matching
ASYMMETRIC = {
    cls.__name__: (cls, {**fields, "numerators": (-6, 2, 6)})
    for cls, fields in FIELDS.items()
    if issubclass(cls, RationalVector)
}
ASYMMETRIC["Matching-9_33-odd-past-half"] = (
    Matching,
    {"numerators": NINE_33_SKEWED, "provenance": ((1, 1),)},
)


def test_every_vector_type_is_covered():
    vector_types = {cls for cls, _ in ASYMMETRIC.values()}
    assert vector_types == {RationalVector, *RationalVector.__subclasses__()}


@pytest.mark.parametrize("cls, fields", ASYMMETRIC.values(), ids=ASYMMETRIC)
def test_every_vector_type_refuses_entry_i_unequal_to_entry_d_minus_i(cls, fields):
    with pytest.raises(ValidationError, match=r"A_i = A_\(D-i\)"):
        cls(**fields)


def test_derived_values_are_properties_of_the_fields():
    # D is the length, (unit, epsilon) the first provenance pair, and the
    # flags read C = (0, 2, 2): even, non-negative, and for D = 3 = 4 - 1
    # the quarter point k = 1 leaves nothing to be symmetric or climb
    m = Matching((0, 24, 24), ((1, 1), (2, 1)))
    assert (m.D, m.unit, m.epsilon) == (3, 1, 1)
    assert (m.even, m.positive, m.symmetric, m.staircase) == (True,) * 4
    assert Matching._fields == ("numerators", "provenance")
    assert B.n == 2 and GammaVector._fields == ("numerators",)
    assert not ClassCount(4, 3).is_lspace and ClassCount(3, 3).is_lspace
    assert AlexanderPolynomial((1,)).a0 == -1
    report = AlexanderReport("r", (1, 0), MATCHING)
    assert (report.polynomial, report.coefficient_check) == (AlexanderPolynomial((1,)), True)


def test_defaults_fill_the_fields_left_out():
    v = Verdict(Outcome.NO_EVEN_MATCHING, (), gate_applied=False)
    assert (v.strong, v.detail) == (False, "")
    report = RecordReport("r", 3, v)
    assert (report.A, report.B, report.invariant_factors) == (None, None, ())
    assert report.matchings == ()


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (((0,), (1,), "extra"), {}),
        (((0,),), {"numerators": (0,), "generator": ()}),
        ((), {"D": 1, "numerators": (0,), "generator": ()}),
        (((0, 0, 0),), {}),
    ],
    ids=["too-many", "repeated", "unknown", "missing"],
)
def test_a_wrong_field_list_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError, match="takes the fields numerators, generator"):
        CorrectionVector(*args, **kwargs)


def test_record_report_equality_ignores_the_listing():
    found = LISTING
    given = RecordReport("r", 3, VERDICT, A, B, matchings=found)
    assert given.matchings is found
    assert given == RecordReport("r", 3, VERDICT, A, B) == RecordReport("r", 3, VERDICT, A, B, ())
    assert hash(given) == hash(RecordReport("r", 3, VERDICT, A, B))
    built = RecordReport("r", 3, VERDICT, A, B)
    assert built.matchings == found
    assert built.matchings is built.matchings
    with pytest.raises(AttributeError):
        built.matchings = ()


def test_fields_come_from_annotations_without_evaluating_them():
    class Point(Value):
        x: NotDefinedAnywhere
        y: int = 0

    class Labelled(Point):
        label: str = ""

    assert Labelled(1, label="a") == Labelled(x=1, y=0, label="a")
    assert Labelled(1, label="a") != Point(1)
    assert Labelled._fields == ("x", "y", "label")
