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
MATCHING = Matching(3, (0, 24, 24), 1, 1, ((1, 1), (2, 1)), True, True, False, True)
VERDICT = obstruct(A, B)
OTHER_VERDICT = Verdict(Outcome.NOT_OBSTRUCTED, (MATCHING,), True, True, "detail")

# each type with its field values, in declaration order
FIELDS = {
    RationalVector: {"D": 3, "numerators": (-6, 2, 2)},
    QuadraticForm: {"gram": ((-2, 1), (1, -2))},
    Matching: {
        "D": 3,
        "numerators": (0, 24, 24),
        "unit": 1,
        "epsilon": -1,
        "provenance": ((1, -1), (2, -1)),
        "even": True,
        "positive": True,
        "symmetric": False,
        "staircase": True,
    },
    Verdict: {
        "outcome": Outcome.NOT_OBSTRUCTED,
        "witnesses": (MATCHING,),
        "gate_applied": True,
        "strong": True,
        "detail": "detail",
    },
    CorrectionVector: {"D": 3, "numerators": (-6, 2, 2), "generator": (1, 0)},
    GammaVector: {"D": 3, "numerators": B.numerators, "n": 2},
    WhiteGraph: {"vertex_count": 3, "edges": ((0, 1, 1), (1, 2, 1), (0, 2, 1))},
    KnotRecord: {
        "name": "r",
        "goeritz": FORM,
        "white_graph": None,
        "signature": 2,
        "determinant": 3,
        "mirror_of": "s",
    },
    PlumbingForm: {"form": FORM},
    ClassCount: {"count": 3, "determinant": 3, "is_lspace": True},
    AlexanderPolynomial: {"a0": -1, "higher": (1,)},
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
        "polynomial": AlexanderPolynomial(-1, (1,)),
        "coefficient_check": True,
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
    vector = RationalVector(3, (-6, 2, 2))
    assert vector != RationalVector(3, (-6, 1, 1))
    assert vector != RationalVector(5, (-6, 2, 2))
    assert vector != CorrectionVector(3, (-6, 2, 2), (1, 0))
    fields = FIELDS[Matching]
    assert Matching(**fields) != Matching(**{**fields, "staircase": False})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CorrectionVector(3, (0, 1, 2), (1, 0)), "A_i = A_\\(D-i\\)"),
        (lambda: WhiteGraph(2, ((0, 0, 1),)), "loop at vertex 0"),
        (lambda: KnotRecord("r"), "neither matrix nor white graph"),
        (lambda: KnotRecord("r", FORM, determinant=5), "does not match declared determinant 5"),
        (
            lambda: PlumbingForm(QuadraticForm.from_rows([[1, 0], [0, -3]])),
            "require a negative-definite form",
        ),
        (lambda: AlexanderPolynomial(0, (1,)), "not normalised"),
        (lambda: AlexanderPolynomial(1, (0,)), "must not end in zero"),
    ],
    ids=[
        "CorrectionVector",
        "WhiteGraph",
        "KnotRecord-no-form",
        "KnotRecord-determinant",
        "PlumbingForm",
        "AlexanderPolynomial-normalised",
        "AlexanderPolynomial-trailing-zero",
    ],
)
def test_validation_runs_at_construction(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_defaults_fill_the_fields_left_out():
    m = Matching(3, (0, 24, 24), 1, 1, ((1, 1),))
    assert (m.even, m.positive, m.symmetric, m.staircase) == (False,) * 4
    v = Verdict(Outcome.NO_EVEN_MATCHING, (), gate_applied=False)
    assert (v.strong, v.detail) == (False, "")
    report = RecordReport("r", 3, v)
    assert (report.A, report.B, report.invariant_factors) == (None, None, ())
    assert report.matchings == ()


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((3, (0,), (1,), "extra"), {}),
        ((3,), {"D": 3, "numerators": (0,), "generator": ()}),
        ((), {"D": 3, "numerators": (0,), "generator": (), "unit": 1}),
        ((3, (0, 0, 0)), {}),
    ],
    ids=["too-many", "repeated", "unknown", "missing"],
)
def test_a_wrong_field_list_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError, match="takes the fields D, numerators, generator"):
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
