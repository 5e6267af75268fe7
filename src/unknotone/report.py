"""Per-record analysis drivers shared by the CLI and the test suite.

This is where a knot record is pushed through the whole pipeline:
correction vector, model vector, verdict, and the optional
torsion/polynomial extraction.  The verdicts and the companions come from
the even matchings alone; the full matching listing is built only when a
report's ``matchings`` is read.  ``analyze_record`` first runs the
refusals of :func:`unknotone.corrections.scannable_cokernel`; with
``listing`` it then refuses an over-budget listing, before any correction
term is computed.  ``batch_reports`` runs many records in one process, in
input order.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional

from .catalog import KnotRecord
from .corrections import CorrectionVector, correction_vector, scannable_cokernel
from .errors import MissingSignatureError, NonCyclicCokernelError, UnknotOneError
from .gamma import GammaVector, gamma_vector
from .lattice import Value
from .matching import (
    FLAGS,
    Matching,
    Outcome,
    Verdict,
    check_listing_budget,
    enumerate_matchings,
    format_compact,
    obstruct,
    sign_refined_obstruct,
)

if TYPE_CHECKING:
    from .alexander import AlexanderPolynomial


class RecordReport(Value):
    """Everything the pipeline produced for one record.

    ``matchings``, the full listing, is no field, so ``==`` ignores it: it is
    the listing given to the constructor, or else is built from A and B by
    ``enumerate_matchings`` on first read, and is empty without B.
    """

    name: str
    D: int
    verdict: Verdict
    A: Optional[CorrectionVector]
    B: Optional[GammaVector]
    invariant_factors: tuple[int, ...]

    def __init__(
        self, name: str, D: int, verdict: Verdict, A: Optional[CorrectionVector] = None,
        B: Optional[GammaVector] = None, matchings: Optional[Iterable[Matching]] = None,
        invariant_factors: tuple[int, ...] = (),
    ) -> None:
        super().__init__(name, D, verdict, A, B, invariant_factors)
        if matchings is not None:
            self.__dict__["matchings"] = tuple(matchings)

    @cached_property
    def matchings(self) -> tuple[Matching, ...]:
        return () if self.B is None else enumerate_matchings(self.A, self.B)

    @property
    def outcome(self) -> Outcome:
        return self.verdict.outcome


def analyze_record(record: KnotRecord, strong: bool = False, listing: bool = False) -> RecordReport:
    """Full unsigned pipeline for one record.

    A caller that reads the full listing passes ``listing``.  The listing
    budget depends on D alone, so once the form passes the refusals of
    ``scannable_cokernel`` a listing above it is refused, before any
    correction term is computed.  Only a record whose analysis would list is
    refused: one with D > 1.  A is listed against the scan's generator; the
    verdict and every matching vector C are the same against any other, and
    only the unit labels of the listing would move.
    """
    form = record.form
    try:
        D = scannable_cokernel(form)
    except NonCyclicCokernelError as exc:
        return RecordReport(
            name=record.name,
            D=abs(form.det),
            verdict=Verdict(Outcome.NON_CYCLIC_H1, (), gate_applied=False),
            invariant_factors=exc.invariant_factors,
        )
    if listing and D > 1:
        check_listing_budget(D)
    A = correction_vector(form)
    if A.D == 1:
        return RecordReport(
            name=record.name,
            D=1,
            verdict=Verdict(Outcome.UNKNOT_DETERMINANT, (), gate_applied=False),
            A=A,
        )
    B = gamma_vector(A.D)
    return RecordReport(
        name=record.name, D=A.D, verdict=obstruct(A, B, strong=strong), A=A, B=B
    )


class SignedReport(Value):
    """The sign-refined test for both crossing signs.

    ``negative_to_positive`` uses the record as stored; the other entry
    mirrors it.  Which geometric crossing sign each side names depends on
    the checkerboard orientation of the stored matrix, so consumers should
    lean on the pair, not on the labels.
    """

    name: str
    signature: int
    negative_to_positive: Verdict
    positive_to_negative: Verdict


def sign_refined_record(record: KnotRecord) -> SignedReport:
    """The sign-refined verdicts of a record that carries a signature.

    A non-cyclic cokernel rules out both crossing signs, as it rules out the
    unsigned test: both entries are then ``NonCyclicH1``.
    """
    if record.signature is None:
        raise MissingSignatureError(
            f"record {record.name!r} carries no signature; the signed test needs one"
        )
    try:
        A = correction_vector(record.form)
    except NonCyclicCokernelError:
        non_cyclic = Verdict(Outcome.NON_CYCLIC_H1, (), gate_applied=False)
        return SignedReport(record.name, record.signature, non_cyclic, non_cyclic)
    if A.D == 1:
        trivial = Verdict(Outcome.UNKNOT_DETERMINANT, (), gate_applied=False)
        return SignedReport(record.name, record.signature, trivial, trivial)
    B = gamma_vector(A.D)
    neg = sign_refined_obstruct(A, B, record.signature)
    pos = sign_refined_obstruct(A.mirrored(), B, -record.signature)
    return SignedReport(record.name, record.signature, neg, pos)


class AlexanderReport(Value):
    """The torsion a matching carries, and the polynomial and check it determines."""

    name: str
    torsion: tuple[int, ...]
    matching: Matching

    @cached_property
    def polynomial(self) -> AlexanderPolynomial:
        from . import alexander as alexander_mod

        return alexander_mod.polynomial_from_torsion(self.torsion)

    @property
    def coefficient_check(self) -> bool:
        from . import alexander as alexander_mod

        return alexander_mod.lspace_coefficient_check(self.polynomial)


def alexander_reports(record: KnotRecord) -> list[AlexanderReport]:
    """Torsion and polynomial for every surviving symmetric matching."""
    from . import alexander as alexander_mod

    report = analyze_record(record)
    if report.B is None:
        return []
    out = []
    # No second scan: when an even, positive and (if gated) symmetric
    # matching exists, the verdict's witnesses are all such even matchings,
    # in scan order; when none exists, no witness is positive and symmetric.
    for m in report.verdict.witnesses:
        if not (m.positive and m.symmetric and m.numerators[0] == 0):
            continue
        torsion = alexander_mod.torsion_from_matching(m, report.B)
        out.append(AlexanderReport(record.name, torsion, m))
    return out


# ---------------------------------------------------------------------------
# JSON rendering: rationals as exact "p/q" strings, never decimals; A, B and
# every matching are rendered from their numerators over 4D.


def matching_to_json(m: Matching) -> dict:
    return {
        "unit": m.unit,
        "epsilon": m.epsilon,
        "provenance": [list(pair) for pair in m.provenance],
        "C": m.texts(),
        "compact": format_compact(m),
        "flags": {flag: getattr(m, flag) for flag in FLAGS},
    }


def verdict_to_json(v: Verdict) -> dict:
    return {
        "outcome": v.outcome.value,
        "obstructed": v.outcome.obstructed,
        "gate_applied": v.gate_applied,
        "strong": v.strong,
        "witnesses": [matching_to_json(m) for m in v.witnesses],
        **({"detail": v.detail} if v.detail else {}),
    }


def report_to_json(report: RecordReport, include_matchings: bool = True) -> dict:
    out: dict = {
        "knot": report.name,
        "D": report.D,
        "verdict": report.verdict.outcome.value,
        "obstructed": report.verdict.outcome.obstructed,
        "gate_applied": report.verdict.gate_applied,
    }
    if report.invariant_factors:
        out["invariant_factors"] = list(report.invariant_factors)
    if report.A is not None:
        out["A"] = report.A.texts()
        out["generator"] = list(report.A.generator)
    if report.B is not None:
        out["B"] = report.B.texts()
    if include_matchings:
        out["matchings"] = [matching_to_json(m) for m in report.matchings]
    out["witnesses"] = [format_compact(m) for m in report.verdict.witnesses]
    return out


def batch_reports(records: Iterable[KnotRecord], strong: bool = False) -> list[dict]:
    """Summary entries in input order; an analysis error becomes that record's entry."""
    out = []
    for record in records:
        try:
            report = analyze_record(record, strong=strong)
            entry = report_to_json(report, include_matchings=False)
        except UnknotOneError as exc:
            entry = {"knot": record.name, "error": str(exc)}
        out.append(entry)
    return out
