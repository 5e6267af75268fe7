"""Acceptance criteria, one test per criterion, with stated time budgets.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  All comparisons are exact (integers and fractions); the time
budgets are wall-clock seconds on a single core.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest

import reference_tables as ref
from helpers import unit_of_covector
from unknotone.catalog import builtin_dataset, builtin_record
from unknotone.corrections import correction_vector
from unknotone.gamma import gamma_vector, model_form
from unknotone.lattice import QuadraticForm
from unknotone.matching import Outcome, enumerate_matchings, format_compact
from unknotone.plumbing import PlumbingForm, class_count, plumbing_corrections
from unknotone.report import alexander_reports, analyze_record, sign_refined_record

from test_corrections import A27_PUBLISHED
from test_gamma import B27
from test_plumbing import E8


@contextmanager
def criterion(number: int, title: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_seconds:
        print(f"ACCEPTANCE {number} ({title}): FAIL (took {elapsed:.2f}s > {budget_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded budget: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number} ({title}): PASS ({elapsed:.2f}s)")


def positive_rows(name: str) -> tuple[int, list[str]]:
    report = analyze_record(builtin_record(name))
    rows = sorted(
        format_compact(m) for m in report.matchings if m.even and m.positive
    )
    return report.D, rows


def test_criterion_1_exact_lists():
    with criterion(1, "8_10 exact correction and comparison vectors", 1.0):
        A = correction_vector(builtin_record("8_10").form)
        assert A.D == 27
        assert A.values[0] == Fraction(-1, 2)
        values = list(A.values)
        assert any(
            [values[(u * i) % 27] for i in range(27)] == A27_PUBLISHED
            for u in range(1, 27)
            if gcd(u, 27) == 1
        )
        assert list(gamma_vector(27).values) == B27


def test_criterion_2_small_knot_verdicts():
    for name, expected_rows in (
        ("8_10", ["2, 2, [4], 2, 2, 2"]),
        ("9_29", ["2, 2, 2, 2, 4, 4, 6, [6], 6, 4, 4, 4, 2, 2, 2, 2"]),
        ("9_32", ["2, 2, 2, 2, 4, 4, 6, 6, [8], 6, 6, 4, 4, 4, 2, 2, 2, 2"]),
    ):
        with criterion(2, f"{name} unique matching and verdict", 5.0):
            report = analyze_record(builtin_record(name))
            rows = [
                m for m in report.matchings if m.even and m.positive
            ]
            assert [format_compact(m) for m in rows] == expected_rows
            assert not rows[0].symmetric
            assert report.outcome is Outcome.NO_SYMMETRIC_MATCHING
            assert [format_compact(m) for m in report.verdict.witnesses] == expected_rows


def test_criterion_3_table_sweep():
    with criterion(3, "published matching tables as multisets", 60.0):
        for name, (det, expected) in sorted(ref.EVEN_POSITIVE_ROWS.items()):
            D, rows = positive_rows(name)
            assert rows == sorted(expected), name
            assert det is not None and D == det, (name, D, det)


def test_criterion_4_negative_controls():
    with criterion(4, "no-even and no-even-positive controls", 30.0):
        for name in sorted(ref.NO_EVEN_MATCHING):
            report = analyze_record(builtin_record(name))
            assert report.outcome is Outcome.NO_EVEN_MATCHING, name
            det = ref.NO_EVEN_MATCHING[name]
            if det is not None:
                assert report.D == det
        for name, (det, witnesses) in sorted(ref.EVEN_ROWS_NOT_POSITIVE.items()):
            report = analyze_record(builtin_record(name))
            assert report.outcome is Outcome.NO_EVEN_POSITIVE_MATCHING, name
            assert report.D == det
            assert sorted(format_compact(m) for m in report.verdict.witnesses) == sorted(
                witnesses
            ), name


def test_criterion_5_model_vector_oracle():
    with criterion(5, "comparison vector equals model-form corrections", 60.0):
        for D in range(3, 100, 2):
            form = model_form(D)
            A = correction_vector(form).reindexed(unit_of_covector(form, (2, 0)))
            assert list(A.values) == list(gamma_vector(D).values), D


def test_criterion_6_plumbing_certificates():
    with criterion(6, "plumbing class counts and sharp forms", 60.0):
        ten_125 = builtin_record("10_125")
        counted = class_count(PlumbingForm(ten_125.form))
        assert counted.count == counted.determinant == 11
        A = plumbing_corrections(PlumbingForm(ten_125.form))
        expected = [
            Fraction(1, 2), Fraction(35, 22), Fraction(19, 22), Fraction(7, 22),
            Fraction(-1, 22), Fraction(-5, 22), Fraction(-5, 22), Fraction(-1, 22),
            Fraction(7, 22), Fraction(19, 22), Fraction(35, 22),
        ]
        values = list(A.values)
        assert any(
            [values[(u * i) % 11] for i in range(11)] == expected
            for u in range(1, 11)
        )
        e8 = class_count(PlumbingForm.from_rows(E8))
        assert e8.count == 1 and e8.is_lspace
        for name in ("10_148", "10_151", "10_158", "10_162"):
            D, rows = positive_rows(name)
            det, expected_rows = ref.EVEN_POSITIVE_ROWS[name]
            assert D == det and rows == sorted(expected_rows), name


def test_criterion_7_sign_refinement_and_companion():
    with criterion(7, "9_33 sign refinement and companion extraction", 10.0):
        record = builtin_record("9_33")
        report = analyze_record(record)
        even_positive = [m for m in report.matchings if m.even and m.positive]
        assert sorted(set(eps for m in even_positive for _, eps in m.provenance)) == [-1, 1]
        symmetric = [m for m in even_positive if m.symmetric]
        assert len(symmetric) == 1
        assert format_compact(symmetric[0]) == ref.SIGN_REFINED_EXAMPLE["symmetric_row"]
        signed = sign_refined_record(record)
        outcomes = {
            signed.negative_to_positive.outcome,
            signed.positive_to_negative.outcome,
        }
        assert Outcome.NOT_OBSTRUCTED in outcomes
        assert len(outcomes) == 2  # exactly one crossing sign passes
        companions = alexander_reports(record)
        assert len(companions) == 1
        assert companions[0].coefficient_check


def test_criterion_7_printed_polynomial():
    # The source tables print the (7,4) torus-knot polynomial for the
    # companion of 9_33.  That value is inconsistent with the printed
    # symmetric matching itself: the matching's class content is 36 while
    # the printed polynomial's is 30, and no index bookkeeping can bridge
    # the two (see the decisions ledger).  The assertion is kept as stated;
    # it fails against the honestly computed companion.
    with criterion(7, "9_33 companion equals the printed polynomial", 10.0):
        companions = alexander_reports(builtin_record("9_33"))
        assert len(companions) == 1
        assert companions[0].torsion == ref.SIGN_REFINED_EXAMPLE["torsion"]
        poly = companions[0].polynomial
        assert poly.a0 == ref.SIGN_REFINED_EXAMPLE["alexander_a0"]
        assert poly.higher == ref.SIGN_REFINED_EXAMPLE["alexander_higher"]


def test_criterion_8_property_suites_and_determinism():
    with criterion(8, "property suites and parallel determinism", 120.0):
        # the randomized invariants live in test_properties.py; here we pin
        # the deterministic-output requirement across worker counts
        env_base = dict(os.environ)
        outputs = []
        for workers in ("1", "3"):
            env = dict(env_base, UNKNOT_THREADS=workers)
            proc = subprocess.run(
                [sys.executable, "-m", "unknotone.cli", "report", "--paper-tables", "--json"],
                capture_output=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["ten_crossing_unknotting_two"] == ref.UNKNOTTING_TWO
        assert payload["ten_crossing_unknotting_two_or_three"] == ref.UNKNOTTING_TWO_OR_THREE
        for entry in payload["records"]:
            if entry["knot"] in ref.UNKNOTTING_TWO:
                assert entry["obstructed"], entry["knot"]
