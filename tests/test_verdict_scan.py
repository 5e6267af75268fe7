"""The verdict path against the full matching listing.

Verdicts and companions come from ``even_matchings``, an early-exit scan;
each must equal the value computed from ``enumerate_matchings``, the way
the pipeline computed it before the scan existed.
"""

import subprocess
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings

from helpers import reference_gamma_vector
from test_properties import cyclic_odd, negative_definite_forms
from unknotone import report
from unknotone.alexander import (
    lspace_coefficient_check,
    polynomial_from_torsion,
    torsion_from_matching,
)
from unknotone.catalog import KnotRecord, builtin_dataset
from unknotone.corrections import correction_vector
from unknotone.errors import NonCyclicCokernelError, UnknotOneError, ValidationError
from unknotone.gamma import gamma_vector
from unknotone.lattice import QuadraticForm
from unknotone.matching import (
    LISTING_BUDGET,
    enumerate_matchings,
    even_matchings,
    obstruct,
    sign_refined_obstruct,
)


def check_verdicts(A, B):
    listing = enumerate_matchings(A, B)
    assert even_matchings(A, B) == tuple(m for m in listing if m.even)
    for strong in (False, True):
        assert obstruct(A, B, strong) == obstruct(A, B, strong, matchings=listing)
    for sigma in (0, 2):
        epsilon = -((-1) ** (sigma // 2))
        pool = [m for m in listing if any(eps == epsilon for _, eps in m.provenance)]
        assert sign_refined_obstruct(A, B, sigma) == obstruct(A, B, matchings=pool)


def reference_alexander_reports(record):
    """``alexander_reports`` read off the full listing, each report with its
    polynomial and coefficient check, which ``==`` does not compare."""
    A = correction_vector(record.form)
    if A.D == 1:
        return []
    B = gamma_vector(A.D)
    out = []
    for m in enumerate_matchings(A, B):
        if m.even and m.positive and m.symmetric and m.C[0] == 0:
            torsion = torsion_from_matching(m, B)
            poly = polynomial_from_torsion(torsion)
            check = lspace_coefficient_check(poly)
            out.append((report.AlexanderReport(record.name, torsion, m), poly, check))
    return out


def alexander_reports(record):
    return [(r, r.polynomial, r.coefficient_check) for r in report.alexander_reports(record)]


def outcome(fn, record):
    try:
        return fn(record)
    except UnknotOneError as exc:
        return type(exc), str(exc)


def check_alexander(record):
    assert outcome(alexander_reports, record) == outcome(reference_alexander_reports, record)


@pytest.mark.parametrize("record", builtin_dataset(), ids=lambda r: r.name)
def test_verdicts_on_bundled_records_and_mirrors(record):
    try:
        A = correction_vector(record.form)
    except NonCyclicCokernelError:
        pytest.skip("non-cyclic cokernel: no matchings")
    if A.D == 1:
        pytest.skip("determinant 1: no matchings")
    B = gamma_vector(A.D)
    check_verdicts(A, B)
    check_verdicts(A.mirrored(), B)
    check_alexander(record)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(negative_definite_forms(max_dim=3, max_abs_det=45))
def test_verdicts_on_random_forms(form):
    assume(cyclic_odd(form))
    A = correction_vector(form)
    B = gamma_vector(A.D)
    check_verdicts(A, B)
    check_verdicts(A.mirrored(), B)
    check_alexander(KnotRecord(name="random", goeritz=form))


def test_alexander_reports_scan_the_pairs_once(monkeypatch):
    calls = []

    def counted(A, B):
        calls.append(A.D)
        return even_matchings(A, B)

    monkeypatch.setattr("unknotone.matching.even_matchings", counted)
    for record in builtin_dataset():
        calls.clear()
        found = [r.matching for r in report.alexander_reports(record)]
        scans = len(calls)
        rep = report.analyze_record(record)
        assert scans == (rep.B is not None), record.name
        pool = () if rep.B is None else even_matchings(rep.A, rep.B)
        expected = [m for m in pool if m.positive and m.symmetric and m.C[0] == 0]
        assert found == expected, record.name


def test_batch_reports_never_list(monkeypatch):
    def refuse(A, B):
        raise AssertionError("the full listing was built")

    monkeypatch.setattr(report, "enumerate_matchings", refuse)
    monkeypatch.setattr("unknotone.matching.enumerate_matchings", refuse)
    for strong in (False, True):
        entries = report.batch_reports(builtin_dataset(), strong=strong)
        assert len(entries) == len(builtin_dataset())
        assert not [entry for entry in entries if "error" in entry]


def test_listing_is_built_on_first_read():
    record = next(r for r in builtin_dataset() if r.name == "8_10")
    rep = report.analyze_record(record)
    listing = enumerate_matchings(rep.A, rep.B)
    assert rep.matchings == listing
    assert rep.matchings is rep.matchings
    given_listing = report.RecordReport(
        name=rep.name, D=rep.D, verdict=rep.verdict, A=rep.A, B=rep.B, matchings=listing
    )
    assert given_listing == report.analyze_record(record)
    assert given_listing.matchings == listing
    assert report.RecordReport(name="x", D=3, verdict=rep.verdict).matchings == ()


def test_listing_budget_is_checked_before_scanning():
    # D = 3999: 2 * phi(D) * D = 2.0e7 entries
    A = correction_vector(QuadraticForm.from_rows([[-2, 1], [1, -2000]]))
    B = gamma_vector(A.D)
    with pytest.raises(ValidationError) as excinfo:
        enumerate_matchings(A, B)
    assert str(excinfo.value) == (
        f"matching listing for D = 3999 has 20154960 entries, "
        f"above the budget of {LISTING_BUDGET}"
    )
    assert obstruct(A, B).outcome.value == "NotObstructed"


def test_gamma_vector_matches_one_pairing_per_kappa():
    for D in range(3, 1000, 2):
        B, ref = gamma_vector(D), reference_gamma_vector(D)
        assert (B.D, B.n, B.singly_attained_index) == (ref.D, ref.n, ref.singly_attained_index)
        assert (B.values, B.v_index, B.kappas) == (ref.values, ref.v_index, ref.kappas), D


def test_gamma_symmetry_check_holds_under_optimisation(src_env):
    # an asymmetric model vector must be refused also under python -O, by
    # the check that every vector type makes
    code = (
        "from unknotone import gamma\n"
        "from unknotone.errors import ValidationError\n"
        "runs = gamma._kappa_runs\n"
        "def skewed(n):\n"
        "    out = runs(n)\n"
        "    xs, y = out[0]\n"
        "    out[0:1] = [(xs[:1], y), (xs[1:2], y + 2), (xs[2:], y)]\n"
        "    return out\n"
        "gamma._kappa_runs = skewed\n"
        "try:\n"
        "    gamma.gamma_vector(27)\n"
        "except ValidationError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=src_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "a vector over Z/27 must have A_i = A_(D-i)\n"


def test_singly_attained_check_holds_under_optimisation(src_env):
    # gamma --json prints v_index, which is derived only when read; a
    # skewed class list must be refused there also under python -O
    code = (
        "from unknotone import gamma\n"
        "B = gamma.gamma_vector(61)\n"
        "runs = gamma._kappa_runs\n"
        "def skewed(n):\n"
        "    out = runs(n)\n"
        "    xs, y = out[0]\n"
        "    out[0:1] = [(xs[:1], y), (range(xs[1] + 2, xs[1] + 3), y), (xs[2:], y)]\n"
        "    return out\n"
        "gamma._kappa_runs = skewed\n"
        "try:\n"
        "    B.v_index\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=src_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("expected one singly attained class, found ["), proc.stdout
