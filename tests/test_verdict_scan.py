"""The verdict path against the full matching listing.

Verdicts and companions come from ``even_matchings``, an early-exit scan;
each must equal the value computed from ``enumerate_matchings``, the way
the pipeline computed it before the scan existed.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings

from helpers import cyclic_odd, model_form, negative_definite_forms
from unknotone import gamma, report
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
    # N = D R_D^-1 = [[-2, -1], [-1, -n]]: at a characteristic kappa = (x, y), 4D B is
    # kappa^t N kappa + 2D = 2D - 2x^2 - 2xy - n y^2; classes x mod 2n pair up but one
    for D in range(3, 1000, 2):
        n, B = (D + 1) // 2, gamma_vector(D)
        assert model_form(D).inverse_numerator == ((-2, -1), (-1, -n)), D
        assert len(B.kappas) == D
        assert {(x % 2, y % 2) for x, y in B.kappas} == {(n % 2, 0)}, D
        assert B.numerators == tuple([2 * (D - x * x - x * y) - n * y * y for x, y in B.kappas]), D
        residues = [x % (2 * n) for x, _ in B.kappas]
        counts = Counter(residues)
        assert sorted(counts.values()) == [1] + [2] * (n - 1), D
        assert counts[residues[B.singly_attained_index]] == 1, D
        assert B.v_index == tuple(residues), D


# The two checks below are raised errors, not asserts, so python -O keeps them:
# the package holds no assert (tests/test_imports.py), and the same code runs
# with and without -O.


def test_gamma_symmetry_check_holds_under_optimisation(monkeypatch):
    # an asymmetric model vector is refused by the check that every vector type makes
    runs = gamma._kappa_runs

    def skewed(n):
        out = runs(n)
        xs, y = out[0]
        out[0:1] = [(xs[:1], y), (xs[1:2], y + 2), (xs[2:], y)]
        return out

    monkeypatch.setattr(gamma, "_kappa_runs", skewed)
    with pytest.raises(ValidationError) as info:
        gamma.gamma_vector(27)
    assert str(info.value) == "a vector over Z/27 must have A_i = A_(D-i)"


def test_singly_attained_check_holds_under_optimisation(monkeypatch):
    # gamma --json prints v_index, which is derived only when read; a skewed
    # class list is refused there
    B = gamma.gamma_vector(61)
    runs = gamma._kappa_runs

    def skewed(n):
        out = runs(n)
        xs, y = out[0]
        out[0:1] = [(xs[:1], y), (range(xs[1] + 2, xs[1] + 3), y), (xs[2:], y)]
        return out

    monkeypatch.setattr(gamma, "_kappa_runs", skewed)
    with pytest.raises(AssertionError, match=r"^expected one singly attained class, found \["):
        B.v_index
