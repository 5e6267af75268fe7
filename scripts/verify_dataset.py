#!/usr/bin/env python3
"""Recompute the bundled dataset's internal cross-checks.

For every record: determinant metadata (where present) against |det|,
negative-definiteness, cyclicity where expected, the spin-value gate,
(for the plumbing records) the class-count certificate, and the stored
signature.  A Goeritz form whose off-diagonal entries all have one sign
comes from an alternating diagram, and for an alternating knot
-4 A_0 = sigma (Manolescu-Owens, "A concordance invariant from the Floer
homology of double branched covers", IMRN 2007); with A_0 = a_0 / 4D this
reads -a_0 = sigma D.  Exits nonzero on any failure.
"""

from __future__ import annotations

import sys

from unknotone.catalog import KnotRecord, builtin_dataset
from unknotone.corrections import correction_vector
from unknotone.lattice import cokernel
from unknotone.plumbing import PlumbingForm, class_count

PLUMBING_RECORDS = ("10_125", "10_126", "10_130", "10_135", "10_138")


def record_problems(record: KnotRecord) -> list[str]:
    """What is wrong with one record; empty when every check passes."""
    form = record.form
    problems = []
    if not form.is_negative_definite:
        problems.append("not negative definite")
    if record.determinant is not None and record.determinant != abs(form.det):
        problems.append(f"determinant metadata {record.determinant} != {abs(form.det)}")
    structure = cokernel(form)
    if not structure.is_cyclic:
        problems.append(f"non-cyclic: {structure.invariant_factors}")
    else:
        A = correction_vector(form)
        if not A.gate:
            problems.append(f"gate fails: A_0 = {A.values[0]}")
        off = [entry for i, row in enumerate(form.gram) for j, entry in enumerate(row) if i != j]
        alternating = min(off, default=0) >= 0 or max(off, default=0) <= 0
        if alternating and record.signature is not None:
            if -A.numerators[0] != record.signature * A.D:
                problems.append(f"signature {record.signature} != -4 A_0 = {-4 * A.values[0]}")
    if record.name in PLUMBING_RECORDS:
        counted = class_count(PlumbingForm(form))
        if not counted.is_lspace:
            problems.append(f"class count {counted.count} != {counted.determinant}")
    return problems


def main() -> int:
    failures = 0
    for record in builtin_dataset():
        problems = record_problems(record)
        status = "ok" if not problems else "; ".join(problems)
        print(f"{record.name:>8}  D={abs(record.form.det):>3}  {status}")
        failures += bool(problems)
    print(f"{failures} records with problems" if failures else "dataset checks clean")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
