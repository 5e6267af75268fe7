#!/usr/bin/env python3
"""Recompute the bundled dataset's internal cross-checks.

For every record: determinant metadata against |det| of the form,
negative-definiteness, cyclicity where expected, the spin-value gate, and
(for the plumbing records) the class-count certificate.  Exits nonzero on
any failure.
"""

from __future__ import annotations

import sys

from unknotone.catalog import builtin_dataset
from unknotone.corrections import correction_vector
from unknotone.lattice import cokernel
from unknotone.plumbing import PlumbingForm, class_count

PLUMBING_RECORDS = ("10_125", "10_126", "10_130", "10_135", "10_138")


def main() -> int:
    failures = 0
    for record in builtin_dataset():
        form = record.form
        problems = []
        if not form.is_negative_definite:
            problems.append("not negative definite")
        if record.determinant != abs(form.det):
            problems.append(f"determinant metadata {record.determinant} != {abs(form.det)}")
        structure = cokernel(form)
        if not structure.is_cyclic:
            problems.append(f"non-cyclic: {structure.invariant_factors}")
        else:
            A = correction_vector(form)
            if not A.gate:
                problems.append(f"gate fails: A_0 = {A.spin}")
        if record.name in PLUMBING_RECORDS:
            counted = class_count(PlumbingForm(form))
            if not counted.is_lspace:
                problems.append(f"class count {counted.count} != {counted.determinant}")
        status = "ok" if not problems else "; ".join(problems)
        print(f"{record.name:>8}  D={abs(form.det):>3}  {status}")
        failures += bool(problems)
    print(f"{failures} records with problems" if failures else "dataset checks clean")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
