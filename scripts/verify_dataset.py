#!/usr/bin/env python3
"""Recompute the bundled dataset's internal cross-checks.

For every record: negative-definiteness, cyclicity where expected, the
spin-value gate, the class-count certificate of every record whose form is
a plumbing forest (:class:`unknotone.plumbing.PlumbingForm` accepts it;
the others are skipped), and the stored signature; a refusal of the
analysis is one more problem of its record, and a stated determinant is
checked by the record reader.  A Goeritz form whose off-diagonal entries
all have one sign comes from an alternating diagram, and for an alternating knot
-4 A_0 = sigma (Manolescu-Owens, "A concordance invariant from the Floer
homology of double branched covers", IMRN 2007); with A_0 = a_0 / 4D this
reads -a_0 = sigma D.  Exits nonzero on any failure.
"""

from __future__ import annotations

import sys

from unknotone.catalog import KnotRecord, builtin_dataset
from unknotone.corrections import correction_vector
from unknotone.errors import UnknotOneError, ValidationError
from unknotone.lattice import cokernel, rational_texts
from unknotone.plumbing import PlumbingForm, class_count


def record_problems(record: KnotRecord) -> list[str]:
    """What is wrong with one record, a refusal of its analysis included; empty when
    every check passes."""
    form = record.form
    problems = [] if form.is_negative_definite else ["not negative definite"]
    try:
        factors = cokernel(form)
        if len(factors) > 1:
            problems.append(f"non-cyclic: {factors}")
        else:
            A = correction_vector(form)
            if not A.gate:
                spin = rational_texts(A.numerators[:1], 4 * A.D)[0]
                problems.append(f"gate fails: A_0 = {spin}")
            off = [entry for i, row in enumerate(form.gram) for j, entry in enumerate(row)
                   if i != j]
            alternating = min(off, default=0) >= 0 or max(off, default=0) <= 0
            if alternating and record.signature is not None:
                if -A.numerators[0] != record.signature * A.D:
                    spin = rational_texts([-A.numerators[0]], A.D)[0]
                    problems.append(f"signature {record.signature} != -4 A_0 = {spin}")
    except UnknotOneError as refusal:
        problems.append(str(refusal))
    try:
        plumbing = PlumbingForm(form)
    except ValidationError:
        return problems  # no plumbing forest: the count certifies nothing
    counted = class_count(plumbing)
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
