#!/usr/bin/env python3
"""Time the two characteristic-box scans on chain forms of dimension 6 and 7.

    PYTHONPATH=src python scripts/box_sweep.py [REPEATS]

The chain form has diagonal -5 and 1 beside it, so its box has 6^dim
points (46,656 and 279,936).  For each dimension the script prints the
median CPU time of ``correction_vector`` and of ``class_count``, each on a
fresh form whose determinant and adjugate are already computed, as JSON.
Run it against another checkout by pointing PYTHONPATH at that checkout's
``src``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from unknotone.corrections import correction_vector
from unknotone.lattice import QuadraticForm
from unknotone.plumbing import PlumbingForm, class_count


def chain(dim: int) -> QuadraticForm:
    rows = [[-5 if i == j else int(abs(i - j) == 1) for j in range(dim)] for i in range(dim)]
    form = QuadraticForm.from_rows(rows)
    form.det, form.adjugate, form.is_negative_definite
    return form


def cpu_seconds(fn, *args):
    start = time.process_time()
    result = fn(*args)
    return time.process_time() - start, result


def main() -> int:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    out = {}
    for dim in (6, 7):
        corrections_s, count_s = [], []
        for _ in range(repeats):
            seconds, A = cpu_seconds(correction_vector, chain(dim))
            corrections_s.append(seconds)
            seconds, counted = cpu_seconds(class_count, PlumbingForm(chain(dim)))
            count_s.append(seconds)
        out[f"chain_dim{dim}_diag-5"] = {
            "box": 6**dim,
            "D": A.D,
            "classes": counted.count,
            "correction_vector_s": round(statistics.median(corrections_s), 3),
            "class_count_s": round(statistics.median(count_s), 3),
        }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
