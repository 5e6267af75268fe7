#!/usr/bin/env python3
"""Time the characteristic-box scans and class counts on chains, stars and verdict-path forms.

    PYTHONPATH=src python scripts/box_sweep.py [REPEATS]

Each row is one form; for it the script prints, as JSON, the median CPU
time of the scans in whole microseconds, each on a fresh form whose
determinant and adjugate are already computed:

- ``correction_vector_us`` times the coset-maximum scan over the
  prod |G_ii| points of the reduced box, as the verdict path and the
  plumbing check run it.  The two longest ranges run innermost,
  so a point costs O(1) there.  The points of the other coordinates (the
  heads) are built as one list, one head axis at a time, and each partial
  head carries N_j . p for the head axes still to come, so a head costs
  O(dim) additions.
- ``class_count_us`` times the class count, which runs no scan.  It
  closes one set of points of the full box of prod (|G_ii| + 1) points,
  held as an integer bitset indexed by places, the last coordinate
  fastest: the points whose push leaves the box.  Each
  sweep of the closure applies the pushes in place, at O(dim) bitwise
  operations over the box, until a sweep adds nothing.  The count is the
  number of reduced-box points outside the closure.

The chain forms have diagonal -5 and 1 beside it, in dimension 6 and 7,
so their boxes have 6^dim points (46,656 and 279,936); they and the
dimension-8 star (centre -3, legs (-2, -2, -2), (-2, -3), (-2, -2), a box
of 11,664 points) are trees, and the closure sets the work of the count.
The dimension-7 star is the shape ``star-4_3.2.3.2_2_3`` of the (7, -4, 3)
stratum of the benchmark's ``plumbing`` workload (centre -4, legs
(-3, -2, -3, -2), (-2), (-3)), which sets that workload's tail: a box of
8,640 points and a reduced box of 864, which the scan covers as 72 heads
of 12 inner points; building them over five head axes makes 116 partial
and full heads, so the heads weigh on the cost of its scan.  The
dimension-8 chain with a last entry -6 is the form behind the
``lattice.BOX_BUDGET`` comment: a box of 1,959,552 points, just under the
budget, and D = 350,981.

The non-L-space row times the count on a tree it does not certify: the
dimension-8 star with centre -1 (its one bad vertex) and legs
(-3, -5, -5), (-3, -5), (-4, -5) has 1,028 classes inside its box of
207,360 points for D = 383.

The verdict-path rows time ``correction_vector`` alone.  The two-bridge
form [[-2, 1], [1, -50000]] has D = 99,999 and no head: one range of
length 2 and one of length 50,000.  The dimension-8 chain with diagonal
-5 and a last entry -4 has D = 229,771 and a reduced box of 312,500
points: 12,500 heads of 25 innermost points each, built over six head
axes as 16,405 partial and full heads.

The ``bundled_records`` row sums the plain ``correction_vector`` time
over every bundled record that has a correction vector (all 54 of
them).  These are the small forms the paper's tables run: reduced boxes
of at most 288 points, 115 on average, with about 8 heads each.

Run it against another checkout by pointing PYTHONPATH at that
checkout's ``src``.
"""


from __future__ import annotations

import json
import statistics
import sys
import time
from math import prod

from unknotone.catalog import builtin_dataset
from unknotone.corrections import correction_vector
from unknotone.errors import UnknotOneError
from unknotone.lattice import QuadraticForm
from unknotone.plumbing import PlumbingForm, class_count


def chain(dim: int, last: int = -5) -> list[list[int]]:
    rows = [[-5 if i == j else int(abs(i - j) == 1) for j in range(dim)] for i in range(dim)]
    rows[-1][-1] = last
    return rows


def star(centre: int, legs: list[list[int]]) -> list[list[int]]:
    weights = [centre] + [w for leg in legs for w in leg]
    dim = len(weights)
    rows = [[weights[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    at = 1
    for leg in legs:
        previous = 0
        for _ in leg:
            rows[previous][at] = rows[at][previous] = 1
            previous, at = at, at + 1
    return rows


SHAPES = {
    "chain_dim6_diag-5": chain(6),
    "chain_dim7_diag-5": chain(7),
    "star_dim8_centre-3": star(-3, [[-2, -2, -2], [-2, -3], [-2, -2]]),
    "star_dim7_centre-4": star(-4, [[-3, -2, -3, -2], [-2], [-3]]),
    "chain_dim8_diag-5_last-6": chain(8, last=-6),
}

# classes beyond |det| on a tree with one bad vertex
NON_LSPACE_SHAPES = {
    "non_lspace_star_dim8": star(-1, [[-3, -5, -5], [-3, -5], [-4, -5]]),
}

VERDICT_SHAPES = {
    "two_bridge_D99999": [[-2, 1], [1, -50000]],
    "chain_dim8_diag-5_last-4": chain(8, last=-4),
}


def bundled_rows() -> list[list[list[int]]]:
    """The Goeritz matrices of the bundled records that have a correction vector."""
    out = []
    for record in builtin_dataset():
        try:
            correction_vector(record.form)
        except UnknotOneError:
            continue
        out.append(record.form.gram)
    return out


def fresh(rows: list[list[int]]) -> QuadraticForm:
    form = QuadraticForm.from_rows(rows)
    form.det, form.adjugate, form.is_negative_definite
    return form


def cpu_seconds(fn, *args):
    start = time.process_time()
    result = fn(*args)
    return time.process_time() - start, result


def median_us(seconds: list[float]) -> int:
    """The median of CPU times in seconds, in whole microseconds."""
    return round(statistics.median(seconds) * 1e6)


def main() -> int:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    out = {}
    for name, rows in SHAPES.items():
        corrections_s, count_s = [], []
        for _ in range(repeats):
            seconds, A = cpu_seconds(correction_vector, fresh(rows))
            corrections_s.append(seconds)
            seconds, counted = cpu_seconds(class_count, PlumbingForm(fresh(rows)))
            count_s.append(seconds)
        diagonal = [-rows[i][i] for i in range(len(rows))]
        out[name] = {
            "box": prod(d + 1 for d in diagonal),
            "reduced_box": prod(diagonal),
            "D": A.D,
            "classes": counted.count,
            "correction_vector_us": median_us(corrections_s),
            "class_count_us": median_us(count_s),
        }
    for name, rows in NON_LSPACE_SHAPES.items():
        count_s = []
        for _ in range(repeats):
            seconds, counted = cpu_seconds(class_count, PlumbingForm(fresh(rows)))
            count_s.append(seconds)
        out[name] = {
            "box": prod(1 - rows[i][i] for i in range(len(rows))),
            "determinant": counted.determinant,
            "classes": counted.count,
            "class_count_us": median_us(count_s),
        }
    for name, rows in VERDICT_SHAPES.items():
        corrections_s = []
        for _ in range(repeats):
            seconds, A = cpu_seconds(correction_vector, fresh(rows))
            corrections_s.append(seconds)
        out[name] = {
            "reduced_box": prod(-rows[i][i] for i in range(len(rows))),
            "D": A.D,
            "correction_vector_us": median_us(corrections_s),
        }
    bundled = bundled_rows()
    corrections_s = []
    for _ in range(repeats):
        corrections_s.append(sum(cpu_seconds(correction_vector, fresh(rows))[0] for rows in bundled))
    out["bundled_records"] = {
        "records": len(bundled),
        "reduced_box_max": max(prod(-rows[i][i] for i in range(len(rows))) for rows in bundled),
        "correction_vector_us": median_us(corrections_s),
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
