"""Seeded, bounded inputs for the benchmark workloads.

Nothing here imports the program: inputs are plain record dicts (the JSON
record format the program reads), built with the benchmark's own integer
arithmetic, so the program receives only generated inputs.

The two generated workloads draw from fixed catalogues split into cost
strata (the determinant D for ``large_det``, the characteristic box size for
``plumbing``); the seed picks which shapes of each stratum a round sends and
the order of each round.  Each catalogue entry has a stored output digest in
``expected.json``.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

# A stratum fixes the quantity that sets an operation's cost and says how
# many distinct shapes a round draws from it.  Strata are listed by cost, and
# the counts put a round's median and its tail sample (the one with ten
# beyond it) inside strata whose shapes cost the same, not between two
# strata, so both statistics stay steady from seed to seed.

# large_det: prime D over 151..331.  Prime D makes every residue a unit, so
# the (unit, sign) scan and the listing are as large as D allows, and the
# cost of an operation is set by D.
LARGE_DET_STRATA = ((151, 2), (199, 2), (251, 6), (307, 3), (331, 3))
LARGE_DET_RANGE = (151, 351)

# plumbing: star-shaped plumbings, centre weight <= -3 and three legs of
# -2/-3 vertices, so no vertex is bad.  A stratum is (dimension, centre
# weight, number of -3 leg vertices), which fixes the box size
# (|c| + 1) * 3^(#-2) * 4^(#-3).  Dimension stays <= 8: the box scan and the
# class walk grow with the box; one dimension-9 class count takes ~7 s.
# The class walk also depends on the shape; the shapes of one stratum cost
# the same to within a few percent (the dimension-8 ones to within 25%).
# A round of these 13 shapes takes about 8.4 s at the reference speed, so a
# 30 s run makes three rounds (39 samples): the median falls in (6, -5, 3)
# and the tail sample in the (7, -4, 3) / (7, -3, 4) pair, which cost the
# same.
PLUMBING_STRATA = (
    ((6, -3, 2), 3),
    ((6, -5, 2), 3),
    ((6, -5, 3), 2),
    ((7, -3, 2), 1),
    ((7, -4, 3), 2),
    ((7, -3, 4), 1),
    ((8, -3, 1), 1),
)
PLUMBING_MAX_DIM = 8
SHAPES_PER_STRATUM = 6

# cli: the fixed command mix; each entry is (label, argv after the module,
# extra environment).  A round runs every command CLI_REPEATS times.
CLI_COMMANDS = (
    ("obstruct", ("obstruct", "--knot", "8_10"), {}),
    ("obstruct", ("obstruct", "--knot", "10_121", "--json"), {}),
    ("match", ("match", "--knot", "9_33", "--json"), {}),
    ("alexander", ("alexander", "--knot", "9_33"), {}),
    ("plumbing_check", ("plumbing-check", "--knot", "10_125"), {}),
    ("gamma", ("gamma", "--D", "1019", "--json"), {}),
    ("report", ("report", "--paper-tables", "--json"), {"UNKNOT_THREADS": "2"}),
)
CLI_REPEATS = 4


# ---------------------------------------------------------------------------
# Integer linear algebra, independent of the program under test.


def det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def leading_minors(rows) -> list[int]:
    return [det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]


def is_negative_definite(rows) -> bool:
    return all((-1) ** k * minor > 0 for k, minor in enumerate(leading_minors(rows), start=1))


def has_cyclic_cokernel(rows) -> bool:
    """The cokernel of G is cyclic iff the (n-1)-minors have gcd 1."""
    n = len(rows)
    g = 0
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]
            g = gcd(g, det(minor))
            if g == 1:
                return True
    return n <= 1


def box_candidates(rows) -> int:
    """Size of the characteristic box, prod(|G_ii| + 1); computed, not measured."""
    return prod(abs(rows[i][i]) + 1 for i in range(len(rows)))


def units_count(D: int) -> int:
    return sum(1 for u in range(1, D) if gcd(u, D) == 1)


def spin_reference(D: int) -> Fraction:
    """B_0 of the model form, in closed form: 0 if (D+1)/2 is odd, else 1/2."""
    return Fraction(0) if ((D + 1) // 2) % 2 == 1 else Fraction(1, 2)


def is_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, int(n ** 0.5) + 1))


# ---------------------------------------------------------------------------
# Catalogues.


def large_det_shapes(D: int) -> list[dict]:
    """Two-bridge [[-a,1],[1,-b]] and three-term chain forms with |det| = D."""
    out = []
    for a in range(2, D + 2):
        if (D + 1) % a == 0 and a <= (D + 1) // a:
            b = (D + 1) // a
            out.append({"name": f"tb-{D}-{a}-{b}", "goeritz": [[-a, 1], [1, -b]]})
    for a in range(2, D + 1):
        for c in range(a, D + 1):
            if a * c > D + a + c:
                break
            b, rem = divmod(D + a + c, a * c)
            if rem == 0 and b >= 2:
                out.append(
                    {
                        "name": f"ch-{D}-{a}-{b}-{c}",
                        "goeritz": [[-a, 1, 0], [1, -b, 1], [0, 1, -c]],
                    }
                )
    return _spread(out)


def star_rows(centre: int, legs) -> list[list[int]]:
    n = 1 + sum(len(leg) for leg in legs)
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = centre
    idx = 1
    for leg in legs:
        prev = 0
        for weight in leg:
            rows[idx][idx] = weight
            rows[prev][idx] = rows[idx][prev] = 1
            prev = idx
            idx += 1
    return rows


def plumbing_shapes(dim: int, centre: int, threes: int) -> list[dict]:
    """Star plumbings of one stratum with odd |det| and cyclic cokernel."""
    seen = set()
    out = []
    leg_vertices = dim - 1
    for l1 in range(leg_vertices, 0, -1):
        for l2 in range(min(l1, leg_vertices - l1 - 1), 0, -1):
            l3 = leg_vertices - l1 - l2
            if not 1 <= l3 <= l2:
                continue
            for picks in combinations(range(leg_vertices), threes):
                weights = [-3 if i in picks else -2 for i in range(leg_vertices)]
                legs = (
                    tuple(weights[:l1]),
                    tuple(weights[l1:l1 + l2]),
                    tuple(weights[l1 + l2:]),
                )
                key = tuple(sorted(legs, key=lambda leg: (len(leg), leg), reverse=True))
                if key in seen:
                    continue
                seen.add(key)
                rows = star_rows(centre, key)
                if det(rows) % 2 == 0 or not has_cyclic_cokernel(rows):
                    continue
                name = f"star{centre}_" + "_".join(
                    ".".join(str(-w) for w in leg) for leg in key
                )
                out.append({"name": name, "goeritz": rows})
    return _spread(out)


def _spread(shapes: list[dict]) -> list[dict]:
    """At most SHAPES_PER_STRATUM entries, evenly spaced through the list."""
    if len(shapes) <= SHAPES_PER_STRATUM:
        return shapes
    step = len(shapes) / SHAPES_PER_STRATUM
    return [shapes[int(i * step)] for i in range(SHAPES_PER_STRATUM)]


@functools.lru_cache(maxsize=None)
def catalogue(workload: str) -> list[list[dict]]:
    """Every entry the workload can draw, grouped by stratum (do not mutate)."""
    if workload == "large_det":
        return [large_det_shapes(D) for D, _ in LARGE_DET_STRATA]
    if workload == "plumbing":
        return [plumbing_shapes(*stratum) for stratum, _ in PLUMBING_STRATA]
    raise ValueError(f"{workload} has no catalogue")


# ---------------------------------------------------------------------------
# Per-seed inputs.


def round_inputs(workload: str, seed: int, dataset_names=None) -> list:
    """The inputs of one round, in the seed's order.

    ``dataset`` returns record names (all bundled records), ``cli`` returns
    indices into CLI_COMMANDS (each command CLI_REPEATS times), the others
    return record dicts (distinct shapes from every stratum).
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dataset":
        items = list(dataset_names)
    elif workload == "cli":
        items = list(range(len(CLI_COMMANDS))) * CLI_REPEATS
    else:
        strata = LARGE_DET_STRATA if workload == "large_det" else PLUMBING_STRATA
        items = [
            entry
            for shapes, (_, count) in zip(catalogue(workload), strata)
            for entry in rng.sample(shapes, count)
        ]
    rng.shuffle(items)
    return items


def round_order(workload: str, seed: int, round_index: int, items: list) -> list:
    """Round 0 keeps the seed's order; later rounds reshuffle with the seed."""
    if round_index == 0:
        return items
    out = list(items)
    random.Random(f"{workload}:{seed}:{round_index}").shuffle(out)
    return out
