"""Matching search and the obstruction verdicts.

A matching compares the correction vector A of a knot form against the
model vector B of the same determinant: for a unit u of Z/D and a sign
epsilon, C_i = -B_i - epsilon * A_{u i}.  A knot that can be unknotted with
one crossing change must admit a matching consisting of non-negative even
integers; when |A_0| <= 1/2 the matching must additionally be symmetric
about the quarter-point k (D = 4k +- 1), and the strong form further forces
the half-vector to climb to the middle in steps of at most two.

Both searches run on integers.  A and B store their entries as integer
numerators over 4D, so every C is a tuple of numerators over 4D, and the
four filters are one integer predicate on them.  A is conjugation-symmetric,
so the units u and D - u give the same C: only 2u < D is scanned, and each
C records both pairs.  ``Matching`` is a
:class:`unknotone.lattice.RationalVector` like A and B: it keeps C as
numerators and renders them with ``texts()``; ``Matching.C`` is the
``Fraction`` view ``values`` of the base type, which no output reads.

The verdict scan.  Every verdict starts from the even matchings, and
:func:`even_matchings` finds just those.  C_0 = -B_0 - epsilon A_0 does not
depend on u, so a sign whose C_0 is odd is skipped whole; otherwise each
unit is dropped at its first odd entry, and since A and B are symmetric
only the entries i <= D/2 are tested.  A pair that yields an even C passes
the test, so the survivors carry their full provenance, and each equals
the entry of the full listing with the same C.

The listing.  :func:`enumerate_matchings` builds every distinct C with its
provenance: phi(D) * D integers over the scanned half of the pairs, and
up to as many entries of memory.  It serves ``match``, ``obstruct --json``
and the tests.  A listing above :data:`LISTING_BUDGET` entries is refused
before the scan; the budget depends on D alone, so the commands that print
a listing check it (:func:`check_listing_budget`) before any analysis.
"""

from __future__ import annotations

import enum
from itertools import compress
from math import gcd
from operator import add, sub
from typing import TYPE_CHECKING, Optional, Sequence

from .corrections import CorrectionVector
from .errors import ValidationError
from .gamma import GammaVector
from .lattice import RationalVector, Value, rational_texts

if TYPE_CHECKING:
    from fractions import Fraction


class Outcome(enum.Enum):
    NON_CYCLIC_H1 = "NonCyclicH1"
    NO_EVEN_MATCHING = "NoEvenMatching"
    NO_EVEN_POSITIVE_MATCHING = "NoEvenPositiveMatching"
    NO_SYMMETRIC_MATCHING = "NoSymmetricMatching"
    STAIRCASE_FAIL = "StaircaseFail"
    SIGNATURE_OBSTRUCTION = "SignatureObstruction"
    NOT_OBSTRUCTED = "NotObstructed"
    UNKNOT_DETERMINANT = "UnknotDeterminant"

    @property
    def obstructed(self) -> bool:
        return self not in (Outcome.NOT_OBSTRUCTED, Outcome.UNKNOT_DETERMINANT)


class Matching(RationalVector):
    """A vector C = numerators / 4D with its (unit, sign) provenance and filter flags."""

    unit: int
    epsilon: int
    provenance: tuple[tuple[int, int], ...]
    even: bool = False
    positive: bool = False
    symmetric: bool = False
    staircase: bool = False

    @property
    def C(self) -> tuple[Fraction, ...]:
        """C as ``Fraction``s (``values``), for the tests and the benchmark."""
        return self.values


def quarter_point(D: int) -> int:
    """The k with D = 4k - 1 or D = 4k + 1."""
    if D % 4 == 3:
        return (D + 1) // 4
    if D % 4 == 1:
        return (D - 1) // 4
    raise ValidationError(f"determinant {D} is even")


def _flags(D: int, C: Sequence[int]) -> dict[str, bool]:
    """The four filter flags of the vector C / 4D, for integers C."""
    k = quarter_point(D)
    two = 8 * D  # 2 as a numerator over 4D
    sym_start = 1 if D % 4 == 3 else 0
    # C_i = C_(D-i), so the entries i <= D/2 decide every filter
    half = C[: D // 2 + 1]
    return {
        "even": all(c % two == 0 for c in half),
        "positive": min(half) >= 0,
        "symmetric": all(C[i] == C[2 * k - i] for i in range(sym_start, k)),
        "staircase": all(C[i] <= C[i + 1] <= C[i] + two for i in range(1, k)),
    }


def units(D: int) -> list[int]:
    return [u for u in range(1, D) if gcd(u, D) == 1]


# The most entries the full listing may cover, counted as (unit, sign)
# pairs times D, 2 phi(D) D: every pair contributes a C of D entries, and
# the listing's time and memory grow with that count.  On the two-bridge
# form [[-2, 1], [1, -1000]] (D = 1999, 8.0e6 entries) enumerate_matchings
# takes about 0.6 s and 170 MB on one core of a 2-vCPU machine (CPython
# 3.11), and even_matchings 1 ms; printing it takes about 6 s and 830 MB
# with ``match --json``, 2.5 s and 245 MB with text ``match`` (CPU time,
# peak RSS).  D = 3999 (2.0e7 entries) is refused up front.
# Verdicts never list (see the module docstring).
LISTING_BUDGET = 10_000_000


def check_listing_budget(D: int) -> None:
    """Refuse a listing of more than :data:`LISTING_BUDGET` entries for determinant D."""
    size = 2 * len(units(D)) * D
    if size > LISTING_BUDGET:
        raise ValidationError(
            f"matching listing for D = {D} has {size} entries, "
            f"above the budget of {LISTING_BUDGET}"
        )


def _integer_vectors(A: CorrectionVector, B: GammaVector) -> tuple[int, Sequence[int], list[int]]:
    """D, and the numerators of A and of -B over 4D."""
    if A.D != B.D:
        raise ValidationError(f"determinant mismatch: A has {A.D}, B has {B.D}")
    return A.D, A.numerators, [-b for b in B.numerators]


def _listed(D: int, found: dict[tuple[int, ...], list[tuple[int, int]]]) -> tuple[Matching, ...]:
    """The matchings of the integer vectors in ``found``, sorted by C.

    Each provenance list is ordered epsilon = +1 then -1, units ascending,
    and its first pair is the representative.  The numerators share the
    denominator 4D, so their order is the order of the rationals C.
    """
    out = []
    for C in sorted(found):
        provenance = sorted(found[C], key=lambda pair: (-pair[1], pair[0]))
        u, epsilon = provenance[0]
        out.append(Matching(
            D, C, unit=u, epsilon=epsilon, provenance=tuple(provenance), **_flags(D, C)
        ))
    return tuple(out)


def enumerate_matchings(A: CorrectionVector, B: GammaVector) -> tuple[Matching, ...]:
    """All matchings, deduplicated by their C vector.

    The scan covers only the units with 2u < D: A is symmetric, so D - u
    gives the same C as u, and both pairs go into the provenance.  Distinct
    (unit, sign) pairs frequently produce identical vectors; these are
    merged, with the full provenance list retained.  The result is sorted
    by C for run-to-run stability.  A listing of more than
    :data:`LISTING_BUDGET` entries is refused with ``ValidationError``
    before the scan.
    """
    D, a, neg_b = _integer_vectors(A, B)
    check_listing_budget(D)
    found: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for u in units(D):
        if 2 * u > D:
            break
        a_u = [a[j % D] for j in range(0, u * D, u)]
        for epsilon, op in ((1, sub), (-1, add)):
            C = tuple(map(op, neg_b, a_u))
            found.setdefault(C, []).extend(((u, epsilon), (D - u, epsilon)))
    return _listed(D, found)


def even_matchings(A: CorrectionVector, B: GammaVector) -> tuple[Matching, ...]:
    """The even matchings: the entries of the full listing with ``even`` set.

    Each (unit, sign) pair stops at its first odd entry (module docstring),
    so the work is about phi(D) pairs unless many pairs stay even long.
    """
    D, a, neg_b = _integer_vectors(A, B)
    two = 8 * D  # 2 as a numerator over 4D
    a_mod = [x % two for x in a]
    half = range(1, D // 2 + 1)
    half_units = [u for u in range(1, (D + 1) // 2) if gcd(u, D) == 1]
    found: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for epsilon, op in ((1, sub), (-1, add)):
        if op(neg_b[0], a[0]) % two:
            continue
        # C_i is even exactly when A_(u i) = -epsilon B_i (mod 2)
        target = [epsilon * neg_b[i] % two for i in half]
        # most pairs are already odd at i = 1: drop those in one pass
        for u in [u for u in half_units if a_mod[u] == target[0]]:
            if all(a_mod[u * i % D] == t for i, t in zip(half, target)):
                a_u = [a[j % D] for j in range(0, u * D, u)]
                C = tuple(map(op, neg_b, a_u))
                found.setdefault(C, []).extend(((u, epsilon), (D - u, epsilon)))
    return _listed(D, found)


class Verdict(Value):
    """The outcome of the filter pipeline, with the matchings that got furthest.

    ``witnesses`` holds, on NotObstructed, the matchings that passed every
    applied filter, and otherwise those that passed every filter before the
    failing one (none when the even filter fails).
    """

    outcome: Outcome
    witnesses: tuple[Matching, ...]
    gate_applied: bool
    strong: bool = False
    detail: str = ""


def obstruct(
    A: CorrectionVector,
    B: GammaVector,
    strong: bool = False,
    matchings: Optional[Sequence[Matching]] = None,
) -> Verdict:
    """Run the filter pipeline: even, positive, (gated) symmetric, (strong) staircase.

    ``matchings`` is a listing the caller already has; without one the
    pipeline starts from :func:`even_matchings`, which gives the same
    verdict.
    """
    pool = tuple(matchings) if matchings is not None else even_matchings(A, B)
    return _verdict_from_pool(pool, gate=A.gate, strong=strong)


def sign_refined_obstruct(A: CorrectionVector, B: GammaVector, sigma: int) -> Verdict:
    """The one-sign variant: can the knot be unknotted by making a negative
    crossing positive?

    The signature pins the sign: the comparison uses epsilon =
    -(-1)^(sigma/2) only.  A signature outside {0, 2} already rules this
    out.  To test the opposite crossing sign, run this on the mirrored
    record (negated correction vector, negated signature).
    """
    if sigma % 2 != 0:
        raise ValidationError(f"knot signature must be even, got {sigma}")
    if sigma not in (0, 2):
        detail = f"signature {sigma} is incompatible with this crossing change"
        return Verdict(Outcome.SIGNATURE_OBSTRUCTION, (), gate_applied=False, detail=detail)
    epsilon = -((-1) ** (sigma // 2))
    pool = tuple(
        m for m in even_matchings(A, B) if any(eps == epsilon for _, eps in m.provenance)
    )
    return _verdict_from_pool(pool, gate=A.gate, strong=False)


def _verdict_from_pool(pool: Sequence[Matching], gate: bool, strong: bool) -> Verdict:
    # the filters in order, each with the outcome its failure gives; the first
    # applied filter that leaves no matching decides, and its witnesses are
    # the matchings that passed the filters before it (see Verdict)
    filters = (
        ("even", Outcome.NO_EVEN_MATCHING),
        ("positive", Outcome.NO_EVEN_POSITIVE_MATCHING),
        ("symmetric", Outcome.NO_SYMMETRIC_MATCHING),
        ("staircase", Outcome.STAIRCASE_FAIL),
    )
    witnesses: tuple[Matching, ...] = ()
    survivors = pool
    for flag, outcome in compress(filters, (True, True, gate, strong)):
        survivors = tuple(m for m in survivors if getattr(m, flag))
        if not survivors:
            return Verdict(outcome, witnesses, gate_applied=gate, strong=strong)
        witnesses = survivors
    return Verdict(Outcome.NOT_OBSTRUCTED, witnesses, gate_applied=gate, strong=strong)


def format_compact(matching: Matching) -> str:
    """Render the first n = (D+1)/2 entries, zeros trimmed, C_k bracketed.

    This is the usual shorthand: a matching satisfies C_i = C_{D-i}, so the
    first half determines it; leading and trailing zero runs are dropped and
    the entry at the quarter-point k is marked.
    """
    D = matching.D
    n = (D + 1) // 2
    k = quarter_point(D)
    head = matching.numerators[:n]
    nonzero = [i for i, value in enumerate(head) if value != 0]
    if not nonzero:
        return "(all zero)"
    lo = min(nonzero[0], k)
    hi = max(nonzero[-1], k)
    texts = rational_texts(head[lo : hi + 1], 4 * D)
    texts[k - lo] = f"[{texts[k - lo]}]"
    return ", ".join(texts)
