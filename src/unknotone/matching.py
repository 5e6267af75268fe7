"""Matching enumeration and the obstruction verdicts.

A matching compares the correction vector A of a knot form against the
model vector B of the same determinant: for a unit u of Z/D and a sign
epsilon, C_i = -B_i - epsilon * A_{u i}.  A knot that can be unknotted with
one crossing change must admit a matching consisting of non-negative even
integers; when |A_0| <= 1/2 the matching must additionally be symmetric
about the quarter-point k (D = 4k +- 1), and the strong form further forces
the half-vector to climb to the middle in steps of at most two.

The search runs on integers.  A and B are put over L, the lcm of all their
denominators (it divides 4D for forms from the pipeline), so every C is a
tuple of integer numerators over L, and the four filters are one integer
predicate on those numerators.  A is conjugation-symmetric, so the units u
and D - u give the same C: only 2u < D is scanned, and each C records both
pairs.  ``Fraction``s are built once per distinct numerator, where
``Matching.C`` is filled in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Optional, Sequence

from .corrections import CorrectionVector
from .errors import ValidationError
from .gamma import GammaVector


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


@dataclass(frozen=True)
class Matching:
    """One candidate vector C with its (unit, sign) provenance and filter flags."""

    D: int
    C: tuple[Fraction, ...]
    unit: int
    epsilon: int
    provenance: tuple[tuple[int, int], ...]
    even: bool = False
    positive: bool = False
    symmetric: bool = False
    staircase: bool = False


def quarter_point(D: int) -> int:
    """The k with D = 4k - 1 or D = 4k + 1."""
    if D % 4 == 3:
        return (D + 1) // 4
    if D % 4 == 1:
        return (D - 1) // 4
    raise ValidationError(f"determinant {D} is even")


def _numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The numerators of ``values`` over L = lcm of their denominators, and L."""
    L = lcm(*(value.denominator for value in values))
    return [value.numerator * (L // value.denominator) for value in values], L


def _flags(D: int, C: Sequence[int], L: int) -> dict[str, bool]:
    """The four filter flags of the vector C / L, for integers C and L > 0."""
    k = quarter_point(D)
    two_L = 2 * L
    sym_start = 1 if D % 4 == 3 else 0
    return {
        "even": all(c % two_L == 0 for c in C),
        "positive": min(C, default=0) >= 0,
        "symmetric": all(C[i] == C[2 * k - i] for i in range(sym_start, k)),
        "staircase": all(C[i] <= C[i + 1] <= C[i] + two_L for i in range(1, k)),
    }


def classify(matching: Matching) -> Matching:
    """Return the matching with its four filter flags recomputed."""
    C, L = _numerators(matching.C)
    return replace(matching, **_flags(matching.D, C, L))


def units(D: int) -> list[int]:
    return [u for u in range(1, D) if gcd(u, D) == 1]


def enumerate_matchings(A: CorrectionVector, B: GammaVector) -> tuple[Matching, ...]:
    """All matchings, deduplicated by their C vector.

    The scan runs on integer numerators over L, the lcm of the denominators
    of A and B, and covers only the units with 2u < D: A is symmetric, so
    D - u gives the same C as u, and both pairs go into the provenance.
    Distinct (unit, sign) pairs frequently produce identical vectors; these
    are merged, with the full provenance list retained (epsilon = +1 then
    -1, units ascending) and its first pair as representative.  The result
    is sorted by C for run-to-run stability; sorting the numerators gives
    the same order, as L > 0.  Each distinct numerator becomes a
    ``Fraction`` once, when ``Matching.C`` is filled in.
    """
    if A.D != B.D:
        raise ValidationError(f"determinant mismatch: A has {A.D}, B has {B.D}")
    D = A.D
    nums, L = _numerators(A.values + B.values)
    a, neg_b = nums[:D], [-b for b in nums[D:]]
    found: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for u in units(D):
        if 2 * u > D:
            break
        a_u = [a[j % D] for j in range(0, u * D, u)]
        for epsilon, op in ((1, sub), (-1, add)):
            C = tuple(map(op, neg_b, a_u))
            found.setdefault(C, []).extend(((u, epsilon), (D - u, epsilon)))
    fraction = {c: Fraction(c, L) for c in set().union(*found)}
    out = []
    for C in sorted(found):
        provenance = sorted(found[C], key=lambda pair: (-pair[1], pair[0]))
        u, epsilon = provenance[0]
        out.append(
            Matching(
                D=D,
                C=tuple(map(fraction.__getitem__, C)),
                unit=u,
                epsilon=epsilon,
                provenance=tuple(provenance),
                **_flags(D, C, L),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class Verdict:
    """The outcome of the filter pipeline, with the matchings that got furthest.

    ``witnesses`` holds the matchings that passed every applied filter when
    the outcome is NotObstructed, and otherwise the matchings that survived
    up to (but not through) the failing filter.
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
    """Run the filter pipeline: even, positive, (gated) symmetric, (strong) staircase."""
    pool = tuple(matchings) if matchings is not None else enumerate_matchings(A, B)
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
        return Verdict(
            outcome=Outcome.SIGNATURE_OBSTRUCTION,
            witnesses=(),
            gate_applied=False,
            detail=f"signature {sigma} is incompatible with this crossing change",
        )
    epsilon = -((-1) ** (sigma // 2))
    pool = tuple(
        m
        for m in enumerate_matchings(A, B)
        if any(eps == epsilon for _, eps in m.provenance)
    )
    return _verdict_from_pool(pool, gate=A.gate, strong=False)


def _verdict_from_pool(pool: Sequence[Matching], gate: bool, strong: bool) -> Verdict:
    even = tuple(m for m in pool if m.even)
    if not even:
        return Verdict(Outcome.NO_EVEN_MATCHING, (), gate_applied=gate, strong=strong)
    even_positive = tuple(m for m in even if m.positive)
    if not even_positive:
        return Verdict(
            Outcome.NO_EVEN_POSITIVE_MATCHING, even, gate_applied=gate, strong=strong
        )
    survivors = even_positive
    if gate:
        symmetric = tuple(m for m in survivors if m.symmetric)
        if not symmetric:
            return Verdict(
                Outcome.NO_SYMMETRIC_MATCHING, survivors, gate_applied=True, strong=strong
            )
        survivors = symmetric
    if strong:
        stair = tuple(m for m in survivors if m.staircase)
        if not stair:
            return Verdict(Outcome.STAIRCASE_FAIL, survivors, gate_applied=gate, strong=True)
        survivors = stair
    return Verdict(Outcome.NOT_OBSTRUCTED, survivors, gate_applied=gate, strong=strong)


def format_compact(matching: Matching) -> str:
    """Render the first n = (D+1)/2 entries, zeros trimmed, C_k bracketed.

    This is the usual shorthand: a matching satisfies C_i = C_{D-i}, so the
    first half determines it; leading and trailing zero runs are dropped and
    the entry at the quarter-point k is marked.
    """
    D = matching.D
    n = (D + 1) // 2
    k = quarter_point(D)
    head = list(matching.C[:n])
    nonzero = [i for i, value in enumerate(head) if value != 0]
    if not nonzero:
        return "(all zero)"
    lo = min(nonzero[0], k)
    hi = max(nonzero[-1], k)
    rendered = []
    for i in range(lo, hi + 1):
        text = str(head[i])
        rendered.append(f"[{text}]" if i == k else text)
    return ", ".join(rendered)
