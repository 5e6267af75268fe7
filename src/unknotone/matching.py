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
four filters are integer predicates on them, properties of the matching.
Every vector over Z/D has A_i = A_(D-i), which its type
(:class:`unknotone.lattice.RationalVector`) checks, so the units u and
D - u give the same C: only the units below D/2 (:func:`half_units`) are
scanned, and each C records both pairs.  ``Matching`` is a
:class:`unknotone.lattice.RationalVector` like A and B: it keeps C as
numerators and renders them with ``texts()``; ``Matching.C`` is the
``Fraction`` view ``values`` of the base type, which no output reads.

The verdict scan.  :func:`even_matchings` narrows to the even matchings:
C_0 = -B_0 - epsilon A_0 does not depend on u, so a sign with C_0 odd is
skipped whole, and a unit is kept when C_1 and C_2 are even too.  Only
kept pairs build a C, and ``Matching.even`` decides, so the result is
exact on any symmetric vector.  On a form's A no odd C is built.  Mod 8D,
A's numerator over 4D is x^t N x + m D (N = D G^-1, m the rank) at any
characteristic x of its class: x + 2 G v adds 4D (v . x + v^t G v), and
v . x = v^t G v (mod 2).  With x_0 = diag(G), x = x_0 + 2t g has index
w . x_0 + 2t and x^t N x = x_0^t N x_0 + 4t g^t N x_0 + 4t^2 g^t N g, so
A mod 2 is a quadratic in the index, and so are B and C_i in i.  Such an
f is f(0) + (f(1) - f(0)) i + (f(2) - 2 f(1) + f(0)) i (i - 1) / 2, even
everywhere once even at 0, 1 and 2.  By the i^2 terms, the even pairs of
a sign are square roots of one residue mod D: at most 2^(omega(D) + 1)
pairs, omega(D) the number of primes dividing D.

The listing.  :func:`enumerate_matchings` builds every distinct C with its
provenance: 2 D integers per unit below D/2, one C per sign, and up to as
many entries of memory.  It serves ``match``, ``obstruct --json`` and the
tests.  A listing above :data:`LISTING_BUDGET` entries is refused
before the scan; the budget depends on D alone, so the commands that print
a listing check it (:func:`check_listing_budget`) before any analysis.
"""

from __future__ import annotations

import enum
from functools import cached_property
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


# the filter flags of a matching, in the order the verdict applies them
FLAGS = ("even", "positive", "symmetric", "staircase")


class Matching(RationalVector):
    """A vector C = numerators / 4D with its (unit, sign) provenance, led by the representative.

    The filter flags (``FLAGS``) read C alone; C_i = C_(D-i) by type, so the entries i <= D/2
    decide them.
    """

    provenance: tuple[tuple[int, int], ...]

    @property
    def unit(self) -> int:
        return self.provenance[0][0]

    @property
    def epsilon(self) -> int:
        return self.provenance[0][1]

    @property
    def C(self) -> tuple[Fraction, ...]:
        """C as ``Fraction``s (``values``), for the tests and the benchmark."""
        return self.values

    @cached_property
    def even(self) -> bool:
        two = 8 * self.D  # 2 as a numerator over 4D
        return all(c % two == 0 for c in self.numerators[: self.D // 2 + 1])

    @cached_property
    def positive(self) -> bool:
        return min(self.numerators[: self.D // 2 + 1]) >= 0

    @cached_property
    def symmetric(self) -> bool:
        C, D = self.numerators, self.D
        k = quarter_point(D)
        sym_start = 1 if D % 4 == 3 else 0
        return all(C[i] == C[2 * k - i] for i in range(sym_start, k))

    @cached_property
    def staircase(self) -> bool:
        C, two = self.numerators, 8 * self.D
        return all(C[i] <= C[i + 1] <= C[i] + two for i in range(1, quarter_point(self.D)))


def quarter_point(D: int) -> int:
    """The k with D = 4k - 1 or D = 4k + 1."""
    if D % 4 == 3:
        return (D + 1) // 4
    if D % 4 == 1:
        return (D - 1) // 4
    raise ValidationError(f"determinant {D} is even")


def half_units(D: int) -> list[int]:
    """The units u of Z/D with 2u < D, ascending; for odd D >= 3 they are phi(D) / 2."""
    return [u for u in range(1, (D + 1) // 2) if gcd(u, D) == 1]


def _totient(D: int) -> int:
    """Euler's phi(D) by trial division, at most sqrt(D) steps."""
    phi, rest, p = D, D, 2
    while p * p <= rest:
        if rest % p == 0:
            phi -= phi // p
            while rest % p == 0:
                rest //= p
        p += 1
    return phi - phi // rest if rest > 1 else phi


# The most entries the full listing may cover: (unit, sign) pairs times D,
# that is 4 D times the units below D/2 (each pair's C has D entries); its
# time and memory grow with that count.  On the two-bridge form
# [[-2, 1], [1, -1000]] (D = 1999, 8.0e6 entries) enumerate_matchings takes
# about 0.6 s and 170 MB on one core of a 2-vCPU machine (CPython 3.11), and
# even_matchings 0.4 ms; printing it takes about 6 s and 830 MB with
# ``match --json``, 2.5 s and 245 MB with text ``match`` (CPU time, peak
# RSS).  D = 3999 (2.0e7 entries) is refused up front.  Verdicts never list.
LISTING_BUDGET = 10_000_000


def check_listing_budget(D: int) -> None:
    """Refuse a listing of more than :data:`LISTING_BUDGET` entries for determinant D.

    The units below D/2 are phi(D) // 2 (u and D - u pair off), so they are
    counted, not listed.
    """
    size = 4 * D * (_totient(D) // 2)
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


def _listed(found: dict[tuple[int, ...], list[tuple[int, int]]]) -> tuple[Matching, ...]:
    """The matchings of the integer vectors in ``found``, sorted by C.

    Each provenance list is ordered epsilon = +1 then -1, units ascending,
    and its first pair is the representative.  The numerators share the
    denominator 4D, so their order is the order of the rationals C.
    """
    return tuple(
        Matching(C, tuple(sorted(found[C], key=lambda pair: (-pair[1], pair[0]))))
        for C in sorted(found)
    )


def enumerate_matchings(A: CorrectionVector, B: GammaVector) -> tuple[Matching, ...]:
    """All matchings, deduplicated by their C vector.

    The scan covers only the units below D/2: A is symmetric by type, so
    D - u gives the same C as u, and both pairs go into the provenance.
    Distinct (unit, sign) pairs frequently produce identical vectors; these
    are merged, with the full provenance list retained.  The result is sorted
    by C for run-to-run stability.  A listing of more than
    :data:`LISTING_BUDGET` entries is refused with ``ValidationError``
    before the scan.
    """
    D, a, neg_b = _integer_vectors(A, B)
    check_listing_budget(D)
    found: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for u in half_units(D):
        a_u = [a[j % D] for j in range(0, u * D, u)]
        for epsilon, op in ((1, sub), (-1, add)):
            C = tuple(map(op, neg_b, a_u))
            found.setdefault(C, []).extend(((u, epsilon), (D - u, epsilon)))
    return _listed(found)


def even_matchings(A: CorrectionVector, B: GammaVector) -> tuple[Matching, ...]:
    """The entries of the full listing whose ``even`` holds, narrowed by C_0, C_1 and C_2."""
    D, a, neg_b = _integer_vectors(A, B)
    two = 8 * D  # 2 as a numerator over 4D
    scanned = half_units(D)
    found: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for epsilon, op in ((1, sub), (-1, add)):
        if op(neg_b[0], a[0]) % two:
            continue
        # C_i is even exactly when A_(u i) = -epsilon B_i (mod 2)
        first, second = epsilon * neg_b[1] % two, epsilon * neg_b[2] % two
        for u in scanned:
            if a[u] % two == first and a[2 * u % D] % two == second:
                a_u = [a[j % D] for j in range(0, u * D, u)]
                C = tuple(map(op, neg_b, a_u))
                found.setdefault(C, []).extend(((u, epsilon), (D - u, epsilon)))
    return tuple(m for m in _listed(found) if m.even)


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
    failures = (
        Outcome.NO_EVEN_MATCHING,
        Outcome.NO_EVEN_POSITIVE_MATCHING,
        Outcome.NO_SYMMETRIC_MATCHING,
        Outcome.STAIRCASE_FAIL,
    )
    witnesses: tuple[Matching, ...] = ()
    survivors = pool
    for flag, outcome in compress(zip(FLAGS, failures), (True, True, gate, strong)):
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
