"""Torsion coefficients and Alexander polynomials of companion knots.

A symmetric even positive matching with C_0 = 0 records, in disguise, twice
the torsion coefficients of the knot whose half-integer surgery produces
the double branched cover.  Position i of the matching restricts to an
integer-surgery class, and the class to a torsion index; the positions of
one index carry one value, twice its torsion coefficient.  Inverting the
torsion relation

    t_i = sum_{j >= 1} j * a_{i + j}

by second differences recovers the one-sided coefficients a_i of the
symmetrized Alexander polynomial, with a_0 fixed by the normalisation
Delta(1) = 1.

Index transport.  For D = 2n - 1 with quarter point k, position i
restricts to the torsion index |min(i, D - i) - k|, which runs over 0..k.

Proof.  Position i restricts to the class r = x mod 2n, x the first
coordinate of kappa_i (:attr:`unknotone.gamma.GammaVector.v_index`), and
the class to the index j = ((r + n) // 2) mod n folded to min(j, n - j).
kappa_i is characteristic, so x + n is even and j = (x + n) / 2 mod n: the
index is the circular distance mod n of (x + n) / 2 from 0.  Read x off
:func:`unknotone.gamma._kappa_runs` run by run.

- n = 2k even (D = 4k - 1): the index is the distance of x / 2 from k
  mod 2k.  The four runs give x / 2 = i for i in 0..k, i - 2k for i in
  k+1..2k-1, i - 2k + 1 for i in 2k..3k-2 and i - D for i in 3k-1..D-1, at
  distances k - i, i - k, (D - i) - k and k - (D - i).
- n = 2k + 1 odd (D = 4k + 1): the index is the distance of (x + 1) / 2
  from k + 1 mod 2k + 1.  The three runs give (x + 1) / 2 = i + 1 for i in
  0..k, i - 2k for i in k+1..3k+1 and i - D for i in 3k+2..D-1, at
  distances k - i, then i - k up to i = 2k and (D - i) - k after it, and
  k - (D - i).

Each distance is |min(i, D - i) - k|.  So index j is met exactly at the
positions with min(i, D - i) = k - j or k + j.  Every vector over Z/D has
C_i = C_(D-i) (:class:`unknotone.lattice.RationalVector`), and the
symmetric filter gives C_(k-j) = C_(k+j) wherever k + j <= D / 2, so every
position of index j carries C_(k-j), and t_j = C_(k-j) / 2.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ValidationError
from .gamma import GammaVector
from .lattice import Value
from .matching import Matching, quarter_point

TorsionSequence = tuple[int, ...]


class AlexanderPolynomial(Value):
    """A symmetric knot polynomial a_0 + sum_{i>0} a_i (T^i + T^-i); Delta(1) = 1 fixes a_0."""

    higher: tuple[int, ...]  # a_1, a_2, ..., trailing zeros trimmed

    def _validate(self) -> None:
        if self.higher and self.higher[-1] == 0:
            raise ValidationError("higher coefficients must not end in zero")

    @property
    def a0(self) -> int:
        return 1 - 2 * sum(self.higher)

    def terms(self) -> str:
        """Signed term list, highest degree last; a_0 = 1 - 2 sum a_i is odd, so it leads."""
        parts = [str(self.a0)]
        for i, a in enumerate(self.higher, start=1):
            if a:
                coeff = "" if abs(a) == 1 else f"{abs(a)}*"
                parts.append(f"{'+' if a > 0 else '-'} {coeff}(T^{i} + T^-{i})")
        return " ".join(parts)


def torsion_from_matching(matching: Matching, B: GammaVector) -> TorsionSequence:
    """The torsion sequence t_j = C_(k-j) / 2, j = 0..k, of a symmetric matching.

    Requires the matching to be even, positive and symmetric with C_0 = 0
    (the comparison hypothesis for the class that pins the surgery); the
    module docstring proves that every position of index j carries
    C_(k-j).  Trailing zeros are trimmed and one 0 ends the sequence.
    """
    if matching.D != B.D:
        raise ValidationError("matching and comparison vector have different determinants")
    if not (matching.even and matching.positive and matching.symmetric):
        raise ValidationError("torsion extraction needs an even, positive, symmetric matching")
    if matching.numerators[0] != 0:
        raise ValidationError("torsion extraction needs C_0 = 0")
    k = quarter_point(B.D)
    two = 8 * B.D  # 2 as a numerator over 4D
    torsion = [matching.numerators[k - j] // two for j in range(k + 1)]
    while torsion and torsion[-1] == 0:
        torsion.pop()
    torsion.append(0)
    return tuple(torsion)


def polynomial_from_torsion(torsion: Sequence[int]) -> AlexanderPolynomial:
    """Invert the torsion relation by second differences.

    a_i = t_{i-1} - 2 t_i + t_{i+1} for i >= 1 (with t zero past the end),
    and a_0 follows from Delta(1) = 1.  Any eventually-zero sequence inverts.
    """
    t = list(torsion)
    while t and t[-1] == 0:
        t.pop()

    def at(i: int) -> int:
        return t[i] if 0 <= i < len(t) else 0

    higher = [at(i - 1) - 2 * at(i) + at(i + 1) for i in range(1, len(t) + 2)]
    while higher and higher[-1] == 0:
        higher.pop()
    return AlexanderPolynomial(tuple(higher))


def lspace_coefficient_check(poly: AlexanderPolynomial) -> bool:
    """Whether all nonzero coefficients are +-1 with strictly alternating signs.

    Read from the top degree down to a_0; this is the shape forced on a knot
    admitting an integral surgery with simplest-possible Floer homology.
    """
    signs = [a for a in (*reversed(poly.higher), poly.a0) if a]
    return all(a in (1, -1) for a in signs) and all(a != b for a, b in zip(signs, signs[1:]))
