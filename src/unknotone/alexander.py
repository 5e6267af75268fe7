"""Torsion coefficients and Alexander polynomials of companion knots.

A symmetric even positive matching with C_0 = 0 records, in disguise, twice
the torsion coefficients of the knot whose half-integer surgery produces
the double branched cover.  Positions i of the matching restrict to
integer-surgery classes through the residues
:attr:`unknotone.gamma.GammaVector.v_index`; each class is hit twice (except
one), both hits must carry the same value, and the common value is twice a
torsion coefficient.  Inverting the torsion relation

    t_i = sum_{j >= 1} j * a_{i + j}

by second differences recovers the one-sided coefficients a_i of the
symmetrized Alexander polynomial, with a_0 fixed by the normalisation
Delta(1) = 1.

Index transport: a residue r (mod 2n) corresponds to torsion index
|(r + n) / 2 mod n| folded into 0..n/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import TorsionExtractionError, ValidationError
from .gamma import GammaVector
from .matching import Matching

TorsionSequence = tuple[int, ...]


@dataclass(frozen=True)
class AlexanderPolynomial:
    """A symmetric knot polynomial a_0 + sum_{i>0} a_i (T^i + T^-i)."""

    a0: int
    higher: tuple[int, ...]  # a_1, a_2, ..., trailing zeros trimmed

    def __post_init__(self) -> None:
        if self.higher and self.higher[-1] == 0:
            raise ValidationError("higher coefficients must not end in zero")
        if self.evaluate_at_one() != 1:
            raise ValidationError("polynomial is not normalised to Delta(1) = 1")

    @property
    def degree(self) -> int:
        return len(self.higher)

    def coefficient(self, i: int) -> int:
        i = abs(i)
        if i == 0:
            return self.a0
        if i <= len(self.higher):
            return self.higher[i - 1]
        return 0

    def evaluate_at_one(self) -> int:
        return self.a0 + 2 * sum(self.higher)

    def terms(self) -> str:
        """Signed term list, highest degree last."""
        parts = []
        if self.a0 != 0:
            parts.append(str(self.a0))
        for i, a in enumerate(self.higher, start=1):
            if a == 0:
                continue
            sign = "+" if a > 0 else "-"
            mag = abs(a)
            coeff = "" if mag == 1 else f"{mag}*"
            parts.append(f"{sign} {coeff}(T^{i} + T^-{i})")
        if not parts:
            return "0"
        text = " ".join(parts)
        return text


def residue_to_torsion_index(residue: int, n: int) -> int:
    """Fold a surgery-class residue (mod 2n) to its torsion index in 0..n//2."""
    j = ((residue + n) // 2) % n
    return min(j, n - j)


def torsion_from_matching(matching: Matching, B: GammaVector) -> TorsionSequence:
    """Extract the torsion sequence carried by a symmetric matching.

    Requires the matching to be even, positive and symmetric with C_0 = 0
    (the comparison hypothesis for the class that pins the surgery).  Raises
    :class:`TorsionExtractionError` when the two positions restricting to
    the same integer-surgery class disagree, which certifies the matching
    cannot come from an actual surgery.
    """
    if matching.D != B.D:
        raise ValidationError("matching and comparison vector have different determinants")
    if not (matching.even and matching.positive and matching.symmetric):
        raise ValidationError("torsion extraction needs an even, positive, symmetric matching")
    if matching.numerators[0] != 0:
        raise ValidationError("torsion extraction needs C_0 = 0")
    n = B.n
    two = 8 * B.D  # 2 as a numerator over 4D
    per_class: dict[int, tuple[int, int]] = {}
    for i, residue in enumerate(B.v_index):
        value = matching.numerators[i]
        if residue in per_class:
            j, prev = per_class[residue]
            if prev != value:
                texts = matching.texts()
                raise TorsionExtractionError(
                    f"positions {j} and {i} restrict to the same class "
                    f"but carry {texts[j]} and {texts[i]}"
                )
        else:
            per_class[residue] = (i, value)
    assigned: dict[int, int] = {}
    for residue, (i, value) in per_class.items():
        index = residue_to_torsion_index(residue, n)
        half, remainder = divmod(value, two)
        if remainder:
            raise ValidationError(
                f"torsion extraction needs an even matching, C_{i} = {matching.texts()[i]}"
            )
        if index in assigned and assigned[index] != half:
            raise TorsionExtractionError(
                f"torsion index {index} assigned both {assigned[index]} and {half}"
            )
        assigned[index] = half
    torsion = [assigned.get(i, 0) for i in range(n // 2 + 1)]
    while torsion and torsion[-1] == 0:
        torsion.pop()
    torsion.append(0)
    return tuple(torsion)


def polynomial_from_torsion(torsion: Sequence[int]) -> AlexanderPolynomial:
    """Invert the torsion relation by second differences.

    a_i = t_{i-1} - 2 t_i + t_{i+1} for i >= 1 (with t zero past the end),
    and a_0 makes Delta(1) = 1.  Any eventually-zero sequence inverts.
    """
    t = list(torsion)
    while t and t[-1] == 0:
        t.pop()

    def at(i: int) -> int:
        return t[i] if 0 <= i < len(t) else 0

    higher = [at(i - 1) - 2 * at(i) + at(i + 1) for i in range(1, len(t) + 2)]
    while higher and higher[-1] == 0:
        higher.pop()
    a0 = 1 - 2 * sum(higher)
    return AlexanderPolynomial(a0=a0, higher=tuple(higher))


def torsion_from_polynomial(poly: AlexanderPolynomial, length: int | None = None) -> TorsionSequence:
    """The forward sum t_i = sum_{j>=1} j * a_{i+j}; the round-trip oracle."""
    size = poly.degree if length is None else length
    out = []
    for i in range(size + 1):
        out.append(sum(j * poly.coefficient(i + j) for j in range(1, poly.degree - i + 1)))
    while out and out[-1] == 0:
        out.pop()
    out.append(0)
    return tuple(out)


def lspace_coefficient_check(poly: AlexanderPolynomial) -> bool:
    """Whether all nonzero coefficients are +-1 with strictly alternating signs.

    Read from the top degree down to a_0; this is the shape forced on a knot
    admitting an integral surgery with simplest-possible Floer homology.
    """
    signs = []
    for i in range(poly.degree, -1, -1):
        a = poly.coefficient(i)
        if a == 0:
            continue
        if a not in (1, -1):
            return False
        signs.append(a)
    return all(signs[i] != signs[i + 1] for i in range(len(signs) - 1))
