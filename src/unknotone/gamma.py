"""The model surgery form and its correction vector.

For odd D = 2n - 1 the model is the rank-two form

    R_D = [ -n  1 ]
          [  1 -2 ],

the intersection form of the trace of the half-integer surgery on the
unknot.  Its correction terms, indexed by Z/D through evaluation of
covectors on the first basis vector, form the comparison vector B used by
the matching search.  The indexing below reproduces the classical ordered
lists of 2n - 1 characteristic covectors, one list for each parity of n.
The model form has determinant D, so the vector keeps the integer
numerators of B over 4D; ``values`` builds ``Fraction``s for output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .corrections import fractions_over
from .errors import ValidationError
from .lattice import QuadraticForm

Kappa = tuple[int, int]


def model_form(D: int) -> QuadraticForm:
    """The form R_D above, for odd D >= 3."""
    _check_d(D)
    n = (D + 1) // 2
    return QuadraticForm.from_rows([[-n, 1], [1, -2]])


def _check_d(D: int) -> None:
    if D < 3 or D % 2 == 0:
        raise ValidationError(f"model form needs an odd determinant >= 3, got {D}")


def kappa_list(n: int) -> list[Kappa]:
    """The ordered characteristic covectors kappa_0, ..., kappa_{2n-2} of R_{2n-1}.

    For even n = 2k the construction indexes them by -k <= i <= 3k - 2; the
    negative indices wrap mod 2n - 1 to the end of the list, so that
    kappa_0 = (0, 0) sits at position 0.  For odd n = 2k + 1 the indices
    already run 0 <= i <= 4k and kappa_0 = (1, -2).
    """
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    if n % 2 == 0:
        k = n // 2
        kappas = (
            [(2 * i, 0) for i in range(k + 1)]
            + [(2 * i - 4 * k, 2) for i in range(k + 1, 2 * k)]
            + [(2 * i - 4 * k + 2, -2) for i in range(2 * k, 3 * k - 1)]
            + [(2 * i, 0) for i in range(-k, 0)]
        )
    else:
        k = (n - 1) // 2
        kappas = (
            [(1 + 2 * i, -2) for i in range(k + 1)]
            + [(2 * i - 4 * k - 1, 0) for i in range(k + 1, 3 * k + 2)]
            + [(2 * i - 8 * k - 3, 2) for i in range(3 * k + 2, 4 * k + 1)]
        )
    # a raised check, not an assert, so that it also holds under python -O:
    # every kappa must be characteristic for R_{2n-1}
    if not all((a - n) % 2 == 0 and b % 2 == 0 for a, b in kappas):
        raise AssertionError(f"a kappa of R_{2 * n - 1} is not characteristic")
    return kappas


@dataclass(frozen=True)
class GammaVector:
    """The comparison vector B_i = numerators[i] / 4D, with its covector data."""

    D: int
    n: int
    kappas: tuple[Kappa, ...]
    numerators: tuple[int, ...]
    v_index: tuple[int, ...]
    singly_attained_index: int

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """B_0..B_{D-1} as ``Fraction``s, for output."""
        return fractions_over(self.numerators, 4 * self.D)


def gamma_vector(D: int) -> GammaVector:
    """Correction terms of the model half-integer surgery, indexed by Z/D.

    The value at kappa is (kappa^t N kappa + 2D) / 4D, with N the integer
    numerator of the model form's inverse; the vector keeps the numerators
    over 4D, and the symmetry B_i = B_(D-i) is checked on them.
    """
    _check_d(D)
    n = (D + 1) // 2
    form = model_form(D)
    (n00, n01), (_, n11) = form.inverse_numerator
    kappas = tuple(kappa_list(n))
    nums = tuple([x * (n00 * x + 2 * n01 * y) + n11 * y * y + 2 * D for x, y in kappas])
    if nums[1:] != nums[:0:-1]:
        raise AssertionError(f"model vector for D = {D} is not symmetric")
    # the first coordinate of kappa_i mod 2n: the integer-surgery class that
    # position i restricts to
    v_index = tuple([x % (2 * n) for x, _ in kappas])
    counts = Counter(v_index)
    singles = [i for i, residue in enumerate(v_index) if counts[residue] == 1]
    if len(singles) != 1:
        raise AssertionError(f"expected one singly attained class, found {singles}")
    expected_single = 0 if n % 2 == 0 else n - 1
    if singles[0] != expected_single:
        raise AssertionError(
            f"singly attained class at index {singles[0]}, expected {expected_single}"
        )
    return GammaVector(
        D=D,
        n=n,
        kappas=kappas,
        numerators=nums,
        v_index=v_index,
        singly_attained_index=singles[0],
    )
