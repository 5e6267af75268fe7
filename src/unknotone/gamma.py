"""The model surgery form and its correction vector.

For odd D = 2n - 1 the model is the rank-two form

    R_D = [ -n  1 ]
          [  1 -2 ],

the intersection form of the trace of the half-integer surgery on the
unknot.  Its correction terms, indexed by Z/D through evaluation of
covectors on the first basis vector, form the comparison vector B used by
the matching search.  The indexing below reproduces the classical ordered
lists of 2n - 1 characteristic covectors kappa = (x, y), one list for each
parity of n.  Each list is a few runs of x in steps of 2 at a fixed y,
stored once as the table :func:`_kappa_runs`.

The model form has determinant D, so :class:`GammaVector` is a
:class:`unknotone.lattice.RationalVector` of the integer numerators of B
over 4D, computed run by run from the closed formula
2D - n y^2 - 2 x (x + y) without building the kappas.  The kappas and the
integer-surgery class of each position are derived from the same table
only when read.  Output renders the numerators with ``texts()``, and
``values`` is the ``Fraction`` view of the base type.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .errors import ValidationError
from .lattice import BOX_BUDGET, QuadraticForm, RationalVector

Kappa = tuple[int, int]


def model_form(D: int) -> QuadraticForm:
    """The form R_D above, for odd D >= 3."""
    _check_d(D)
    n = (D + 1) // 2
    return QuadraticForm.from_rows([[-n, 1], [1, -2]])


def _check_d(D: int) -> None:
    if D < 3 or D % 2 == 0:
        raise ValidationError(f"model form needs an odd determinant >= 3, got {D}")


def _kappa_runs(n: int) -> list[tuple[range, int]]:
    """The kappa sequence of R_{2n-1} as runs (xs, y): kappa = (x, y) for x in xs.

    For even n = 2k the construction indexes the kappas by -k <= i <= 3k - 2;
    the negative indices wrap mod 2n - 1 to the last run, so that
    kappa_0 = (0, 0) comes first.  For odd n = 2k + 1 the indices already
    run 0 <= i <= 4k and kappa_0 = (1, -2).
    """
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    k = n // 2
    if n % 2 == 0:
        runs = [
            (range(0, 2 * k + 1, 2), 0),
            (range(2 - 2 * k, 0, 2), 2),
            (range(2, 2 * k, 2), -2),
            (range(-2 * k, 0, 2), 0),
        ]
    else:
        runs = [
            (range(1, 2 * k + 2, 2), -2),
            (range(1 - 2 * k, 2 * k + 3, 2), 0),
            (range(1 - 2 * k, -1, 2), 2),
        ]
    # a raised check, not an assert, so that it also holds under python -O:
    # every kappa must be characteristic for R_{2n-1}; a run steps x by 2
    if not all((xs.start - n) % 2 == 0 and y % 2 == 0 for xs, y in runs):
        raise AssertionError(f"a kappa of R_{2 * n - 1} is not characteristic")
    return runs


def kappa_list(n: int) -> list[Kappa]:
    """The ordered characteristic covectors kappa_0, ..., kappa_{2n-2} of R_{2n-1}."""
    return [(x, y) for xs, y in _kappa_runs(n) for x in xs]


class GammaVector(RationalVector):
    """The comparison vector B_i = numerators[i] / 4D, for D = 2n - 1.

    The covector data is derived only when read, and only output reads it:
    ``kappas`` and ``v_index`` are what ``gamma --json`` prints.
    """

    @property
    def n(self) -> int:
        return (self.D + 1) // 2

    @cached_property
    def kappas(self) -> tuple[Kappa, ...]:
        """kappa_0..kappa_{D-1}, the covector behind each position."""
        return tuple(kappa_list(self.n))

    @cached_property
    def singly_attained_index(self) -> int:
        """The one position whose integer-surgery class no other position shares."""
        return 0 if self.n % 2 == 0 else self.n - 1

    @cached_property
    def v_index(self) -> tuple[int, ...]:
        """The first coordinate of each kappa mod 2n: the integer-surgery class
        that the position restricts to, for output.

        Every class is met twice, except the one at ``singly_attained_index``;
        this is checked with raised errors, so it also holds under python -O.
        The torsion extraction reads no residues: the torsion index of a
        position follows from the position alone (:mod:`unknotone.alexander`).
        """
        n = self.n
        v_index = tuple([x % (2 * n) for xs, _ in _kappa_runs(n) for x in xs])
        counts = Counter(v_index)
        singles = [i for i, residue in enumerate(v_index) if counts[residue] == 1]
        if len(singles) != 1:
            raise AssertionError(f"expected one singly attained class, found {singles}")
        if singles[0] != self.singly_attained_index:
            raise AssertionError(
                f"singly attained class at index {singles[0]}, "
                f"expected {self.singly_attained_index}"
            )
        return v_index


def gamma_vector(D: int) -> GammaVector:
    """Correction terms of the model half-integer surgery, indexed by Z/D.

    The value at kappa = (x, y) is (kappa^t N kappa + 2D) / 4D, where
    N = [[-2, -1], [-1, -n]] is the integer numerator of the model form's
    inverse, so the numerator over 4D is 2D - n y^2 - 2 x (x + y).  The
    base type checks the symmetry B_i = B_(D-i) on the numerators.

    The work is linear in D, so D above ``lattice.BOX_BUDGET`` is refused
    with a ValidationError.  No record needs more: a record reaches B only
    through a negative-definite G, and Hadamard's inequality for the
    positive-definite -G gives D = det(-G) <= prod |G_ii| < prod (|G_ii| + 1),
    which is the size of G's characteristic box and at most BOX_BUDGET.
    """
    _check_d(D)
    if D > BOX_BUDGET:
        raise ValidationError(f"model vector for D = {D} is above the budget of {BOX_BUDGET}")
    n = (D + 1) // 2
    nums: list[int] = []
    for xs, y in _kappa_runs(n):
        base = 2 * D - n * y * y
        nums += [base - 2 * x * (x + y) for x in xs]
    return GammaVector(tuple(nums))
