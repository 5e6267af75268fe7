"""The model surgery form and its correction vector.

For odd D = 2n - 1 the model is the rank-two form

    R_D = [ -n  1 ]
          [  1 -2 ],

the intersection form of the trace of the half-integer surgery on the
unknot.  Its correction terms, indexed by Z/D through evaluation of
covectors on the first basis vector, form the comparison vector B used by
the matching search.  The indexing below reproduces the classical ordered
lists of 2n - 1 characteristic covectors, one list for each parity of n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .lattice import QuadraticForm

Kappa = tuple[int, int]


def model_form(D: int) -> QuadraticForm:
    """The form R_D above, for odd D >= 3."""
    _check_d(D)
    n = (D + 1) // 2
    return QuadraticForm.from_rows([[-n, 1], [1, -2]])


def _check_d(D: int) -> int:
    if D < 3 or D % 2 == 0:
        raise ValidationError(f"model form needs an odd determinant >= 3, got {D}")
    return D


def kappa_list(n: int) -> list[Kappa]:
    """The ordered characteristic covectors kappa_0, ..., kappa_{2n-2} of R_{2n-1}.

    For even n = 2k the construction indexes them by -k <= i <= 3k - 2 and
    we wrap negative indices mod 2n - 1, so that kappa_0 = (0, 0) sits at
    position 0.  For odd n = 2k + 1 the indices already run 0 <= i <= 4k and
    kappa_0 = (1, -2).
    """
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    size = 2 * n - 1
    out: list[Kappa | None] = [None] * size
    if n % 2 == 0:
        k = n // 2
        for i in range(-k, k + 1):
            out[i % size] = (2 * i, 0)
        for i in range(k + 1, 2 * k):
            out[i % size] = (-4 * k + 2 * i, 2)
        for i in range(2 * k, 3 * k - 1):
            out[i % size] = (2 * i - 4 * k + 2, -2)
    else:
        k = (n - 1) // 2
        for i in range(0, k + 1):
            out[i] = (1 + 2 * i, -2)
        for i in range(k + 1, 3 * k + 2):
            out[i] = (2 * i - 4 * k - 1, 0)
        for i in range(3 * k + 2, 4 * k + 1):
            out[i] = (2 * i - 8 * k - 3, 2)
    assert all(entry is not None for entry in out)
    kappas = [entry for entry in out if entry is not None]
    # Every kappa must be characteristic for R_{2n-1}.
    assert all((a - n) % 2 == 0 and b % 2 == 0 for a, b in kappas)
    return kappas


def vw_correspondence(n: int) -> list[int]:
    """First coordinate of kappa_i reduced mod 2n, for i = 0, ..., 2n - 2.

    This labels the integer-surgery class that position i restricts to.
    Each attained residue occurs exactly twice except one: the residue at
    position 0 when n is even, and at position n - 1 when n is odd.
    """
    return [kappa[0] % (2 * n) for kappa in kappa_list(n)]


@dataclass(frozen=True)
class GammaVector:
    """The comparison vector B for determinant D, with its covector data."""

    D: int
    n: int
    kappas: tuple[Kappa, ...]
    values: tuple[Fraction, ...]
    v_index: tuple[int, ...]
    singly_attained_index: int


def gamma_vector(D: int) -> GammaVector:
    """Correction terms of the model half-integer surgery, indexed by Z/D."""
    _check_d(D)
    n = (D + 1) // 2
    form = model_form(D)
    kappas = tuple(kappa_list(n))
    values = []
    for kappa in kappas:
        num = form.pairing_numerator(kappa)
        values.append(Fraction(num + 2 * abs(form.det), 4 * abs(form.det)))
    v_index = tuple(vw_correspondence(n))
    counts: dict[int, int] = {}
    for residue in v_index:
        counts[residue] = counts.get(residue, 0) + 1
    singles = [i for i, residue in enumerate(v_index) if counts[residue] == 1]
    if len(singles) != 1:
        raise AssertionError(f"expected one singly attained class, found {singles}")
    expected_single = 0 if n % 2 == 0 else n - 1
    if singles[0] != expected_single:
        raise AssertionError(
            f"singly attained class at index {singles[0]}, expected {expected_single}"
        )
    gv = GammaVector(
        D=D,
        n=n,
        kappas=kappas,
        values=tuple(values),
        v_index=v_index,
        singly_attained_index=singles[0],
    )
    assert all(gv.values[i] == gv.values[(D - i) % D] for i in range(D))
    return gv

