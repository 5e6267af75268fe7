"""Correction-term vectors of negative-definite forms with cyclic cokernel.

The value attached to a coset c of q(V) in V* is the maximum of
(x^t G^{-1} x + m) / 4 over the characteristic covectors x lying in c,
where m is the rank.  The maximum is found inside the finite candidate box
of :func:`unknotone.lattice.characteristic_box`; every coset of a form with
odd determinant contains candidates there.  The box is scanned once, by the
odometer :func:`unknotone.lattice.box_scan`: it hands over the row products
N x (whose residues mod |det| label the coset) and the value x^t N x, both
updated in O(dim) per candidate.  A box above
:data:`unknotone.lattice.BOX_BUDGET` points is refused before the scan.

The vector orders these values as A_i = value at i * g for a generator g of
the cokernel, so A_0 is always the value at the zero coset (the spin class).
The generator is a choice; any two choices differ by reindexing with a unit
of Z/D, which downstream consumers quantify over anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import NonCyclicCokernelError, ValidationError
from .lattice import CokernelStructure, QuadraticForm, Vector, box_scan, cokernel


@dataclass(frozen=True)
class CorrectionVector:
    """Exact correction terms A_0..A_{D-1}, indexed by multiples of a generator."""

    D: int
    dim: int
    values: tuple[Fraction, ...]
    generator: Vector

    def __post_init__(self) -> None:
        # a raised check, not an assert: the matching search scans only half
        # the units and relies on A_i = A_{D-i}, also under python -O
        if len(self.values) != self.D or any(
            self.values[i] != self.values[(self.D - i) % self.D] for i in range(self.D)
        ):
            raise ValidationError(
                f"correction values must be {self.D} entries with A_i = A_(D-i)"
            )

    @property
    def spin(self) -> Fraction:
        """The value at the zero coset."""
        return self.values[0]

    @property
    def gate(self) -> bool:
        """Whether the symmetry filter applies: |A_0| <= 1/2."""
        return abs(self.values[0]) <= Fraction(1, 2)

    def mirrored(self) -> "CorrectionVector":
        """The correction vector of the orientation reverse: all values negated."""
        return replace(self, values=tuple(-v for v in self.values))

    def reindexed(self, unit: int) -> "CorrectionVector":
        """The same data listed against the generator unit * g."""
        if self.D > 1 and gcd(unit, self.D) != 1:
            raise ValidationError(f"{unit} is not a unit mod {self.D}")
        values = tuple(self.values[(unit * i) % self.D] for i in range(self.D))
        generator = tuple(unit * x for x in self.generator)
        return CorrectionVector(self.D, self.dim, values, generator)


def correction_vector(
    form: QuadraticForm,
    generator: Optional[Sequence[int]] = None,
) -> CorrectionVector:
    """Correction terms of a negative-definite form with odd cyclic cokernel.

    ``generator`` is an optional covector whose coset must generate the
    cokernel; by default a deterministic generator is chosen (see
    :func:`unknotone.lattice.cokernel`).  Raises
    :class:`NonCyclicCokernelError` when the cokernel is not cyclic and
    :class:`ValidationError` on even determinant or an indefinite form.
    """
    structure = cokernel(form)
    if structure.order % 2 == 0:
        raise ValidationError(f"cokernel order {structure.order} is even; need a knot form")
    if not structure.is_cyclic:
        raise NonCyclicCokernelError(structure.invariant_factors)
    D = structure.order
    m = form.dim
    if m == 0:
        return CorrectionVector(D=1, dim=0, values=(Fraction(0),), generator=())
    if not form.is_negative_definite:
        raise ValidationError("correction terms require a negative-definite form")

    best = _coset_maxima(form, structure)
    if len(best) != D:
        raise AssertionError(
            f"characteristic box met {len(best)} cosets, expected {D}"
        )

    gen_vec = _resolve_generator(structure, generator)
    gen_label = structure.to_coset(gen_vec)
    denominator = abs(form.det)
    values = []
    label = structure.zero_label
    for _ in range(D):
        values.append(Fraction(best[label] + m * denominator, 4 * denominator))
        label = structure.add(label, gen_label)
    if label != structure.zero_label:
        raise AssertionError("generator did not close a D-cycle")
    return CorrectionVector(D=D, dim=m, values=tuple(values), generator=gen_vec)


def _coset_maxima(form: QuadraticForm, structure: CokernelStructure) -> dict[Vector, int]:
    """Max of x^t N x over the candidate box, per coset label.

    N is the integer numerator of G^{-1}, so the stored integers are
    |det| times the squared lengths; |det| > 0 keeps comparisons exact.
    The label of x is N x mod |det|, read off the odometer's row products.
    """
    order = structure.order
    best: dict[Vector, int] = {}
    for _, r, value in box_scan(form):
        label = tuple([v % order for v in r])
        if value > best.get(label, value - 1):
            best[label] = value
    return best


def _resolve_generator(
    structure: CokernelStructure, generator: Optional[Sequence[int]]
) -> Vector:
    if generator is None:
        assert structure.generator is not None
        return structure.generator
    gen_vec = tuple(generator)
    if len(gen_vec) != structure.form.dim:
        raise ValidationError("generator covector has the wrong length")
    label = structure.to_coset(gen_vec)
    if structure.element_order(label) != structure.order:
        raise ValidationError(f"covector {gen_vec} does not generate the cokernel")
    return gen_vec
