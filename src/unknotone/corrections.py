"""Correction-term vectors of negative-definite forms with cyclic cokernel.

The value attached to a coset c of q(V) in V* is the maximum of
(x^t G^{-1} x + m) / 4 over the characteristic covectors x lying in c,
where m is the rank.

Where the maxima lie.  Every maximiser lies in the box G_ii <= x_i <= -G_ii
of :func:`unknotone.lattice.characteristic_box`: pushing x by 2 G e_i
stays characteristic and in the coset, and changes x^t G^{-1} x by
4 (x_i + G_ii) when adding it and by 4 (G_ii - x_i) when subtracting it,
so outside the box one of the two pushes strictly gains.  The scan uses the
smaller box G_ii + 2 <= x_i <= -G_ii, of prod |G_ii| points.  Put
h = -G^{-1} 1 and take, among the maximisers of a coset, one with the
largest h . x.  If x_i = G_ii, then x' = x - 2 G e_i has the same value
(the change is 4 (G_ii - x_i) = 0), lies in the same coset and has
h . x' = h . x + 2, which contradicts the choice of x.  The characteristic
covectors are one coset of 2 V*, and 2 is a unit mod an odd determinant,
so every coset contains them and meets the smaller box.  The full box still sets the work bound: a
box above :data:`unknotone.lattice.BOX_BUDGET` points is refused before
the scan.

What is refused.  :func:`scannable_cokernel` is the one place that decides
whether a form's correction terms can be scanned.  It refuses, in this
order, a singular form, an even determinant, a non-cyclic cokernel, an
indefinite form and a box above the budget.  ``correction_vector`` calls
it, and so does the analysis driver before it decides on a listing; the
form keeps the cokernel and the box it built, so the second call repeats
no work.

Which entry a point updates.  The vector orders the values as A_i = value
at i * g for a generator g of the cokernel, so A_0 is always the value at
the zero coset (the spin class).  With G^{-1} = N / D, the linking form
x, y -> x^t N y / D mod 1 is well defined on cosets, since (G v)^t N y =
D v . y.  It is nondegenerate, so a = g^t N g is a unit mod D, and a point
x in the coset of i * g has x^t N g = i a (mod D).  With w = a^{-1} N g
mod D, the index of x is therefore w . x mod D.  The scan runs
``itertools.product`` over all coordinates but the one with the longest
range; along that one each point costs O(1), because x^t N x is a
quadratic and w . x a linear function of it.  A maximum does not depend on
the order of the scan, so the choice of that coordinate changes no value.

The generator is a choice; any two choices differ by reindexing with a unit
of Z/D, which downstream consumers quantify over anyway.

Which points reach the maxima.  :func:`scan_box` also returns, per coset,
the first point of the scan that reaches its maximum; the plumbing class
count (:mod:`unknotone.plumbing`) settles the classes of these points
without walking them.  :func:`correction_vector` is the same scan without
them.

What the vector stores.  A point's value is (x^t N x + m D) / 4D, so the
vector keeps the integer numerators over 4D, which the matching search
reads as they are.  Output renders the numerators of A and B as "p/q" text
with :func:`rational_texts`, one gcd per distinct numerator; ``values`` is
the ``Fraction`` view, and ``spin`` a single ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import NonCyclicCokernelError, ValidationError
from .lattice import CokernelStructure, QuadraticForm, Vector, characteristic_box, cokernel


def fractions_over(numerators: Sequence[int], denominator: int) -> tuple[Fraction, ...]:
    """The rationals numerators[i] / denominator, one ``Fraction`` per distinct numerator."""
    fraction = {n: Fraction(n, denominator) for n in set(numerators)}
    return tuple(map(fraction.__getitem__, numerators))


def rational_texts(numerators: Sequence[int], denominator: int) -> list[str]:
    """numerators[i] / denominator as "p/q" in lowest terms, or "p" when q = 1.

    For a positive denominator this is ``str(Fraction(n, denominator))``,
    with one gcd and no ``Fraction`` per distinct numerator.
    """
    text = {}
    for n in set(numerators):
        g = gcd(n, denominator)
        q = denominator // g
        text[n] = f"{n // g}/{q}" if q != 1 else str(n // g)
    return list(map(text.__getitem__, numerators))


@dataclass(frozen=True)
class CorrectionVector:
    """Exact correction terms A_i = numerators[i] / 4D, indexed by multiples of a generator."""

    D: int
    dim: int
    numerators: tuple[int, ...]
    generator: Vector

    def __post_init__(self) -> None:
        # a raised check, not an assert: the matching search scans only half
        # the units and relies on A_i = A_{D-i}, also under python -O
        if len(self.numerators) != self.D or self.numerators[1:] != self.numerators[:0:-1]:
            raise ValidationError(
                f"correction values must be {self.D} entries with A_i = A_(D-i)"
            )

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """A_0..A_{D-1} as ``Fraction``s, for output."""
        return fractions_over(self.numerators, 4 * self.D)

    @property
    def spin(self) -> Fraction:
        """The value at the zero coset."""
        return Fraction(self.numerators[0], 4 * self.D)

    @property
    def gate(self) -> bool:
        """Whether the symmetry filter applies: |A_0| <= 1/2."""
        return abs(self.numerators[0]) <= 2 * self.D

    def mirrored(self) -> "CorrectionVector":
        """The correction vector of the orientation reverse: all values negated."""
        return replace(self, numerators=tuple([-v for v in self.numerators]))

    def reindexed(self, unit: int) -> "CorrectionVector":
        """The same data listed against the generator unit * g."""
        if self.D > 1 and gcd(unit, self.D) != 1:
            raise ValidationError(f"{unit} is not a unit mod {self.D}")
        nums = tuple(self.numerators[(unit * i) % self.D] for i in range(self.D))
        generator = tuple(unit * x for x in self.generator)
        return CorrectionVector(self.D, self.dim, nums, generator)


def scannable_cokernel(form: QuadraticForm) -> CokernelStructure:
    """The cokernel of a form whose correction terms the box scan computes.

    Raises, in this order: :class:`SingularFormError` on a singular form,
    :class:`ValidationError` on an even determinant,
    :class:`NonCyclicCokernelError` on a non-cyclic cokernel, and
    :class:`ValidationError` on an indefinite form or a box above
    :data:`unknotone.lattice.BOX_BUDGET` points.
    """
    structure = cokernel(form)
    if structure.order % 2 == 0:
        raise ValidationError(f"cokernel order {structure.order} is even; need a knot form")
    if not structure.is_cyclic:
        raise NonCyclicCokernelError(structure.invariant_factors)
    if not form.is_negative_definite:
        raise ValidationError("correction terms require a negative-definite form")
    characteristic_box(form)
    return structure


class BoxScan(NamedTuple):
    """One reduced-box scan: the correction vector and a maximiser per coset.

    For each index i, the first point of the scan that reaches A_i's maximum
    has ``inners[i]`` at coordinate ``axis`` (the range scanned innermost) and
    ``heads[i]`` at the other coordinates, in order.  Both lists are empty in
    dimension 0.
    """

    vector: CorrectionVector
    axis: int
    heads: list[Vector]
    inners: list[int]


def correction_vector(
    form: QuadraticForm,
    generator: Optional[Sequence[int]] = None,
) -> CorrectionVector:
    """Correction terms of a negative-definite form with odd cyclic cokernel.

    ``generator`` is an optional covector whose coset must generate the
    cokernel; by default a deterministic generator is chosen (see
    :func:`unknotone.lattice.cokernel`).  A form that
    :func:`scannable_cokernel` refuses raises its error.
    """
    return scan_box(form, generator).vector


def scan_box(form: QuadraticForm, generator: Optional[Sequence[int]] = None) -> BoxScan:
    """The coset-maxima scan behind :func:`correction_vector`, with its maximisers."""
    structure = scannable_cokernel(form)
    D = structure.order
    m = form.dim
    if m == 0:
        return BoxScan(CorrectionVector(D=1, dim=0, numerators=(0,), generator=()), 0, [], [])

    gen_vec = _resolve_generator(structure, generator)
    # the index weights w = a^{-1} N g mod D with a = g^t N g (module docstring)
    ng = [sum(map(mul, row, gen_vec)) for row in form.inverse_numerator]
    inverse = pow(sum(map(mul, gen_vec, ng)), -1, D)
    best, axis, heads, inners = _coset_maxima(form, [inverse * v % D for v in ng], D)
    if None in best:
        raise AssertionError(
            f"characteristic box met {D - best.count(None)} cosets, expected {D}"
        )

    # the value of a coset is (b + m D) / 4D for its maximum b of x^t N x
    nums = tuple([b + m * D for b in best])
    vector = CorrectionVector(D=D, dim=m, numerators=nums, generator=gen_vec)
    return BoxScan(vector, axis, heads, inners)


def _coset_maxima(
    form: QuadraticForm, weights: Sequence[int], order: int
) -> tuple[list[Optional[int]], int, list[Optional[Vector]], list[Optional[int]]]:
    """Max of x^t N x over the reduced box, listed by the index w . x mod D.

    N is the integer numerator of G^{-1}, so the stored integers are
    |det| times the squared lengths; |det| > 0 keeps comparisons exact.  An
    index that no point reaches stays None.  A maximum does not depend on
    the scan order, so the longest range runs innermost (module docstring).
    Returns the maxima, that innermost coordinate k, and per index the first
    point reaching the maximum, as its other coordinates and its x_k.
    """
    num = form.inverse_numerator
    ranges = [range(rg.start + 2, rg.stop, 2) for rg in characteristic_box(form)]
    k = max(range(form.dim), key=lambda i: len(ranges[i]))
    rest = [i for i in range(form.dim) if i != k]
    head_rows = [[num[i][j] for j in rest] for i in rest]
    cross = [num[k][j] for j in rest]
    head_weights = [weights[j] for j in rest]
    # x^t N x = v0 + x_k (2 r + N_kk x_k) and w . x = i0 + w_k x_k
    steps = [(2 * x, num[k][k] * x * x, weights[k] * x, x) for x in ranges[k]]
    best: list[Optional[int]] = [None] * order
    heads: list[Optional[Vector]] = [None] * order
    inners: list[Optional[int]] = [None] * order
    for p in product(*[ranges[i] for i in rest]):
        r = sum(map(mul, cross, p))
        v0 = sum(map(mul, p, [sum(map(mul, row, p)) for row in head_rows]))
        i0 = sum(map(mul, head_weights, p))
        for twice, square, shift, x in steps:
            value = v0 + r * twice + square
            i = (i0 + shift) % order
            if best[i] is None or value > best[i]:
                best[i] = value
                heads[i] = p
                inners[i] = x
    return best, k, heads, inners


def _resolve_generator(
    structure: CokernelStructure, generator: Optional[Sequence[int]]
) -> Vector:
    if generator is None:
        assert structure.generator is not None
        return structure.generator
    gen_vec = tuple(generator)
    if len(gen_vec) != structure.dim:
        raise ValidationError("generator covector has the wrong length")
    label = structure.to_coset(gen_vec)
    if structure.element_order(label) != structure.order:
        raise ValidationError(f"covector {gen_vec} does not generate the cokernel")
    return gen_vec
