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
order, a box above the budget, a singular form, an even determinant, one
too long to print, a non-cyclic cokernel and an indefinite form.  The box
comes first because its size reads only the dimension and the diagonal, so
an over-budget form is refused before the elimination, whose cost grows
with the cube of the dimension and with the size of the entries.
``correction_vector`` calls it, and so does the analysis driver before it
decides on a listing; the form keeps the cokernel and the box it built, so
the second call repeats no work.

Which entry a point updates.  The vector orders the values as A_i = value
at i * g for a generator g of the cokernel, so A_0 is always the value at
the zero coset (the spin class).  With G^{-1} = N / D, the linking form
x, y -> x^t N y / D mod 1 is well defined on cosets, since (G v)^t N y =
D v . y.  It is nondegenerate, so a = g^t N g is a unit mod D, and a point
x in the coset of i * g has x^t N g = i a (mod D).  With w = a^{-1} N g
mod D, the index of x is therefore w . x mod D.  The scan runs the two
coordinates with the longest ranges innermost, the longest one last, and
``itertools.product`` over the others (the head).  With the head p fixed,
x^t N x is a quadratic and w . x a linear function of the two inner
coordinates: per head the scan forms p^t N p, the cross terms N_k . p and
N_l . p with the two inner axes k and l, and w . p, at O(dim^2) cost, and
then each inner point costs O(1), since a step along the middle axis l
moves only the constant and linear terms of the innermost quadratic.  A
form of dimension 1 gets a phantom middle coordinate fixed at 0.  A
maximum does not depend on the order of the scan, so the choice of the
inner axes changes no value.

The generator g is the one that :func:`unknotone.lattice.cokernel` chose.
Any other generator is a unit multiple u g, and
:meth:`CorrectionVector.reindexed` lists the same values against it; the
consumers downstream quantify over the units anyway.

Which points reach the maxima.  Asked to record, :func:`scan_box` also
returns, per coset, the first point of the scan that reaches its maximum,
in coordinate order; the plumbing class count (:mod:`unknotone.plumbing`)
asks for them and settles the classes of these points without walking
them.  The verdict path (:func:`correction_vector`) asks for no points: a
plain loop keeps only the maxima, with no store per strict improvement.
Both loops share the ranges, the inner axes and the index weights.

What the vector stores.  A point's value is (x^t N x + m D) / 4D, so
:class:`CorrectionVector` is a :class:`unknotone.lattice.RationalVector`:
it keeps the integer numerators over 4D, which the matching search reads
as they are, and renders them as "p/q" text with ``texts()``, one gcd per
distinct numerator.  Its ``values`` view builds ``Fraction``s only for the
tests, the benchmark and the scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product, repeat
from math import gcd
from operator import add, itemgetter, mul
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import TEXT_BITS, NonCyclicCokernelError, ValidationError, count_text
from .lattice import (
    CokernelStructure,
    QuadraticForm,
    RationalVector,
    Vector,
    characteristic_box,
    check_box_budget,
    cokernel,
)


@dataclass(frozen=True)
class CorrectionVector(RationalVector):
    """Exact correction terms A_i = numerators[i] / 4D, indexed by multiples of ``generator``."""

    generator: Vector

    def __post_init__(self) -> None:
        # a raised check, not an assert: the matching search scans only half
        # the units and relies on A_i = A_{D-i}, also under python -O
        if len(self.numerators) != self.D or self.numerators[1:] != self.numerators[:0:-1]:
            raise ValidationError(
                f"correction values must be {self.D} entries with A_i = A_(D-i)"
            )

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
        return CorrectionVector(self.D, nums, generator)


def scannable_cokernel(form: QuadraticForm) -> CokernelStructure:
    """The cokernel of a form whose correction terms the box scan computes.

    Raises, in this order: :class:`ValidationError` on a form whose box,
    read from its dimension and diagonal before the elimination
    (:func:`unknotone.lattice.check_box_budget`), is above
    :data:`unknotone.lattice.BOX_BUDGET` points; :class:`SingularFormError`
    on a singular form; :class:`ValidationError` on an even determinant or one
    above ``TEXT_BITS`` bits, too long to print; :class:`NonCyclicCokernelError`
    on a non-cyclic cokernel; and :class:`ValidationError` on an indefinite form.
    """
    check_box_budget(form)
    structure = cokernel(form)
    if structure.order % 2 == 0:
        order = count_text(structure.order)
        raise ValidationError(f"cokernel order {order} is even; need a knot form")
    if structure.order.bit_length() > TEXT_BITS:
        raise ValidationError(f"cokernel order {count_text(structure.order)} is too long to print")
    if not structure.is_cyclic:
        raise NonCyclicCokernelError(structure.invariant_factors)
    if not form.is_negative_definite:
        raise ValidationError("correction terms require a negative-definite form")
    characteristic_box(form)
    return structure


class BoxScan(NamedTuple):
    """One reduced-box scan: the correction vector and, if asked, its maximisers.

    When the scan records, the first point of the scan that reaches A_i's
    maximum, a point of the reduced box in the coset of i * g, is kept in
    two parts: ``heads[i]``, its coordinates outside the two inner axes,
    and ``tails[i]``, its middle and innermost coordinates.  Both are
    tuples the scan already holds, so recording allocates nothing per
    point.  ``pick`` puts head + tail back in coordinate order.  Both lists
    are empty when the scan does not record, and in dimension 0.
    """

    vector: CorrectionVector
    heads: list[Vector]
    tails: list[Vector]
    pick: Callable[[Vector], Vector]

    def maximisers(self) -> Iterator[Vector]:
        """Per index i, the recorded maximiser of A_i, in coordinate order, one at a time."""
        return map(self.pick, map(add, self.heads, self.tails))


def correction_vector(form: QuadraticForm) -> CorrectionVector:
    """Correction terms of a negative-definite form with odd cyclic cokernel.

    The vector is listed against the generator that
    :func:`unknotone.lattice.cokernel` chose; ``reindexed`` lists it
    against a unit multiple.  A form that :func:`scannable_cokernel`
    refuses raises its error.  The scan records no maximisers.
    """
    return scan_box(form).vector


def scan_box(form: QuadraticForm, record: bool = False) -> BoxScan:
    """The coset-maxima scan behind :func:`correction_vector`; ``record`` keeps its maximisers."""
    structure = scannable_cokernel(form)
    D = structure.order
    m = form.dim
    if m == 0:
        return BoxScan(CorrectionVector(D=1, numerators=(0,), generator=()), [], [], tuple)

    generator = structure.generator
    assert generator is not None
    # the index weights w = a^{-1} N g mod D with a = g^t N g (module docstring)
    ng = [sum(map(mul, row, generator)) for row in form.inverse_numerator]
    inverse = pow(sum(map(mul, generator, ng)), -1, D)
    best, *recorded = _coset_maxima(form, [inverse * v % D for v in ng], D, record)

    # the value of a coset is (b + m D) / 4D for its maximum b of x^t N x
    nums = tuple([b + m * D for b in best])
    return BoxScan(CorrectionVector(D=D, numerators=nums, generator=generator), *recorded)


def _coset_maxima(
    form: QuadraticForm, weights: Sequence[int], order: int, record: bool
) -> tuple[list[int], list[Vector], list[Vector], Callable[[Vector], Vector]]:
    """Max of x^t N x over the reduced box, listed by the index w . x mod D.

    N is the integer numerator of G^{-1}, so the stored integers are
    |det| times the squared lengths; |det| > 0 keeps comparisons exact.  A
    maximum does not depend on the scan order, so the two longest ranges
    run innermost (module docstring).  Returns the maxima and, with
    ``record``, the heads and tails of the first points reaching them and
    the map from head + tail to coordinate order (see :class:`BoxScan`);
    without it both lists are empty.
    """
    num = form.inverse_numerator
    ranges = [range(rg.start + 2, rg.stop, 2) for rg in characteristic_box(form)]
    if form.dim == 1:
        # a phantom coordinate fixed at 0 gives the scan its middle axis
        num = ((num[0][0], 0), (0, 0))
        weights = [weights[0], 0]
        ranges.append(range(1))
    axes = range(len(ranges))
    # the innermost axis k has the longest range, the middle axis l the next
    k, l, *rest = sorted(axes, key=lambda i: -len(ranges[i]))
    rest.sort()
    # per head p (the coordinates in rest): p^t N p from the rows of N
    # restricted to rest, then r_k = N_k . p, r_l = N_l . p and w . p
    head_rows = [[num[i][j] for j in rest] for i in rest + [k, l]]
    head_rows.append([weights[j] for j in rest])
    # x^t N x = v + y (2 r_l + N_ll y) + x_k (2 (r_k + N_kl y) + N_kk x_k) at
    # x_l = y, and w . x = i0 + w_l y + w_k x_k; a recording scan gives each
    # step its tail (y, x_k), built once per middle value
    inners = [(2 * x, num[k][k] * x * x, weights[k] * x, x) for x in ranges[k]]
    middles = [
        (
            2 * y,
            num[l][l] * y * y,
            num[k][l] * y,
            weights[l] * y,
            [(twice, square, shift, (y, x)) for twice, square, shift, x in inners]
            if record
            else inners,
        )
        for y in ranges[l]
    ]
    # x^t N x >= -sum |N_ij| |x_i| |x_j| > floor on the box, so floor marks an unmet index
    reach = [max(-rg.start, rg[-1]) for rg in ranges]
    floor = -1 - sum(abs(num[i][j]) * reach[i] * reach[j] for i in axes for j in axes)
    best = [floor] * order
    heads: list[Vector] = [()] * order if record else []
    tails: list[Vector] = heads.copy()
    for p in product(*[ranges[i] for i in rest]):
        *row_products, r_k, r_l, i0 = map(sum, map(map, repeat(mul), head_rows, repeat(p)))
        v = sum(map(mul, p, row_products))
        for twice_y, square_y, cross, shift_y, steps in middles:
            base = v + r_l * twice_y + square_y
            r = r_k + cross
            j = i0 + shift_y
            if record:
                for twice, square, shift, tail in steps:
                    value = base + r * twice + square
                    i = (j + shift) % order
                    if value > best[i]:
                        best[i] = value
                        heads[i] = p
                        tails[i] = tail
            else:
                for twice, square, shift, _ in steps:
                    value = base + r * twice + square
                    i = (j + shift) % order
                    if value > best[i]:
                        best[i] = value
    missed = best.count(floor)
    if missed:
        raise AssertionError(f"characteristic box met {order - missed} cosets, expected {order}")
    # head + tail lists the coordinates in rest, then l, then k
    where = [(rest + [l, k]).index(i) for i in range(form.dim)]
    # (in dimension 1 the slice drops the phantom and keeps a tuple)
    pick = itemgetter(*where) if form.dim > 1 else itemgetter(slice(1, 2))
    return best, heads, tails, pick
