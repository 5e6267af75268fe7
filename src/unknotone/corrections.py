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
h = -G^{-1} 1 and take, among a coset's maximising points, one with the
largest h . x.  If x_i = G_ii, then x' = x - 2 G e_i has the same value
(the change is 4 (G_ii - x_i) = 0), lies in the same coset and has
h . x' = h . x + 2, which contradicts the choice of x.  The characteristic
covectors are one coset of 2 V*, and 2 is a unit mod an odd determinant,
so every coset contains them and meets the smaller box.  The full box still sets the work bound: a
box above :data:`unknotone.lattice.BOX_BUDGET` points is refused before
the scan.

What is refused.  :func:`scannable_cokernel` is the one place that decides
whether a form's correction terms can be scanned.  It refuses, in this
order, a box above the budget, an entry with G_ij^2 > G_ii G_jj (or, with
a G_ii >= 0, an elimination above its budget), a singular form, an even
determinant, one too long to print (above ``TEXT_BITS`` bits), a
non-cyclic cokernel and an indefinite form.  The first two read only the
Gram entries, before the elimination, whose cost grows with the cube of
the dimension and the size of the entries.  ``correction_vector`` calls
it, and so does the analysis driver before it decides on a listing; the
form keeps the outcome of the Gram-entry checks, its cokernel and its
box, so the second call repeats no work.

Which entry a point updates.  The vector orders the values as A_i = value
at i * g for a generator g of the cokernel, so A_0 is always the value at
the zero coset (the spin class).  With G^{-1} = N / D, the linking form
x, y -> x^t N y / D mod 1 is well defined on cosets, since (G v)^t N y =
D v . y.  It is nondegenerate, so a = g^t N g is a unit mod D, and a point
x in the coset of i * g has x^t N g = i a (mod D).  With w = a^{-1} N g
mod D, the index of x is therefore w . x mod D.  The scan runs the two
coordinates with the longest ranges innermost, the longest one last, and
the others (the head) in ``itertools.product`` order.  With the head p
fixed, x^t N x is a quadratic and w . x a linear function of the two
inner coordinates, with p^t N p, the cross terms N_k . p and N_l . p with
the two inner axes k and l, and w . p as coefficients.  The scan builds
the heads as one list, one head axis a at a time: a partial head p also
carries N_j . p for the head axes j still to come, so setting x_a = x
adds x (2 N_a . p + N_aa x) to p^t N p and x times column a of N (and
w_a x) to the linear terms, and a head costs O(dim) additions.  Each
inner point costs O(1), since a step along the middle axis l moves only
the constant and linear terms of the innermost quadratic.  A form of
dimension 0 or 1 gets phantom coordinates fixed at 0, so every scan has
two inner axes.  A maximum does not depend on the order of the scan, so
the choice of the inner axes changes no value.

The generator g is the one that :func:`unknotone.lattice.cokernel` chose.
Any other generator is a unit multiple u g, and
:meth:`CorrectionVector.reindexed` lists the same values against it; the
consumers downstream quantify over the units anyway.

Which points reach the maxima.  Asked to record, :func:`scan_box` also
returns, per coset, the place of the first point of the scan that reaches
its maximum: its index in the characteristic box, last coordinate fastest
(:func:`unknotone.lattice.box_strides`), whatever the scan's axis order.
Like w . x, a place is linear in the point: each head axis adds its
term as the head is built, and each middle and inner step adds one
more.  The plumbing class count (:mod:`unknotone.plumbing`) reads the
places as bit positions and settles the classes of these points without
walking them.  The verdict path (:func:`correction_vector`) asks for no
points: a plain loop keeps only the maxima, with no store per strict
improvement.  Both loops share the ranges, the inner axes, the index
weights and the heads.

What the vector stores.  A point's value is (x^t N x + m D) / 4D, so
:class:`CorrectionVector` is a :class:`unknotone.lattice.RationalVector`:
it keeps the integer numerators over 4D, which the matching search reads
as they are, and renders them as "p/q" text with ``texts()``, one gcd per
distinct numerator.  Its ``values`` view builds ``Fraction``s only for the
tests, the benchmark and the scripts.
"""

from __future__ import annotations

from itertools import count
from math import gcd
from operator import add, mul
from typing import NamedTuple, Sequence

from .errors import TEXT_BITS, NonCyclicCokernelError, ValidationError, count_text
from .lattice import (
    CokernelStructure,
    QuadraticForm,
    RationalVector,
    Vector,
    box_strides,
    characteristic_box,
    check_gram_entries,
    cokernel,
)


class CorrectionVector(RationalVector):
    """Exact correction terms A_i = numerators[i] / 4D, indexed by multiples of ``generator``."""

    generator: Vector

    def _validate(self) -> None:
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
        return CorrectionVector(self.D, tuple([-v for v in self.numerators]), self.generator)

    def reindexed(self, unit: int) -> "CorrectionVector":
        """The same data listed against the generator unit * g."""
        if self.D > 1 and gcd(unit, self.D) != 1:
            raise ValidationError(f"{unit} is not a unit mod {self.D}")
        nums = tuple(self.numerators[(unit * i) % self.D] for i in range(self.D))
        generator = tuple(unit * x for x in self.generator)
        return CorrectionVector(self.D, nums, generator)


def scannable_cokernel(form: QuadraticForm) -> CokernelStructure:
    """The cokernel of a form whose correction terms the box scan computes.

    Refuses in the order of the module docstring, the first two refusals
    by :func:`unknotone.lattice.check_gram_entries`: with
    :class:`SingularFormError` on a singular form,
    :class:`NonCyclicCokernelError` on a non-cyclic cokernel, and
    :class:`ValidationError` otherwise.
    """
    check_gram_entries(form)
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
    return structure


class BoxScan(NamedTuple):
    """One reduced-box scan: the correction vector and, if it records, per index i
    the place of the first point reaching A_i's maximum (module docstring),
    one machine word each in an ``array``; empty otherwise.
    """

    vector: CorrectionVector
    places: Sequence[int]


def correction_vector(form: QuadraticForm) -> CorrectionVector:
    """Correction terms of a negative-definite form with odd cyclic cokernel.

    The vector is listed against the generator that
    :func:`unknotone.lattice.cokernel` chose; ``reindexed`` lists it
    against a unit multiple.  A form that :func:`scannable_cokernel`
    refuses raises its error.  The scan records no points.
    """
    return scan_box(form).vector


def scan_box(form: QuadraticForm, record: bool = False) -> BoxScan:
    """The scan behind :func:`correction_vector`; ``record`` keeps the maximising points."""
    structure = scannable_cokernel(form)
    D = structure.order
    generator = structure.generator
    assert generator is not None
    # the index weights w = a^{-1} N g mod D with a = g^t N g (module docstring)
    ng = [sum(map(mul, row, generator)) for row in form.inverse_numerator]
    inverse = pow(sum(map(mul, generator, ng)), -1, D)
    best, places = _coset_maxima(form, [inverse * v % D for v in ng], D, record)

    # the value of a coset is (b + m D) / 4D for its maximum b of x^t N x
    shift = form.dim * D
    nums = tuple([b + shift for b in best])
    vector = CorrectionVector(D=D, numerators=nums, generator=generator)
    return BoxScan(vector, places)


def _coset_maxima(
    form: QuadraticForm, weights: Sequence[int], order: int, record: bool
) -> tuple[list[int], Sequence[int]]:
    """Max of x^t N x over the reduced box, listed by the index w . x mod D.

    N is the integer numerator of G^{-1}, so the stored integers are
    |det| times the squared lengths; |det| > 0 keeps comparisons exact.  A
    maximum does not depend on the scan order, so the two longest ranges
    run innermost (module docstring).  Returns the maxima and, with
    ``record``, the places of the first points reaching them (see
    :class:`BoxScan`); without it, no places.
    """
    num = form.inverse_numerator
    box = characteristic_box(form)
    ranges = [range(rg.start + 2, rg.stop, 2) for rg in box]
    strides = box_strides(box)
    # a phantom coordinate has the range (0,), stride 0, weight 0 and a zero
    # row and column of N; in dimension 0 the one point, place 0, has value 0
    phantoms = [0] * (2 - len(ranges))
    if phantoms:
        num = [[*row, *phantoms] for row in num] + [[0, 0]] * len(phantoms)
        weights = [*weights, *phantoms]
        ranges += [range(1)] * len(phantoms)
        strides += phantoms
    axes = range(len(ranges))
    # the innermost axis k has the longest range, the middle axis l the next
    k, l, *rest = sorted(axes, key=lambda i: -len(ranges[i]))
    rest.sort()
    # the heads p (the coordinates in rest) in itertools.product order, built
    # one head axis a at a time: each partial head holds p^t N p, its place,
    # and N_j . p for the head axes j still to come, r_k = N_k . p, r_l =
    # N_l . p and w . p; x on axis a adds x (2 N_a . p + N_aa x) to p^t N p,
    # its place term to the place, and x (N_ja, ..., N_ka, N_la, w_a) to the
    # terms after N_a . p, which it drops
    heads = [(0,) * (len(rest) + 5)]
    for n, a in enumerate(rest):
        column = [num[j][a] for j in rest[n + 1 :] + [k, l]] + [weights[a]]
        moves = [
            (2 * x, num[a][a] * x * x, place, [c * x for c in column])
            for x, place in zip(ranges[a], count(strides[a], strides[a]))
        ]
        heads = [
            (v + twice * r_a + square, head + place, *map(add, lin, moved))
            for v, head, r_a, *lin in heads
            for twice, square, place, moved in moves
        ]
    # x^t N x = v + y (2 r_l + N_ll y) + x_k (2 (r_k + N_kl y) + N_kk x_k) at
    # x_l = y, w . x = i0 + w_l y + w_k x_k, and a place adds to the head's
    # stride, 2 stride, ... along a reduced range, one step into the box
    # only a recording scan reads the last entry, its step's place term
    places_k = count(strides[k], strides[k]) if record else ranges[k]
    n_kk, w_k = num[k][k], weights[k]
    inners = [(2 * x, n_kk * x * x, w_k * x, q) for x, q in zip(ranges[k], places_k)]
    middles = [
        (2 * y, num[l][l] * y * y, num[k][l] * y, weights[l] * y, place)
        for y, place in zip(ranges[l], count(strides[l], strides[l]))
    ]
    # x^t N x >= -sum |N_ij| |x_i| |x_j| > floor on the box, so floor marks an unmet index
    reach = [max(-rg.start, rg[-1]) for rg in ranges]
    floor = -1 - sum(abs(num[i][j]) * reach[i] * reach[j] for i in axes for j in axes)
    best = [floor] * order
    places: Sequence[int] = ()
    if record:
        from array import array  # only here: the verdict path never loads it

        places = array("l", [0]) * order
    for v, head, r_k, r_l, i0 in heads:
        for twice_y, square_y, cross, shift_y, place_y in middles:
            base = v + r_l * twice_y + square_y
            r = r_k + cross
            j = i0 + shift_y
            if record:
                q = head + place_y
                for twice, square, shift, place in inners:
                    value = base + r * twice + square
                    i = (j + shift) % order
                    if value > best[i]:
                        best[i] = value
                        places[i] = q + place
            else:
                for twice, square, shift, _ in inners:
                    value = base + r * twice + square
                    i = (j + shift) % order
                    if value > best[i]:
                        best[i] = value
    missed = best.count(floor)
    if missed:
        raise AssertionError(f"characteristic box met {order - missed} cosets, expected {order}")
    return best, places
