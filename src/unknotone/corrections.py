"""Correction-term vectors of negative-definite forms with cyclic cokernel.

The value attached to a coset c of q(V) in V* is the maximum of
(x^t G^{-1} x + m) / 4 over the characteristic covectors x lying in c,
where m is the rank.

Where the maxima lie.  Every maximiser lies in the characteristic box
G_ii <= x_i <= -G_ii, x_i = G_ii (mod 2): pushing x by 2 G e_i
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
form keeps the outcome of the Gram-entry checks and its cokernel, so the
second call repeats no work.

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

The generator g is the scan's choice of index, no part of the group: the
scan picks it by :func:`unknotone.lattice.cokernel_generator`, after every
refusal.  A form that gets there is negative-definite with a box inside the
budget, so D <= prod |G_ii| (Hadamard) is below the budget too, and so is
the pick's fallback, which lists all D cosets.  Any other generator is a
unit multiple u g, and :meth:`CorrectionVector.reindexed` lists the same
values against it; the consumers downstream quantify over the units anyway.

What the vector stores.  A point's value is (x^t N x + m D) / 4D, so
:class:`CorrectionVector` is a :class:`unknotone.lattice.RationalVector`:
it keeps the integer numerators over 4D, which the matching search reads
as they are, and renders them as "p/q" text with ``texts()``, one gcd per
distinct numerator.  Negating a characteristic covector keeps it
characteristic and keeps its value, and it negates its index, so
A_i = A_(D-i): the base type refuses any vector without that symmetry, and
the matching search relies on it to scan only the units below D/2.  Its
``values`` view builds ``Fraction``s only for the tests, the benchmark and
the scripts.
"""

from __future__ import annotations

from math import gcd
from operator import add, mul
from typing import Sequence

from .errors import TEXT_BITS, NonCyclicCokernelError, ValidationError, count_text
from .lattice import (
    QuadraticForm,
    RationalVector,
    Vector,
    check_gram_entries,
    cokernel,
    cokernel_generator,
)


class CorrectionVector(RationalVector):
    """Exact correction terms A_i = numerators[i] / 4D, indexed by multiples of ``generator``."""

    generator: Vector

    @property
    def gate(self) -> bool:
        """Whether the symmetry filter applies: |A_0| <= 1/2."""
        return abs(self.numerators[0]) <= 2 * self.D

    def mirrored(self) -> "CorrectionVector":
        """The correction vector of the orientation reverse: all values negated."""
        return CorrectionVector(tuple([-v for v in self.numerators]), self.generator)

    def reindexed(self, unit: int) -> "CorrectionVector":
        """The same data listed against the generator unit * g."""
        D = self.D
        if D > 1 and gcd(unit, D) != 1:
            raise ValidationError(f"{unit} is not a unit mod {D}")
        nums = tuple(self.numerators[(unit * i) % D] for i in range(D))
        generator = tuple(unit * x for x in self.generator)
        return CorrectionVector(nums, generator)


def scannable_cokernel(form: QuadraticForm) -> int:
    """The order D of the cokernel of a form whose correction terms the box scan computes.

    Refuses in the order of the module docstring, the first two refusals
    by :func:`unknotone.lattice.check_gram_entries`: with
    :class:`SingularFormError` on a singular form,
    :class:`NonCyclicCokernelError` on a non-cyclic cokernel, and
    :class:`ValidationError` otherwise.
    """
    check_gram_entries(form)
    factors = cokernel(form)
    D = abs(form.det)
    if D % 2 == 0:
        raise ValidationError(f"cokernel order {count_text(D)} is even; need a knot form")
    if D.bit_length() > TEXT_BITS:
        raise ValidationError(f"cokernel order {count_text(D)} is too long to print")
    if len(factors) > 1:
        raise NonCyclicCokernelError(factors)
    if not form.is_negative_definite:
        raise ValidationError("correction terms require a negative-definite form")
    return D


def correction_vector(form: QuadraticForm) -> CorrectionVector:
    """Correction terms of a negative-definite form with odd cyclic cokernel.

    The vector is listed against the generator that the scan picks, after
    :func:`scannable_cokernel` has passed, so a refused form raises its
    error and pays for no pick (module docstring); ``reindexed`` lists it
    against a unit multiple.
    """
    D = scannable_cokernel(form)
    generator = cokernel_generator(form)
    # the index weights w = a^{-1} N g mod D with a = g^t N g (module docstring)
    ng = [sum(map(mul, row, generator)) for row in form.inverse_numerator]
    inverse = pow(sum(map(mul, generator, ng)), -1, D)
    best = _coset_maxima(form, [inverse * v % D for v in ng], D)

    # the value of a coset is (b + m D) / 4D for its maximum b of x^t N x
    shift = form.dim * D
    nums = tuple([b + shift for b in best])
    return CorrectionVector(numerators=nums, generator=generator)


def _coset_maxima(form: QuadraticForm, weights: Sequence[int], order: int) -> list[int]:
    """Max of x^t N x over the reduced box, listed by the index w . x mod D.

    N is the integer numerator of G^{-1}, so the stored integers are
    |det| times the squared lengths; |det| > 0 keeps comparisons exact.  A
    maximum does not depend on the scan order, so the two longest ranges
    run innermost (module docstring).
    """
    num = form.inverse_numerator
    ranges = [range(form.gram[i][i] + 2, 1 - form.gram[i][i], 2) for i in range(form.dim)]
    # a phantom coordinate has the range (0,), weight 0 and a zero row and
    # column of N; in dimension 0 the one point has value 0
    phantoms = [0] * (2 - len(ranges))
    if phantoms:
        num = [[*row, *phantoms] for row in num] + [[0, 0]] * len(phantoms)
        weights = [*weights, *phantoms]
        ranges += [range(1)] * len(phantoms)
    # the innermost axis k has the longest range, the middle axis l the next
    k, l, *rest = sorted(range(len(ranges)), key=lambda i: -len(ranges[i]))
    rest.sort()
    # the heads p (the coordinates in rest) in itertools.product order, built
    # one head axis a at a time: each partial head holds p^t N p and N_j . p
    # for the head axes j still to come, r_k = N_k . p, r_l = N_l . p and
    # w . p; x on axis a adds x (2 N_a . p + N_aa x) to p^t N p and
    # x (N_ja, ..., N_ka, N_la, w_a) to the terms after N_a . p, which it drops
    heads = [(0,) * (len(rest) + 4)]
    for n, a in enumerate(rest):
        column = [num[j][a] for j in rest[n + 1 :] + [k, l]] + [weights[a]]
        moves = [(2 * x, num[a][a] * x * x, [c * x for c in column]) for x in ranges[a]]
        heads = [
            (v + twice * r_a + square, *map(add, lin, moved))
            for v, r_a, *lin in heads
            for twice, square, moved in moves
        ]
    # x^t N x = v + y (2 r_l + N_ll y) + x_k (2 (r_k + N_kl y) + N_kk x_k) at
    # x_l = y, and w . x = i0 + w_l y + w_k x_k
    n_kk, w_k = num[k][k], weights[k]
    inners = [(2 * x, n_kk * x * x, w_k * x) for x in ranges[k]]
    middles = [(2 * y, num[l][l] * y * y, num[k][l] * y, weights[l] * y) for y in ranges[l]]
    # every |x_i| <= R, the largest reach, so x^t N x >= -R^2 sum |N_ij| > floor on the box
    reach = max(max(-rg.start, rg[-1]) for rg in ranges)
    floor = -1 - sum(abs(n) for row in num for n in row) * reach * reach
    best = [floor] * order
    for v, r_k, r_l, i0 in heads:
        for twice_y, square_y, cross, shift_y in middles:
            base = v + r_l * twice_y + square_y
            r = r_k + cross
            j = i0 + shift_y
            for twice, square, shift in inners:
                value = base + r * twice + square
                i = (j + shift) % order
                if value > best[i]:
                    best[i] = value
    missed = best.count(floor)
    if missed:
        raise AssertionError(f"characteristic box met {order - missed} cosets, expected {order}")
    return best
