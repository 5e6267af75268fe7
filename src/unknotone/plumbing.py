"""L-space certification for negative-definite plumbings by class counting.

Characteristic covectors of a plumbing form carry an equivalence relation
generated by full-length pushes at the preferred basis vectors v: when
<k, v> = -Q(v, v) the covector k is equivalent to k + 2 q(v) (and when
<k, v> = Q(v, v), to k - 2 q(v)).  Pushes preserve the characteristic
condition and the squared length, so every class is finite.  Counting the
classes that stay entirely inside the coordinate box
|<k, v>| <= |Q(v, v)| decides the question: the bounded manifold is an
L-space exactly when that count equals |det|, and in that case the
coset maxima of the form compute its correction terms (Ozsvath-Szabo,
"On the Floer homology of plumbed three-manifolds", Geom. Topol. 2003).

Every class inside the box meets the reduced box G_ii + 2 <= x_i <= -G_ii,
so the seeds come from there.  Put h = -G^{-1} 1; a push x -> x - 2 G e_i
raises h . x by 2.  A class inside the box is finite; at a member x with
the largest h . x, x_i = G_ii would allow that push, to a member with a
larger h . x, so x_i != G_ii for every i (the same argument as for the
coset maxima in :mod:`unknotone.corrections`).

The count walks each class from a seed and stops early: at a push that
leaves the box, or at a covector that an earlier walk reached.  The count
stays exact.  A push is undone by the opposite push, so a class
is a connected component of an undirected graph, and lying inside the box
is a property of the whole component.  A walk never leaves its class, and
a walk whose class lies inside the box never stops early, so it visits the
whole class and every later seed of that class is skipped.  A covector
that an earlier walk reached therefore lies in the class of that walk, and
that walk was stopped: the class leaves the box.  Walks reach the lower
walls too, so the record of reached covectors covers the full box; only
covectors inside the box are visited, so the work is bounded by its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod
from operator import mul
from typing import Sequence

from .corrections import CorrectionVector, correction_vector
from .errors import ValidationError
from .lattice import QuadraticForm, characteristic_box


@dataclass(frozen=True)
class PlumbingForm:
    """A negative-definite form together with its preferred (vertex) basis."""

    form: QuadraticForm

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "PlumbingForm":
        return PlumbingForm(QuadraticForm.from_rows(rows))

    def __post_init__(self) -> None:
        if not self.form.is_negative_definite:
            raise ValidationError("plumbing checks require a negative-definite form")

    @cached_property
    def classes(self) -> ClassCount:
        """The in-box class count, walked once per form."""
        count = _count_classes(self.form)
        determinant = abs(self.form.det)
        return ClassCount(count=count, determinant=determinant, is_lspace=count == determinant)


@dataclass(frozen=True)
class ClassCount:
    count: int
    determinant: int
    is_lspace: bool


def class_count(plumbing: PlumbingForm) -> ClassCount:
    """Count in-box equivalence classes of characteristic covectors.

    The count is kept on ``plumbing``, so asking again walks nothing.
    """
    return plumbing.classes


def _count_classes(form: QuadraticForm) -> int:
    """The number of push classes lying entirely inside the box.

    Seeds come from the reduced box G_ii + 2 <= x_i <= -G_ii, which every
    in-box class meets; each walk stops at the box wall or at a point an
    earlier walk reached.  The module docstring gives the reasons the count
    stays exact.
    """
    dim = form.dim
    gram = form.gram
    box = characteristic_box(form)
    sizes = [len(rg) for rg in box]
    bound = [-gram[i][i] for i in range(dim)]
    # A box point's place in the scan order is sum_j (x_j + |G_jj|) / 2 * stride_j,
    # so a push at vertex i, which moves x_j by 2 G_ji, moves the place by shift_i.
    stride = [prod(sizes[j + 1 :]) for j in range(dim)]
    offset = sum(map(mul, bound, stride))
    # Per vertex i, the push from each wall x_i = +-|G_ii|: its signed place
    # shift and its moves (j, delta, low, high), where the pushed point stays
    # in the box exactly when low <= x_j <= high for every move.
    pushes = []
    for i in range(dim):
        shift = sum(gram[j][i] * stride[j] for j in range(dim))
        walls = []
        for sign in (1, -1):
            moves = [
                (j, delta, -bound[j] - delta, bound[j] - delta)
                for j in range(dim)
                if (delta := 2 * sign * gram[j][i])
            ]
            walls.append((sign * shift, moves))
        pushes.append((i, bound[i], *walls))
    # the walk (named by the place of its seed) that reached each box point
    walk_of = [-1] * prod(sizes)
    good = 0
    for seed in product(*(range(rg.start + 2, rg.stop, 2) for rg in box)):
        walk = (sum(map(mul, seed, stride)) + offset) >> 1
        if walk_of[walk] >= 0:
            continue
        walk_of[walk] = walk
        stack = [(walk, list(seed))]
        inside = True
        while stack and inside:
            place, current = stack.pop()
            for i, wall, upper, lower in pushes:
                x = current[i]
                if x == wall:
                    shift, moves = upper
                elif x == -wall:
                    shift, moves = lower
                else:
                    continue
                for j, _, low, high in moves:
                    if not low <= current[j] <= high:
                        inside = False
                        break
                else:
                    reached_place = place + shift
                    reached = walk_of[reached_place]
                    if reached < 0:
                        walk_of[reached_place] = walk
                        pushed = current.copy()
                        for j, delta, _, _ in moves:
                            pushed[j] += delta
                        stack.append((reached_place, pushed))
                        continue
                    inside = reached == walk
                if not inside:
                    break
        good += inside
    return good


def plumbing_corrections(plumbing: PlumbingForm) -> CorrectionVector:
    """Correction terms of a certified plumbing, via the coset maxima.

    The caller owns the orientation question: the boundary orientation may
    be opposite to the one wanted, which negates the vector; the sign
    search in the matching stage absorbs this.
    """
    counted = plumbing.classes
    if not counted.is_lspace:
        raise ValidationError(
            f"plumbing is not certified: {counted.count} classes for determinant "
            f"{counted.determinant}"
        )
    return correction_vector(plumbing.form)
