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

The classes of the coset maximisers need no walk.  A push moves x by
2 G e_i, which lies in q(V), so it keeps the coset; it starts from a wall
x_i = -G_ii (adding) or x_i = G_ii (subtracting), where the change of
x^t G^{-1} x, 4 (x_i + G_ii) or 4 (G_ii - x_i), is 0.  So every member of
a maximiser's class is a maximiser of its coset, and every maximiser lies
in the box (see :mod:`unknotone.corrections`): the whole class lies
inside the box.  On a form with odd cyclic cokernel the coset-maxima
scan, which the correction terms need anyway, gives one reduced-box
maximiser per coset.  Those D points lie in D distinct classes, one per
coset, so the count is at least D; each is marked as a settled walk and
counted before any walk starts.  A coset may have maximisers in more than
one class (the sharp 10_148 form has 43 such classes for D = 31); the
classes of the unrecorded ones are walked like any other.

The count then walks each class from the other seeds and stops early: at a
push that leaves the box, or at a covector that a settled class or an
earlier walk holds.  The count stays exact.  A push is undone by the
opposite push, so a class is a connected component of an undirected graph,
and lying inside the box is a property of the whole component.  A walk
never leaves its class, and a walk whose class lies inside the box and
holds no settled point never stops early, so it visits the whole class and
every later seed of that class is skipped.  A covector that a settled class
or an earlier walk holds therefore lies in a class that is counted already
(only another maximising seed of the same class reaches a settled point) or
in a class whose walk was stopped because it leaves the box; either way
the walk that reaches it adds nothing.  On an even or non-cyclic cokernel
nothing is settled and every class is walked.  Walks reach the lower walls
too, so the record of reached covectors covers the full box; only
covectors inside the box are visited, so the work is bounded by its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod
from operator import mul
from typing import Optional, Sequence

from .corrections import BoxScan, CorrectionVector, correction_vector, scan_box
from .errors import ValidationError
from .lattice import QuadraticForm, characteristic_box, check_box_budget, cokernel


@dataclass(frozen=True)
class PlumbingForm:
    """A negative-definite form together with its preferred (vertex) basis."""

    form: QuadraticForm

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "PlumbingForm":
        return PlumbingForm(QuadraticForm.from_rows(rows))

    def __post_init__(self) -> None:
        # the box budget reads only the diagonal, so it is checked before the elimination
        check_box_budget(self.form)
        if not self.form.is_negative_definite:
            raise ValidationError("plumbing checks require a negative-definite form")

    @cached_property
    def scan(self) -> Optional[BoxScan]:
        """The coset-maxima scan, run once per form.

        None unless the cokernel is odd and cyclic, the forms the scan accepts.
        """
        structure = cokernel(self.form)
        if structure.order % 2 == 0 or not structure.is_cyclic:
            return None
        return scan_box(self.form, record=True)

    @cached_property
    def classes(self) -> ClassCount:
        """The in-box class count, walked once per form."""
        count = _count_classes(self)
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


def _count_classes(plumbing: PlumbingForm) -> int:
    """The number of push classes lying entirely inside the box.

    The classes of the coset maximisers that ``plumbing.scan`` found are
    counted without a walk.  The other seeds come from the reduced box
    G_ii + 2 <= x_i <= -G_ii, which every in-box class meets; each walk
    stops at the box wall or at a point that a settled class or an earlier
    walk holds.  The module docstring gives the reasons the count stays
    exact.
    """
    form = plumbing.form
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
    # the walk (named by the place of its seed) that reached each box point;
    # each coset maximiser of the scan stands for its settled class
    walk_of = [-1] * prod(sizes)
    good = 0
    scan = plumbing.scan
    if scan is not None:
        for point in scan.maximisers():
            place = (sum(map(mul, point, stride)) + offset) >> 1
            walk_of[place] = place
        good = len(scan.heads)
    # a seed's place is the sum of one term per coordinate, added up in C
    seeds = [range(rg.start + 2, rg.stop, 2) for rg in box]
    terms = [[(x + bound[j]) // 2 * stride[j] for x in seeds[j]] for j in range(dim)]
    for walk, seed in zip(map(sum, product(*terms)), product(*seeds)):
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
    if plumbing.scan is None:
        # an even or non-cyclic cokernel, which the scan refuses
        return correction_vector(plumbing.form)
    return plumbing.scan.vector
