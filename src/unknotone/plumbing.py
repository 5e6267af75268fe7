"""L-space certification for negative-definite plumbing forests by class counting.

Characteristic covectors of a plumbing form carry an equivalence relation
generated by full-length pushes at the preferred basis vectors v: when
<k, v> = -Q(v, v) the covector k is equivalent to k + 2 q(v) (and when
<k, v> = Q(v, v), to k - 2 q(v)).  Pushes preserve the characteristic
condition and the squared length, so every class is finite.  For a
negative-definite plumbing tree with at most one bad vertex (one with more
neighbours than -Q(v, v)), counting the classes that stay entirely inside
the coordinate box |<k, v>| <= |Q(v, v)| decides the question: the bounded
manifold is an L-space exactly when that count equals |det|, and in that
case the coset maxima of the form compute its correction terms
(Ozsvath-Szabo, "On the Floer homology of plumbed three-manifolds", Geom.
Topol. 7, 2003).  A forest bounds the connected sum of its trees, and the
count of a block sum is the product of its blocks' counts.

What is refused.  :class:`PlumbingForm` accepts only what the theorem
covers.  After the Gram-entry checks and the negative-definite check it
refuses, in one traversal of the graph (off-diagonal G_ij != 0 is an
edge), an off-diagonal entry other than 0 and +-1, a cycle, and a tree
with two or more bad vertices.  Outside the theorem the count certifies
nothing: the double covers of alternating knots are L-spaces, and their
Goeritz forms, whose white graphs have cycles or multiple edges, can
count more classes than |det|.

Every class inside the box meets the reduced box G_ii + 2 <= x_i <= -G_ii.
Put h = -G^{-1} 1; the push x -> x - 2 G e_i from the lower wall x_i = G_ii
(an up-move) raises h . x by 2.  A class inside the box is finite; at a
member x with the largest h . x, x_i = G_ii would allow that up-move, to a
member with a larger h . x, so x_i != G_ii for every i (the same argument
as for the coset maxima in :mod:`unknotone.corrections`).

When every off-diagonal entry is >= 0, each class inside the box has
exactly one point in the reduced box:

- Up-moves terminate on a class inside the box: each raises h . x by 2,
  and the class is finite.
- Take a point of such a class on the lower walls i != j.  Then G_ij = 0,
  since otherwise the up-move at i takes x_j to G_jj - 2 G_ij < G_jj,
  outside the box.  So the two up-moves commute, and the rewriting is
  locally confluent.
- By Newman's lemma (Newman, "On theories with a combinatorial definition
  of equivalence", Ann. Math. 43, 1942) each class has one normal form, a
  point with no up-move, and the normal forms are exactly its points in
  the reduced box.
- With signs s in {+1, -1}^dim and S = diag(s), the map x -> S x takes the
  G-pushes to the (S G S)-pushes and the box to itself, so the count does
  not change.  On a forest the traversal gives each vertex the sign its
  edge asks for, so S G S has off-diagonal entries 0 and 1.

How the count runs.  A push is undone by the opposite push, so a class is a
connected component of an undirected graph, and the in-box classes are the
components of the box points with no push that leaves the box.  A set of
box points is an ``int`` bitset over their places, numbered with the last
coordinate fastest, so that a point's place is linear in its coordinates.
On S G S the push at i moves each neighbour j up by one place step, so at
vertex i the upper-wall points whose neighbours all sit below their upper
walls, an AND of slabs (the points with one coordinate in an interval),
all move by one place shift onto the lower wall; the other wall points
push out.  Those points are closed under the 2 dim shifted sets: each
sweep applies every move in place to the whole set, at O(dim) bitwise
operations over the box, until a sweep adds nothing.  The rest is the union of the in-box classes, and the count is
the number of its points off the lower walls.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import mul
from typing import Sequence

from .corrections import CorrectionVector, correction_vector
from .errors import ValidationError
from .lattice import QuadraticForm, Value, check_gram_entries


class PlumbingForm(Value):
    """A negative-definite plumbing forest together with its preferred (vertex) basis."""

    form: QuadraticForm

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "PlumbingForm":
        return PlumbingForm(QuadraticForm.from_rows(rows))

    def _validate(self) -> None:
        # the Gram-entry checks come first: they need no elimination
        check_gram_entries(self.form)
        if not self.form.is_negative_definite:
            raise ValidationError("plumbing checks require a negative-definite form")
        self.signs

    @cached_property
    def signs(self) -> list[int]:
        """Signs s with s_i s_j G_ij >= 0 off the diagonal, for a plumbing forest only.

        One depth-first traversal per tree: each vertex reached gets the
        sign its edge asks for.  An off-diagonal entry other than 0 and +-1,
        an edge back to a vertex already reached other than the one it came
        from (a cycle), and a second bad vertex in one tree are refused.
        """
        gram = self.form.gram
        signs = [0] * len(gram)
        for root in range(len(gram)):
            if signs[root]:
                continue
            signs[root], stack, bad = 1, [(root, root)], []
            while stack:
                i, parent = stack.pop()
                edges = [(j, g) for j, g in enumerate(gram[i]) if g and j != i]
                if len(edges) > -gram[i][i]:
                    bad.append(i)
                for j, g in edges:
                    if g * g != 1:
                        raise ValidationError(
                            f"Gram entry ({i}, {j}) is {g}; a plumbing forest has off-diagonal "
                            "entries 0 and +-1"
                        )
                    if j == parent:
                        continue
                    if signs[j]:
                        raise ValidationError(
                            f"the edge ({i}, {j}) closes a cycle; the form is not a plumbing forest"
                        )
                    signs[j] = g * signs[i]
                    stack.append((j, i))
            if len(bad) > 1:
                raise ValidationError(
                    f"vertices {bad[0]} and {bad[1]} of one tree are bad (more neighbours than "
                    "-G_ii); the class count certifies trees with at most one"
                )
        return signs

    @cached_property
    def classes(self) -> ClassCount:
        """The in-box class count, counted once per form."""
        return ClassCount(_count_classes(self), abs(self.form.det))


class ClassCount(Value):
    count: int
    determinant: int

    @property
    def is_lspace(self) -> bool:
        """The certificate: the count equals |det| (module docstring)."""
        return self.count == self.determinant


def class_count(plumbing: PlumbingForm) -> ClassCount:
    """Count in-box equivalence classes of characteristic covectors.

    The count is kept on ``plumbing``, so asking again counts nothing.
    """
    return plumbing.classes


def _count_classes(plumbing: PlumbingForm) -> int:
    """The number of push classes lying entirely inside the box.

    The classes that leave the box are closed over the whole box as one
    bitset, on S G S; what is left is counted by its reduced-box points
    (module docstring).
    """
    form, signs = plumbing.form, plumbing.signs
    gram = [[s * t * g for t, g in zip(signs, row)] for s, row in zip(signs, form.gram)]
    bound = [-gram[i][i] for i in range(form.dim)]
    sizes = [b + 1 for b in bound]
    total = prod(sizes)
    # the places number box points, the last coordinate fastest; a push at i
    # moves a place by shift_i
    stride = [prod(sizes[j + 1 :]) for j in range(form.dim)]
    shifts = [sum(map(mul, column, stride)) for column in gram]
    # per vertex i, the upper-wall points whose push (1 added to each neighbour
    # x_j) stays in the box and their images on the lower wall; the other wall
    # points push out
    moves, leaving, walls = [], 0, 0
    for i, (column, shift) in enumerate(zip(gram, shifts)):
        upper = pushed = _slab(bound[i], bound[i], stride[i], sizes[i], total)
        # G_ji = 1 at the neighbours j of i, and the diagonal is negative
        for g, b, step, size in zip(column, bound, stride, sizes):
            if g > 0:
                pushed &= _slab(0, b - 1, step, size, total)
        back = pushed << shift if shift >= 0 else pushed >> -shift
        lower = upper >> bound[i] * stride[i]
        leaving |= (upper ^ pushed) | (lower ^ back)
        walls |= lower
        moves.append((pushed, back, shift) if shift >= 0 else (back, pushed, -shift))
    # what is left is closed under the pushes and lies inside the box, and
    # one point of each class lies off the lower walls
    left = ((1 << total) - 1) ^ _closure(leaving, moves)
    return (left & ~walls).bit_count()


def _slab(lo: int, hi: int, stride: int, size: int, total: int) -> int:
    """The places of a box of ``total`` points with coordinate lo..hi on the axis of ``stride``."""
    bits = (1 << (hi + 1) * stride) - (1 << lo * stride)
    width = stride * size
    while width < total:
        bits |= bits << width
        width *= 2
    return bits & (1 << total) - 1


def _closure(bits: int, moves: Sequence[tuple[int, int, int]]) -> int:
    """``bits`` and all they reach: each move sends ``up`` up and ``down`` down ``shift`` places."""
    while True:
        swept = bits
        for up, down, shift in moves:
            bits |= (bits & up) << shift | (bits & down) >> shift
        if bits == swept:
            return bits


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
