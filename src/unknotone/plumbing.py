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
  not change.  The signs exist when the signed graph of G is balanced:
  each cycle has an even number of negative edges.  A forest always is.

How the count runs.  A push is undone by the opposite push, so a class is a
connected component of an undirected graph, and the in-box classes are the
components of the box points with no push that leaves the box.  A set of
box points is an ``int`` bitset over their places, the numbering
(:func:`unknotone.lattice.box_strides`) in which a point's index is linear
in its coordinates.  At vertex i the upper-wall points whose push stays in
the box, an AND of slabs (the points with one coordinate in an interval) on
the axes the push moves (G_ji != 0), all move by one place shift onto the
lower wall; the other wall points push out.  Those points are closed under
the 2 dim shifted sets: each sweep applies every move in place to the whole
set, at O(dim) bitwise operations over the box, until a sweep adds nothing.
The rest is the union of the in-box classes.  On a balanced form, flipped
to S G S first, the count is the number of its points off the lower walls.
On an unbalanced one a point of the reduced box may share its class with
another, so a plain walk from the seeds there counts the classes.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import mul
from typing import Iterator, Optional, Sequence

from .corrections import CorrectionVector, correction_vector
from .errors import ValidationError
from .lattice import QuadraticForm, Value, box_strides, characteristic_box, check_gram_entries


class PlumbingForm(Value):
    """A negative-definite form together with its preferred (vertex) basis."""

    form: QuadraticForm

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "PlumbingForm":
        return PlumbingForm(QuadraticForm.from_rows(rows))

    def _validate(self) -> None:
        # the Gram-entry checks come first: they need no elimination
        check_gram_entries(self.form)
        if not self.form.is_negative_definite:
            raise ValidationError("plumbing checks require a negative-definite form")

    @cached_property
    def classes(self) -> ClassCount:
        """The in-box class count, counted once per form."""
        count = _count_classes(self)
        determinant = abs(self.form.det)
        return ClassCount(count=count, determinant=determinant, is_lspace=count == determinant)


class ClassCount(Value):
    count: int
    determinant: int
    is_lspace: bool


def class_count(plumbing: PlumbingForm) -> ClassCount:
    """Count in-box equivalence classes of characteristic covectors.

    The count is kept on ``plumbing``, so asking again counts nothing.
    """
    return plumbing.classes


def _count_classes(plumbing: PlumbingForm) -> int:
    """The number of push classes lying entirely inside the box.

    The classes that leave the box are closed over the whole box as one
    bitset; what is left is counted by its reduced-box points on a
    balanced form and walked on any other (module docstring).
    """
    form = plumbing.form
    signs = _balancing_signs(form.gram)
    gram = form.gram
    if signs is not None:
        gram = [[s * t * g for t, g in zip(signs, row)] for s, row in zip(signs, gram)]
    bound = [-gram[i][i] for i in range(form.dim)]
    sizes = [b + 1 for b in bound]
    total = prod(sizes)
    # the one numbering of box points; a push at i moves a place by shift_i
    stride = box_strides(characteristic_box(form))
    shifts = [sum(map(mul, column, stride)) for column in gram]
    # per vertex i, the upper-wall points whose push (G_ji added to x_j) stays in
    # the box and their images on the lower wall; the other wall points push out
    moves, leaving, walls = [], 0, 0
    for i, (column, shift) in enumerate(zip(gram, shifts)):
        upper = pushed = _slab(bound[i], bound[i], stride[i], sizes[i], total)
        for j, (g, b) in enumerate(zip(column, bound)):
            if g and j != i:
                pushed &= _slab(max(0, -g), min(b, b - g), stride[j], sizes[j], total)
        back = pushed << shift if shift >= 0 else pushed >> -shift
        lower = upper >> bound[i] * stride[i]
        leaving |= (upper ^ pushed) | (lower ^ back)
        walls |= lower
        moves.append((pushed, back, shift) if shift >= 0 else (back, pushed, -shift))
    # what is left is closed under the pushes and lies inside the box
    left = ((1 << total) - 1) ^ _closure(leaving, moves)
    if signs is not None:
        # one point of each class lies off the lower walls
        return (left & ~walls).bit_count()
    good = 0
    visited = bytearray(total)
    axes = list(zip(stride, sizes, bound, shifts))
    for seed in _places(left & ~walls):
        if visited[seed]:
            continue
        good += 1
        visited[seed] = 1
        stack = [seed]
        while stack:
            place = stack.pop()
            for step, size, top, shift in axes:
                at = place // step % size
                if at == top:
                    reached = place + shift
                elif at == 0:
                    reached = place - shift
                else:
                    continue
                if not visited[reached]:
                    visited[reached] = 1
                    stack.append(reached)
    return good


def _balancing_signs(gram: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """Signs s with s_i s_j G_ij >= 0 off the diagonal, or None if none exist.

    A 2-colouring of the signed graph: each vertex reached gets the sign its
    edge asks for, and an edge that asks for the other sign is a cycle with
    an odd number of negative edges.
    """
    signs = [0] * len(gram)
    for root in range(len(gram)):
        if signs[root]:
            continue
        signs[root] = 1
        stack = [root]
        while stack:
            i = stack.pop()
            for j, g in enumerate(gram[i]):
                if g and j != i:
                    sign = signs[i] if g > 0 else -signs[i]
                    if not signs[j]:
                        signs[j] = sign
                        stack.append(j)
                    elif signs[j] != sign:
                        return None
    return signs


def _slab(lo: int, hi: int, stride: int, size: int, total: int) -> int:
    """The places of a box of ``total`` points with coordinate lo..hi on the axis of ``stride``."""
    if hi < lo:
        return 0
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


def _places(bits: int) -> Iterator[int]:
    """The set places of a bitset, lowest first."""
    text = bin(bits)[:1:-1]
    place = text.find("1")
    while place >= 0:
        yield place
        place = text.find("1", place + 1)


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
