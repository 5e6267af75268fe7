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

The classes of the maximising points need no walk.  A push moves x by
2 G e_i, which lies in q(V), so it keeps the coset; it starts from a wall
x_i = -G_ii (adding) or x_i = G_ii (subtracting), where the change of
x^t G^{-1} x, 4 (x_i + G_ii) or 4 (G_ii - x_i), is 0.  So every member of
a maximiser's class is a maximiser of its coset, and every maximiser lies
in the box (see :mod:`unknotone.corrections`): the whole class lies
inside the box.  On a form with odd cyclic cokernel the coset-maxima
scan, which the correction terms need anyway, gives one reduced-box
maximiser per coset.  Those D points lie in D distinct classes, one per
coset, and are counted as settled.  A coset may reach its maximum in more
than one class (the sharp 10_148 form has 43 such classes for D = 31); the
classes of the unrecorded ones are counted like any other.

How the count runs.  A push is undone by the opposite push, so a class is
a connected component of an undirected graph, and the in-box classes are
the components of the box points with no push that leaves the box.  A set
of box points is an ``int`` bitset over their places, the numbering
(:func:`unknotone.lattice.box_strides`) in which the scan records its
maximising points.  At vertex i the upper-wall points whose push stays in the
box form a box of intervals, and the push moves them all by one place
shift onto the lower wall; the other wall points push out of the box.
Those points and the recorded points are closed once under the 2 dim
shifted sets: each sweep applies every move in place to the whole set,
at O(dim) bitwise operations over the box, until a sweep adds nothing.
The closure fills the classes that leave the box and the D settled
classes, which lie inside it, so the two never share a class.  The rest
is a union of in-box classes, each meeting the reduced box: a plain walk
from its seeds there counts them.  On an L-space with odd cyclic
cokernel nothing is left.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .corrections import BoxScan, CorrectionVector, correction_vector, scan_box
from .errors import ValidationError
from .lattice import (
    QuadraticForm, Value, box_strides, characteristic_box, check_gram_entries, cokernel
)


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

    The classes that leave the box and those of the scan's recorded points are
    closed together over the whole box as one bitset (module docstring);
    only the classes left are walked.
    """
    # the scan runs first, so its peak and that of the sets below do not add up
    scan = plumbing.scan
    form = plumbing.form
    gram = form.gram
    bound = [-gram[i][i] for i in range(form.dim)]
    sizes = [b + 1 for b in bound]
    total = prod(sizes)
    # the one numbering of box points; a push at i moves a place by shift_i
    stride = box_strides(characteristic_box(form))
    shifts = [sum(map(mul, column, stride)) for column in gram]
    # per vertex i, the upper-wall points whose push stays in the box and
    # their images on the lower wall; the other wall points push out of it
    moves, leaving = [], 0
    for i, (column, shift) in enumerate(zip(gram, shifts)):
        pushed = _box_set([(max(0, -g), min(b, b - g)) for g, b in zip(column, bound)], sizes)
        back = pushed << shift if shift >= 0 else pushed >> -shift
        upper = _box_set([(b, b) if j == i else (0, b) for j, b in enumerate(bound)], sizes)
        leaving |= (upper ^ pushed) | ((upper >> bound[i] * stride[i]) ^ back)
        moves.append((pushed, back, shift) if shift >= 0 else (back, pushed, -shift))
    settled = good = 0
    if scan is not None:
        # each coset maximiser of the scan stands for its settled class; the
        # settled classes lie inside the box, so none meets a leaving class
        settled = _bitset(scan.places, total)
        good = len(scan.places)
    left = ((1 << total) - 1) ^ _closure(leaving | settled, moves)
    if not left:
        return good
    # what is left is closed under the pushes and lies inside the box
    visited = bytearray(total)
    axes = list(zip(stride, sizes, bound, shifts))
    for seed in _places(left & _box_set([(1, b) for b in bound], sizes)):
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


def _box_set(intervals: Sequence[tuple[int, int]], sizes: Sequence[int]) -> int:
    """The places whose coordinate j lies in intervals[j], doubled from the innermost axis out."""
    bits, width = 1, 1
    for (lo, hi), size in zip(reversed(intervals), reversed(sizes)):
        if hi < lo:
            return 0
        copies = 1
        while copies <= hi - lo:
            bits |= bits << copies * width
            copies *= 2
        bits = (bits & (1 << (hi - lo + 1) * width) - 1) << lo * width
        width *= size
    return bits


def _closure(bits: int, moves: Sequence[tuple[int, int, int]]) -> int:
    """``bits`` and all they reach: each move sends ``up`` up and ``down`` down ``shift`` places."""
    while True:
        swept = bits
        for up, down, shift in moves:
            bits |= (bits & up) << shift | (bits & down) >> shift
        if bits == swept:
            return bits


def _bitset(places: Iterable[int], size: int) -> int:
    """The bitset of ``places``, all below ``size``, read from one string of binary digits."""
    digits = bytearray(b"0") * size
    for place in places:
        digits[place] = 49  # "1"
    digits.reverse()
    return int(digits, 2)


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
    if plumbing.scan is None:
        # an even or non-cyclic cokernel, which the scan refuses
        return correction_vector(plumbing.form)
    return plumbing.scan.vector
