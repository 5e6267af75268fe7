"""Exact linear algebra on integral quadratic forms.

Everything here is exact: Gram matrices and their adjugates are integer
matrices, and a rational value v^t G^{-1} v is kept as its integer
numerator over |det G|.  Floating point is deliberately never used,
because downstream code compares correction terms for exact equality.

Conventions.  A form is stored as a symmetric integer Gram matrix G on a
lattice V = Z^m.  The induced map q: V -> V* sends v to the covector G v,
and the rational extension of the form to V* is (v, w) -> v^t G^{-1} w,
computed as v^t adj(G) w / det(G).  Covectors are plain integer tuples in
the dual coordinates.

The linear algebra uses plain integers.  One fraction-free Gauss-Jordan
elimination on [G | I] (Bareiss, Math. Comp. 1968), run once per form,
gives the determinant, the leading minors behind definiteness and, for a
nonsingular form, the adjugate; a singular form has no adjugate here, and
asking for it raises SingularFormError.  The gcd of the adjugate entries
is the cyclicity test (the cokernel is cyclic exactly when it is 1).  A
Smith normal form is computed only for the invariant factors of a
non-cyclic cokernel.  Each form builds its cokernel and its box once and
keeps them beside the elimination, so every stage that asks shares them.

The characteristic box is defined once, in :func:`characteristic_box`.
The correction terms scan the reduced box G_ii + 2 <= x_i <= -G_ii inside
it.  The class walk shares that scan: the coset maxima it finds settle
their classes, and the walk runs from the other reduced-box seeds and
walks in the full box.  A box of more than BOX_BUDGET points is refused with a
ValidationError before anything is scanned, and before the elimination:
its size reads only the diagonal (:func:`check_box_budget`).

Values over 4D.  A form of determinant D has its pairings v^t G^{-1} v in
(1/D) Z, so the correction terms (v^t G^{-1} v + m) / 4 lie in (1/4D) Z,
and so do the model vector and every matching built from the two.
:class:`RationalVector` holds such a vector as its integer numerators over
4D; A, B and the matchings all derive from it, and every stage imports
this module, so the one renderer :func:`rational_texts` lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import NonCyclicCokernelError, SingularFormError, ValidationError, count_text

if TYPE_CHECKING:
    from fractions import Fraction

Vector = tuple[int, ...]


def rational_texts(numerators: Sequence[int], denominator: int) -> list[str]:
    """numerators[i] / denominator as "p/q" in lowest terms, or "p" when q = 1.

    For a positive denominator this is the text of the ``Fraction`` n /
    denominator, with one gcd and no ``Fraction`` per distinct numerator.
    """
    text = {}
    for n in set(numerators):
        g = gcd(n, denominator)
        q = denominator // g
        text[n] = f"{n // g}/{q}" if q != 1 else str(n // g)
    return list(map(text.__getitem__, numerators))


@dataclass(frozen=True)
class RationalVector:
    """The rationals numerators[i] / 4D, kept as their integer numerators.

    The pipeline reads ``numerators`` and output renders them with
    :meth:`texts`; ``values`` is the one ``Fraction`` view, which only the
    tests, the benchmark and the scripts read.
    """

    D: int
    numerators: tuple[int, ...]

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The entries as ``Fraction``s, one object per distinct numerator."""
        from fractions import Fraction

        fraction = {n: Fraction(n, 4 * self.D) for n in set(self.numerators)}
        return tuple(map(fraction.__getitem__, self.numerators))

    def texts(self) -> list[str]:
        """The entries as "p/q" text, from the numerators (:func:`rational_texts`)."""
        return rational_texts(self.numerators, 4 * self.D)


def _validated_rows(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    out = tuple(tuple(entry for entry in row) for row in rows)
    m = len(out)
    for row in out:
        if len(row) != m:
            raise ValidationError("Gram matrix must be square")
        for entry in row:
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise ValidationError(f"Gram entries must be integers, got {entry!r}")
    for i in range(m):
        for j in range(i):
            if out[i][j] != out[j][i]:
                raise ValidationError(
                    f"Gram matrix is not symmetric at ({i}, {j}): "
                    f"{out[i][j]} != {out[j][i]}"
                )
    return out


def _gauss_jordan(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination on [G | I]: pivots and rows.

    Each pivot clears its column above and below, and every division by the
    previous pivot is exact.  A zero pivot swaps up the first lower row that
    is nonzero in its column, negating one of the two so that det is kept;
    with no such row the pivot is 0 and the elimination stops.  The pivots
    [1, p_1, ...] end in det G, and until the first swap p_k is the k-th
    leading minor, since the rows below get exactly the Bareiss update.  For
    det != 0 the row ops take [G | I] to [det I | M] with M G = det I, so
    M = adj(G).
    """
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots = [1]
    for k in range(n):
        if a[k][k] == 0:
            lower = next((i for i in range(k + 1, n) if a[i][k]), None)
            if lower is None:
                pivots.append(0)
                break
            a[k], a[lower] = a[lower], [-x for x in a[k]]
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i, row in enumerate(a):
            if i != k:
                factor = row[k]
                for j in range(k + 1, 2 * n):
                    row[j] = (row[j] * pivot - factor * pivot_row[j]) // pivots[-1]
        pivots.append(pivot)
    return pivots, a


def _smith_diagonal(rows: Sequence[Sequence[int]]) -> list[int]:
    """The invariant factors d_1 | d_2 | ... of a nonsingular integer matrix."""
    a = [list(row) for row in rows]
    n = len(a)
    for t in range(n):
        # Move a smallest nonzero entry of the remaining block to (t, t) and
        # reduce row t and column t by it, until both are clear.
        while any(a[i][t] for i in range(t + 1, n)) or any(a[t][t + 1 :]):
            block = range(t, n)
            _, r, c = min((abs(a[i][j]), i, j) for i in block for j in block if a[i][j])
            a[t], a[r] = a[r], a[t]
            for row in a:
                row[t], row[c] = row[c], row[t]
            for i in range(t + 1, n):
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                for row in a:
                    row[j] -= q * row[t]
    # The diagonal presents the same group; Z/a + Z/b = Z/gcd + Z/lcm orders it.
    diagonal = [abs(a[t][t]) for t in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            diagonal[i], diagonal[j] = gcd(diagonal[i], diagonal[j]), lcm(diagonal[i], diagonal[j])
    return diagonal


@dataclass(frozen=True)
class QuadraticForm:
    """A symmetric integral bilinear form with exact derived data."""

    gram: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "QuadraticForm":
        return QuadraticForm(_validated_rows(rows))

    @property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def _elimination(self) -> tuple[list[int], list[list[int]]]:
        return _gauss_jordan(self.gram)

    @cached_property
    def _cokernel(self) -> "CokernelStructure":
        return _build_cokernel(self)

    @cached_property
    def _box(self) -> list[range]:
        return _build_box(self)

    @cached_property
    def det(self) -> int:
        return self._elimination[0][-1]

    @cached_property
    def adjugate(self) -> tuple[tuple[int, ...], ...]:
        """adj(G) = det(G) G^{-1}: the right block of the one elimination.

        A singular form is refused; no stage of the pipeline reads its
        adjugate.
        """
        if self.det == 0:
            raise SingularFormError("form is singular")
        return tuple(tuple(row[self.dim :]) for row in self._elimination[1])

    @cached_property
    def inverse_numerator(self) -> tuple[tuple[int, ...], ...]:
        """Integer matrix N with G^{-1} = N / |det G|."""
        if self.det > 0:
            return self.adjugate
        return tuple(tuple(-entry for entry in row) for row in self.adjugate)

    @cached_property
    def is_negative_definite(self) -> bool:
        """Sylvester's criterion: the k-th leading minor has sign (-1)^k.

        Until the first row swap the pivots are the leading minors, and a
        swap puts two ratios p_(j+1) / p_j of opposite signs among them, so
        the pivot signs alone decide.  Say the first swap, at step k, brings
        up row l.  The Schur complement S of the leading k-block is
        symmetric with S_i0 = 0 for 0 <= i < l - k, and row k holds
        p_k S_(0, c-k) in each column c >= k.  Moved to position l, it is 0
        in the columns k..l-1 and -p_k b in column l, b = S_(l-k, 0) =
        p_(k+1) / p_k; it is only rescaled, by p_l / p_k, until step l, whose
        pivot it gives: p_(l+1) / p_l = -p_(k+1) / p_k.
        """
        pivots = self._elimination[0]
        return all((-1) ** k * p > 0 for k, p in enumerate(pivots[1:], 1))

    def pairing_numerator(self, v: Sequence[int]) -> int:
        """Integer n with v^t G^{-1} v = n / |det G|."""
        self._check_dim(v)
        num = self.inverse_numerator
        rng = range(self.dim)
        return sum(v[i] * num[i][j] * v[j] for i in rng for j in rng)

    def _check_dim(self, v: Sequence[int]) -> None:
        if len(v) != self.dim:
            raise ValidationError(f"vector length {len(v)} does not match dimension {self.dim}")


# The most points the characteristic box may have.  The box has
# prod(|G_ii| + 1) points and the class walk is linear in that (it seeds
# from the reduced box but walks in the full one); the coset maxima scan
# the prod |G_ii| points of the reduced box.  On the 8-dimensional chain
# form with diagonal -5 (seven times) and -6, whose box has 1.96e6 points,
# class_count takes 1.1 to 1.6 s and correction_vector 0.3 to 0.4 s of CPU
# on one pinned core of a 2-vCPU machine (CPython 3.11.7), with a 73 MB
# peak.  A larger box is refused up front instead of running for hours: a
# 6 x 6 form with diagonal -41 has 5.5e9 points.
BOX_BUDGET = 2_000_000

# A negative-definite form has every G_ii <= -1, so its box has at least
# 2^dim points: above this dimension the budget refuses every such form.
MAX_DIM = BOX_BUDGET.bit_length() - 1


def check_box_budget(form: QuadraticForm) -> None:
    """Refuse, from the Gram entries alone, a form whose box is above the budget.

    Nothing here runs the elimination, so the refusal costs time linear in
    the input.  A form of dimension above MAX_DIM is refused outright.  A
    form whose diagonal is negative is refused when its box of
    prod(1 - G_ii) points is above BOX_BUDGET.  A form with a diagonal entry
    >= 0 is not negative-definite; its refusal is left to the checks that
    follow the elimination.
    """
    if form.dim > MAX_DIM:
        raise ValidationError(
            f"form has dimension {form.dim}; above dimension {MAX_DIM} no characteristic "
            f"box fits the budget of {BOX_BUDGET}"
        )
    diag = [form.gram[i][i] for i in range(form.dim)]
    if all(d < 0 for d in diag):
        size = prod(1 - d for d in diag)
        if size > BOX_BUDGET:
            raise ValidationError(
                f"characteristic box has {count_text(size)} points, above the budget of "
                f"{BOX_BUDGET}"
            )


def characteristic_box(form: QuadraticForm) -> list[range]:
    """The coordinate ranges of the box of characteristic candidates.

    These are the integer covectors x with x_i = G_ii (mod 2) and
    |x_i| <= |G_ii|; any characteristic covector outside this box has an
    equivalent one of larger squared length.  Requires a box of at most
    BOX_BUDGET points (:func:`check_box_budget`) and a negative-definite
    form, which in particular forces every diagonal entry to be nonzero.
    The form keeps its box, so asking again checks nothing.
    """
    return form._box


def _build_box(form: QuadraticForm) -> list[range]:
    check_box_budget(form)
    if not form.is_negative_definite:
        raise ValidationError("candidate enumeration requires a negative-definite form")
    return [range(d, -d + 1, 2) for d in (form.gram[i][i] for i in range(form.dim))]


@dataclass
class CokernelStructure:
    """The finite group V*/q(V) together with a coset labelling.

    Labels are tuples (N v mod |det|) where N is the integer numerator of
    G^{-1}; two covectors get the same label exactly when their difference
    is in the image of q.  Labels add componentwise mod |det|, so the label
    map is a group homomorphism.  The structure keeps N, not the form, so
    that the form can keep its cokernel without a reference cycle.
    """

    inverse_numerator: tuple[tuple[int, ...], ...]
    invariant_factors: tuple[int, ...]
    order: int
    is_cyclic: bool
    generator: Optional[Vector]

    @property
    def dim(self) -> int:
        return len(self.inverse_numerator)

    @property
    def coordinate_labels(self) -> list[Vector]:
        """The label of each coordinate covector e_i: column i of N mod |det|,
        which is row i, as N is symmetric."""
        return [tuple([x % self.order for x in row]) for row in self.inverse_numerator]

    def to_coset(self, v: Sequence[int]) -> Vector:
        num = self.inverse_numerator
        rng = range(self.dim)
        return tuple(sum(num[i][j] * v[j] for j in rng) % self.order for i in rng)

    def add(self, a: Vector, b: Vector) -> Vector:
        return tuple((x + y) % self.order for x, y in zip(a, b))

    @property
    def zero_label(self) -> Vector:
        return (0,) * self.dim

    def element_order(self, label: Vector) -> int:
        return self.order // gcd(self.order, *label)

    def elements(self) -> dict[Vector, Vector]:
        """All coset labels, each with a small representative covector."""
        basis_labels = self.coordinate_labels
        reps: dict[Vector, Vector] = {self.zero_label: (0,) * self.dim}
        frontier = [self.zero_label]
        while frontier:
            new_frontier = []
            for label in frontier:
                rep = reps[label]
                for i, blabel in enumerate(basis_labels):
                    nxt = self.add(label, blabel)
                    if nxt not in reps:
                        vec = list(rep)
                        vec[i] = (vec[i] + 1) % self.order
                        reps[nxt] = tuple(vec)
                        new_frontier.append(nxt)
            frontier = new_frontier
        if len(reps) != self.order:
            raise AssertionError(
                f"coset enumeration found {len(reps)} classes, expected {self.order}"
            )
        return reps


def cokernel(form: QuadraticForm) -> CokernelStructure:
    """Invariant factors and coset labelling of coker(q: V -> V*), built once per form."""
    return form._cokernel


def _build_cokernel(form: QuadraticForm) -> CokernelStructure:
    if form.dim == 0:
        return CokernelStructure((), (), 1, True, generator=())
    if form.det == 0:
        raise SingularFormError("cokernel requires a nonsingular form")
    order = abs(form.det)
    is_cyclic = gcd(*(entry for row in form.adjugate for entry in row)) == 1
    factors = [order] if is_cyclic else _smith_diagonal(form.gram)
    nontrivial = tuple(d for d in factors if d != 1)
    if prod(nontrivial) != order:
        raise AssertionError("invariant factor product disagrees with |det|")
    structure = CokernelStructure(
        form.inverse_numerator, nontrivial, order, is_cyclic, generator=None
    )
    if is_cyclic:
        structure.generator = _choose_generator(structure)
    return structure


def _choose_generator(structure: CokernelStructure) -> Vector:
    """Pick a deterministic covector whose coset generates a cyclic cokernel.

    Preference goes to the coordinate covector with the smallest label that
    generates; when no single coordinate covector generates (the cokernel
    can be cyclic without that), fall back to the smallest-label generating
    element of the whole group.
    """
    order = structure.order
    dim = structure.dim
    if order == 1:
        return (0,) * dim
    basis = sorted(
        (label, tuple(int(j == i) for j in range(dim)))
        for i, label in enumerate(structure.coordinate_labels)
    )
    for label, vec in basis:
        if structure.element_order(label) == order:
            return vec
    for label, rep in sorted(structure.elements().items()):
        if structure.element_order(label) == order:
            return rep
    raise NonCyclicCokernelError(structure.invariant_factors)
