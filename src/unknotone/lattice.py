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
Smith normal form, mod that gcd, is computed only for the invariant
factors of a non-cyclic cokernel.  Each form keeps its invariant factors
and the outcome of its Gram-entry checks beside the elimination, each as
one cached property, so every stage that asks shares them.  A generator
of a cyclic cokernel is no part of them: only the box scan picks one
(:func:`cokernel_generator`), after every refusal, as the index of its
correction terms.  :func:`prime_factors` is the one factoring of D.

The characteristic box is G_ii <= x_i <= -G_ii with x_i = G_ii (mod 2):
the diagonal alone gives it, so no object holds it.  The correction terms
scan the reduced box G_ii + 2 <= x_i <= -G_ii inside it, and the class
count closes sets of points of the full box, held as bitsets.  A box of
more than BOX_BUDGET points is refused with a ValidationError before
anything is scanned, and before the elimination: its size reads only the
diagonal.  So are a diagonal entry >= 0 and an off-diagonal entry that no
negative-definite form has (:func:`check_gram_entries`, once per form).
A form that passes has every integer of its elimination below 2^221, so
the one box budget bounds all the work.

Values over 4D.  A form of determinant D has its pairings v^t G^{-1} v in
(1/D) Z, so the correction terms (v^t G^{-1} v + m) / 4 lie in (1/4D) Z,
and so do the model vector and every matching built from the two.
:class:`RationalVector` holds such a vector as its integer numerators over
4D; A, B and the matchings all derive from it, and every stage imports
this module, so the one renderer :func:`rational_texts` lives here too.

Value types.  Forms, vectors, matchings, verdicts and reports derive
from :class:`Value`.  A subclass lists its fields as annotations,
never evaluated, with any default as the class attribute; the constructor
takes them in that order, by position or keyword, then runs ``_validate``.
Instances compare and hash by their fields, and assignment raises; a
``cached_property`` still fills the instance ``__dict__``.  A field is an
input that the type cannot derive; everything that follows from the
fields (a vector's D, a matching's filter flags, a class count's verdict)
is a property, so no value can contradict itself.  A fact that every value
of a type shares is checked once, by that type: every vector over Z/D
(A, B and every matching C) has A_i = A_(D-i), which
:class:`RationalVector` refuses to break, so each stage reads only the
entries i <= D/2.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm, prod
from operator import attrgetter, mul
from typing import TYPE_CHECKING, Sequence

from .errors import SingularFormError, ValidationError, count_text

if TYPE_CHECKING:
    from fractions import Fraction

Vector = tuple[int, ...]


class Value:
    """An immutable record whose fields are its class's annotations (module docstring)."""

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = [name for name in vars(cls).get("__annotations__", {}) if name not in cls._fields]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        cls._names, cls._key = frozenset(cls._fields), attrgetter(*cls._fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        count = len(args) + len(kwargs)
        kwargs.update(zip(self._fields, args))
        self.__dict__.update(self._defaults, **kwargs)
        # fewer given than passed: too many positional, or one repeated by keyword
        if len(kwargs) != count or self.__dict__.keys() != self._names:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        self._validate()

    def _validate(self) -> None:
        """Refuse invalid field values; run once, at construction."""

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._key(self) == self._key(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    __delattr__ = __setattr__


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


class RationalVector(Value):
    """The rationals numerators[i] / 4D, kept as their integer numerators.

    A vector over 4D has one entry per element of Z/D, so D is its length,
    and it is symmetric under i -> -i: A_i = A_(D-i) for every i, checked
    once here, with a raised error that also holds under python -O.  The
    pipeline reads ``numerators`` and output renders them with
    :meth:`texts`; ``values`` is the one ``Fraction`` view, which only the
    tests and the benchmark read.
    """

    numerators: tuple[int, ...]

    def _validate(self) -> None:
        if self.numerators[1:] != self.numerators[:0:-1]:
            raise ValidationError(f"a vector over Z/{self.D} must have A_i = A_(D-i)")

    @property
    def D(self) -> int:
        return len(self.numerators)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The entries as ``Fraction``s, one object per distinct numerator."""
        from fractions import Fraction

        denominator = 4 * self.D
        fraction = {n: Fraction(n, denominator) for n in set(self.numerators)}
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


def _gauss_jordan(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]], bool]:
    """Fraction-free Gauss-Jordan elimination on [G | I]: pivots, rows, and whether it swapped.

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
    pivots, swapped = [1], False
    for k in range(n):
        if a[k][k] == 0:
            lower = next((i for i in range(k + 1, n) if a[i][k]), None)
            if lower is None:
                pivots.append(0)
                break
            a[k], a[lower] = a[lower], [-x for x in a[k]]
            swapped = True
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i, row in enumerate(a):
            if i != k:
                factor = row[k]
                for j in range(k + 1, 2 * n):
                    row[j] = (row[j] * pivot - factor * pivot_row[j]) // pivots[-1]
        pivots.append(pivot)
    return pivots, a, swapped


def _smith_diagonal(rows: Sequence[Sequence[int]], order: int, minors: int) -> list[int]:
    """The invariant factors d_1 | d_2 | ... | d_n of a nonsingular integer matrix G.

    ``order`` = |det G| = d_1 ... d_n, and ``minors``, the gcd of the
    entries of adj(G), is d_1 ... d_(n-1): d_n = order / minors, and every
    other d_i divides minors.  So the reduction keeps every entry mod
    minors, as in Cohen's Smith form modulo D ("A Course in Computational
    Algebraic Number Theory", Algorithm 2.4.14): a diagonal entry d then
    stands for Z/gcd(d, minors), a 0 for Z/minors.
    """
    a = [[x % minors for x in row] for row in rows]
    n = len(a)
    for t in range(n):
        # Move a smallest nonzero entry of the remaining block to (t, t) and
        # reduce row t and column t by it, until both are clear.
        while any(a[i][t] for i in range(t + 1, n)) or any(a[t][t + 1 :]):
            block = range(t, n)
            _, r, c = min((a[i][j], i, j) for i in block for j in block if a[i][j])
            a[t], a[r] = a[r], a[t]
            for row in a:
                row[t], row[c] = row[c], row[t]
            for i in range(t + 1, n):
                q = a[i][t] // a[t][t]
                a[i] = [(x - q * y) % minors for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                for row in a:
                    row[j] = (row[j] - q * row[t]) % minors
    # Z/a + Z/b = Z/gcd + Z/lcm orders the factors.
    diagonal = [gcd(a[t][t], minors) for t in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            diagonal[i], diagonal[j] = gcd(diagonal[i], diagonal[j]), lcm(diagonal[i], diagonal[j])
    diagonal[-1] = order // minors
    return diagonal


class QuadraticForm(Value):
    """A symmetric integral bilinear form with exact derived data."""

    gram: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "QuadraticForm":
        return QuadraticForm(_validated_rows(rows))

    @property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def _elimination(self) -> tuple[list[int], list[list[int]], bool]:
        return _gauss_jordan(self.gram)

    @cached_property
    def _cokernel(self) -> tuple[int, ...]:
        if self.dim == 0:
            return ()
        if self.det == 0:
            raise SingularFormError("cokernel requires a nonsingular form")
        order = abs(self.det)
        minors = gcd(*(entry for row in self.adjugate for entry in row))
        factors = [order] if minors == 1 else _smith_diagonal(self.gram, order, minors)
        nontrivial = tuple(d for d in factors if d != 1)
        if prod(nontrivial) != order:
            raise AssertionError("invariant factor product disagrees with |det|")
        return nontrivial

    @cached_property
    def _entries_checked(self) -> None:
        """Raise the first refusal of :func:`check_gram_entries`, or pass."""
        check_dimension(self.dim)
        diag = [self.gram[i][i] for i in range(self.dim)]
        for i, d in enumerate(diag):
            if d >= 0:
                raise ValidationError(
                    f"Gram entry ({i}, {i}) has G_ii >= 0; the form is not negative-definite"
                )
        size = prod(1 - d for d in diag)
        if size > BOX_BUDGET:
            raise ValidationError(
                f"characteristic box has {count_text(size)} points, above the budget of {BOX_BUDGET}"
            )
        for i, row in enumerate(self.gram):
            for j in range(i):
                if row[j] * row[j] > diag[i] * diag[j]:
                    raise ValidationError(
                        f"Gram entry ({i}, {j}) has G_ij^2 > G_ii G_jj; the form is not "
                        "negative-definite"
                    )

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
        """Sylvester's criterion on the pivots, the leading minors until a row swap.

        A negative-definite form has no zero leading minor, so it swaps no rows.
        """
        pivots, _, swapped = self._elimination
        return not swapped and all((-1) ** k * p > 0 for k, p in enumerate(pivots[1:], 1))


# The most points the characteristic box may have.  The box has
# prod(|G_ii| + 1) points; the coset maxima scan the prod |G_ii| points of
# the reduced box, and the class count closes a bitset of the full box, one
# bit per point, at a cost linear in the box per sweep.  On the
# 8-dimensional chain form with diagonal -5 (seven times) and -6, whose box
# has 1.96e6 points, class_count takes 0.024 to 0.025 s and
# correction_vector 0.23 to 0.24 s of CPU in a fresh process on one pinned
# core of a 2-vCPU Xeon (CPython 3.11.7, five runs each), and the peak
# resident size goes from 14 MB to 21 MB and 46 MB; the medians of five
# repeats that reuse one process are 0.010 s and 0.14 s.  A larger box is
# refused up front instead of running for hours: a 6 x 6 form with diagonal
# -41 has 5.5e9 points.  The generator pick runs only on the forms the scan
# accepts, whose D is at most prod |G_ii| (Hadamard), so below the budget.
# When no coordinate covector generates a cyclic cokernel, it factors D
# (prime_factors) and walks Z/D once: on diag(-1409, -1413), D = 1,990,917,
# correction_vector takes 1.2 to 1.3 s and 159 MB (pinned, on that Xeon).
BOX_BUDGET = 2_000_000

# A negative-definite form has every G_ii <= -1, so its box has at least
# 2^dim points: above this dimension the budget refuses every such form.
MAX_DIM = BOX_BUDGET.bit_length() - 1


def check_gram_entries(form: QuadraticForm) -> None:
    """Refuse, from the Gram entries alone, a box over budget or an impossible entry.

    No elimination runs here, and a form that passes keeps that, so this
    costs one product per entry once per form.  Refused, in this order: a
    dimension above MAX_DIM; a G_ii >= 0; a box of prod(1 - G_ii) points
    above BOX_BUDGET; an entry with G_ij^2 > G_ii G_jj.  No
    negative-definite form has a 1 x 1 or 2 x 2 principal minor of the
    wrong sign, and any other form is left to the checks that follow the
    elimination.

    The box budget then bounds the elimination too.  With S = sum |G_jj|,
    row i of [G | I] has squared norm at most |G_ii| S + 1 <= (|G_ii| + 1) S,
    and both S and prod(|G_ii| + 1) are at most the box size, below 2^21.
    By Hadamard's inequality every minor of [G | I], so every integer the
    elimination keeps, is below 2^(21 dim / 2 + 21 / 2) <= 2^221 in
    dimension at most MAX_DIM = 20.
    """
    form._entries_checked


def check_dimension(dim: int) -> None:
    """Refuse a dimension above MAX_DIM, before any form of it is built."""
    if dim > MAX_DIM:
        raise ValidationError(
            f"form has dimension {dim}; above dimension {MAX_DIM} no characteristic "
            f"box fits the budget of {BOX_BUDGET}"
        )


def prime_factors(n: int) -> list[int]:
    """The primes dividing n >= 1, ascending, by trial division: the one factoring of D."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def cokernel(form: QuadraticForm) -> tuple[int, ...]:
    """The nontrivial invariant factors d_1 | d_2 | ... of coker(q: V -> V*), built once per form.

    The group has order |det G|, and it is cyclic when there is at most one factor.
    """
    return form._cokernel


def cokernel_generator(form: QuadraticForm) -> Vector:
    """A deterministic covector whose coset generates a cyclic cokernel.

    N v mod D labels the coset of v, with N = D G^{-1} (symmetric) and
    D = |det G|, so row i of N labels e_i; a label generates when it has order
    D.  Preference goes to the generating coordinate covector of smallest label,
    the higher index on a tie; when none generates (a cyclic cokernel allows
    that), fall back to the smallest generating label, reached by a breadth-first
    walk over Z/D that adds e_0, e_1, ... in index order.  Only the box scan
    asks, after its refusals.
    """
    order = abs(form.det)
    if order == 1:
        return (0,) * form.dim
    labels = [tuple([x % order for x in row]) for row in form.inverse_numerator]
    generating = [(label, -i) for i, label in enumerate(labels) if gcd(order, *label) == 1]
    if generating:
        i = -min(generating)[1]
        return tuple(int(j == i) for j in range(form.dim))
    # each label is k g, g = N c: c adds D / p^a e_i per p^a || D, i first with N_ii prime to p
    c = [0] * form.dim
    for p in prime_factors(order):
        i = min(i for i, label in enumerate(labels) if label[i] % p)
        c[i] += order // gcd(order, p ** order.bit_length())
    g = [sum(map(mul, label, c)) % order for label in labels]
    inverse = pow(sum(map(mul, c, g)), -1, order)  # c generates, so c . g is a unit
    steps = [x * inverse % order for x in g]
    if any(label != tuple([k * x % order for x in g]) for k, label in zip(steps, labels)):
        raise AssertionError("a coordinate label is no multiple of the generator's label")
    # the smallest s g, s a unit, has the least first entry gcd(g_0, D); ties go to the rest
    d = gcd(g[0], order)
    ties = range(pow(g[0] // d, -1, order // d), order, order // d)
    target = min((s for s in ties if gcd(s, order) == 1), key=lambda s: [s * x % order for x in g])
    # breadth-first from 0 (marked 1): via[x] is 1 + the coordinate that first reached x
    via, queue, moves = bytearray([1]) + bytes(order - 1), [0], list(enumerate(steps, 1))
    for x in queue:
        for i, k in moves:
            if not via[y := (x + k) % order]:
                via[y] = i
                queue.append(y)
    if not via[target]:
        raise AssertionError("the walk over Z/D never reached the smallest generating label")
    covector = [0] * form.dim
    while target:
        i = via[target] - 1
        covector[i] += 1
        target = (target - steps[i]) % order
    return tuple(covector)
