"""Small lattice helpers and the plain references that only the tests use.

They are reimplementations kept outside the package, on integers unless
a ``Fraction`` is named: the points of the characteristic box, each box
point's coset label and value from one product N x with the integer
N = |det| G^{-1}, and the largest value per label; the push classes met
from the box, walked on only inside it; the places of a box whose
coordinates lie in given intervals, the map q(v) = G v, the value
Q(v, v), the pairing v^t N v and the coset label N v mod |det|, the unit
that reindexes A to another generating covector, the model form R_D, the
closed form of B_0, the numerators of a matching's ``Fraction`` entries, a
matching's representative pair and four filters read off its ``Fraction``
entries, the fold of an integer-surgery class residue to its torsion
index, a matching's torsion read class by class through the residues of
B, det by ``Fraction`` elimination, negative definiteness by Sylvester's
criterion on the leading minors of one fraction-free elimination, and
invariant factors from the gcds of minors.

The end of the file holds what several test files share, so that no test
module imports another: the strategy of random negative-definite forms,
star and block-sum builders, the E8 form, the published vectors A and B
for determinant 27, and the CLI's inputs: the record of 8_10 and a piped
standard input.
"""

import io
import json
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod
from operator import add, mul

from hypothesis import assume, strategies as st

from unknotone.lattice import QuadraticForm, cokernel_generator
from unknotone.matching import Matching, quarter_point


def characteristic_candidates(form):
    """The points x_i = G_ii, G_ii + 2, ..., -G_ii of the characteristic box, in
    ``itertools.product`` order."""
    return list(product(*(range(row[i], 1 - row[i], 2) for i, row in enumerate(form.gram))))


def box_values(form):
    """({x: (label, value)} over the characteristic box, {label: largest value}).

    The label of x is N x mod |det| and its value x^t N x, both read off
    one integer product N x.
    """
    D = abs(form.det)
    points, best = {}, {}
    for x in characteristic_candidates(form):
        Nx = [sum(map(mul, row, x)) for row in form.inverse_numerator]
        label, value = tuple(n % D for n in Nx), sum(map(mul, x, Nx))
        points[x] = label, value
        if best.get(label, value) <= value:
            best[label] = value
    return points, best


def push_classes(rows):
    """Each push class met from the characteristic box: (members, inside).

    A covector with x_i = -G_ii moves by 2 G e_i, one with x_i = G_ii by
    -2 G e_i, and each move undoes the other.  The walk goes on only from
    points of the box |x_i| <= -G_ii: a move that leaves it adds the point it
    reaches and marks the class as not inside.  So a class inside the box
    comes out whole, and one that leaves may come out in several pieces,
    each holding a point outside the box and marked not inside.
    """
    dim = len(rows)
    bound = [-rows[i][i] for i in range(dim)]
    cols = [tuple(2 * rows[j][i] for j in range(dim)) for i in range(dim)]
    moves = [(b, col, tuple(-c for c in col)) for b, col in zip(bound, cols)]
    visited = set()
    for seed in product(*(range(-b, b + 1, 2) for b in bound)):
        if seed in visited:
            continue
        stack, members, inside = [seed], {seed}, True
        while stack:
            vec = stack.pop()
            for x, (b, col, back) in zip(vec, moves):
                if x == b:
                    nxt = tuple(map(add, vec, col))
                elif x == -b:
                    nxt = tuple(map(add, vec, back))
                else:
                    continue
                if nxt not in members:
                    members.add(nxt)
                    if all(abs(y) <= c for y, c in zip(nxt, bound)):
                        stack.append(nxt)
                    else:
                        inside = False
        visited |= members
        yield members, inside


def box_places(sizes, intervals):
    """The places, last coordinate fastest, of the points of a box of ``sizes`` whose
    coordinate j lies in intervals[j] = (lo, hi), enumerated as a product."""
    strides = [prod(sizes[j + 1 :]) for j in range(len(sizes))]
    axes = [range(max(lo, 0), min(hi, size - 1) + 1) for (lo, hi), size in zip(intervals, sizes)]
    return {sum(x * s for x, s in zip(point, strides)) for point in product(*axes)}


def q_map(form, v):
    """The covector q(v) = G v."""
    return tuple(sum(g * a for g, a in zip(row, v)) for row in form.gram)


def evaluate(form, v):
    """Q(v, v) for a lattice vector v."""
    return sum(a * b for a, b in zip(v, q_map(form, v)))


def pairing(form, v):
    """The integer v^t N v, so that v^t G^{-1} v = pairing(form, v) / |det|."""
    return sum(a * sum(n * b for n, b in zip(row, v)) for a, row in zip(v, form.inverse_numerator))


def coset_label(form, v):
    """N v mod |det|: two covectors get one label exactly when they differ by some q(u)."""
    D = abs(form.det)
    return tuple(sum(n * a for n, a in zip(row, v)) % D for row in form.inverse_numerator)


def unit_of_covector(form, covector):
    """The unit u of Z/D with [covector] = u [g], g the generator the scan picks.

    ``correction_vector(form).reindexed(u)`` lists A against ``covector``.
    Found by trying every unit; the covector must generate the cokernel.
    """
    D = abs(form.det)
    step = coset_label(form, cokernel_generator(form))
    target = coset_label(form, covector)
    (unit,) = [
        u for u in range(D) if gcd(u, D) == 1 and tuple(u * x % D for x in step) == target
    ]
    return unit


def spin_reference_value(D):
    """B_0 as a closed form: 0 when n = (D+1)/2 is odd, 1/2 when n is even."""
    n = (D + 1) // 2
    return Fraction(0) if n % 2 == 1 else Fraction(1, 2)


def model_form(D):
    """The model form R_D = [[-n, 1], [1, -2]] of ``unknotone.gamma``, for odd D = 2n - 1."""
    n = (D + 1) // 2
    return QuadraticForm.from_rows([[-n, 1], [1, -2]])


def numerators_over_4d(D, values):
    """The integers n_i with values[i] = n_i / 4D; each value must be such a quotient."""
    scaled = [Fraction(v) * 4 * D for v in values]
    assert all(s.denominator == 1 for s in scaled), values
    return tuple(s.numerator for s in scaled)


DERIVED = ("unit", "epsilon", "even", "positive", "symmetric", "staircase")


def derived(m):
    """The properties of the matching ``m`` that no ``==`` reads, by name."""
    return {name: getattr(m, name) for name in DERIVED}


def reference_derived(C, provenance):
    """``derived`` for the ``Fraction`` vector C, read off the definitions.

    The representative pair is the one with epsilon = +1 before -1 and the
    smallest unit; the four filters read every entry of C.
    """
    D = len(C)
    k = quarter_point(D)
    sym_range = range(1, k) if D % 4 == 3 else range(0, k)
    unit, epsilon = min(provenance, key=lambda pair: (-pair[1], pair[0]))
    return {
        "unit": unit,
        "epsilon": epsilon,
        "even": all(v.denominator == 1 and v.numerator % 2 == 0 for v in C),
        "positive": all(v >= 0 for v in C),
        "symmetric": all(C[i] == C[(2 * k - i) % D] for i in sym_range),
        "staircase": all(C[i] <= C[i + 1] <= C[i] + 2 for i in range(1, k)),
    }


def classified(C, provenance=((1, 1),)):
    """The matching of the ``Fraction`` vector C, checked against ``reference_derived``."""
    m = Matching(numerators_over_4d(len(C), C), provenance)
    assert derived(m) == reference_derived(C, provenance)
    return m


def fold_residue(residue, n):
    """The torsion index 0..n//2 of an integer-surgery class residue mod 2n."""
    j = ((residue + n) // 2) % n
    return min(j, n - j)


def reference_torsion(matching, B):
    """The torsion of an even, positive, symmetric matching with C_0 = 0, read class by class.

    Each position restricts to the integer-surgery class ``B.v_index[i]``,
    and the two positions of a class must carry one value; the class r
    (mod 2n) folds to the torsion index ``fold_residue(r, n)``, and the
    classes of one index must agree on half the value.  Indices that no
    class reaches get 0; trailing zeros are trimmed and one 0 ends the
    sequence.
    """
    n, two = B.n, 8 * B.D  # 2 as a numerator over 4D
    per_class = {}
    for i, residue in enumerate(B.v_index):
        value = matching.numerators[i]
        assert per_class.setdefault(residue, value) == value, (residue, i)
    assigned = {}
    for residue, value in per_class.items():
        half, remainder = divmod(value, two)
        assert remainder == 0, (residue, value)
        assert assigned.setdefault(fold_residue(residue, n), half) == half, residue
    torsion = [assigned.get(i, 0) for i in range(n // 2 + 1)]
    while torsion and torsion[-1] == 0:
        torsion.pop()
    return (*torsion, 0)


def reference_det(rows):
    """det by Gaussian elimination over ``Fraction``s."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for row in a[k + 1 :]:
            if row[k]:
                f = row[k] / a[k][k]
                row[k:] = [x - f * y for x, y in zip(row[k:], a[k][k:])]
    return int(det)


def reference_negative_definite(rows):
    """Sylvester's criterion, the k-th leading minor of sign (-1)^k for every k, on the
    minors that Bareiss elimination without row exchanges leaves on the diagonal."""
    a = [list(row) for row in rows]
    previous, sign = 1, -1
    for k, pivot_row in enumerate(a):
        pivot = pivot_row[k]
        if sign * pivot <= 0:
            return False
        for row in a[k + 1 :]:
            row[k:] = [(x * pivot - row[k] * y) // previous for x, y in zip(row[k:], pivot_row[k:])]
        previous, sign = pivot, -sign
    return True


def reference_invariant_factors(rows):
    """Invariant factors d_1 | d_2 | ... | d_n of a nonsingular integer matrix, from minors.

    The k-th determinantal divisor D_k, the gcd of the k x k minors, is
    d_1 ... d_k, so d_k = D_k / D_(k-1).  Each k x k minor is expanded along
    its first row into (k-1) x (k-1) minors of the layer before.
    """
    n = len(rows)
    previous, divisors = {((), ()): 1}, [1]
    for k in range(1, n + 1):
        layer = {
            (r, c): sum(
                (-1) ** j * rows[r[0]][col] * previous[r[1:], c[:j] + c[j + 1 :]]
                for j, col in enumerate(c)
            )
            for r in combinations(range(n), k)
            for c in combinations(range(n), k)
        }
        divisors.append(gcd(*layer.values()))
        previous = layer
    return [b // a for a, b in zip(divisors, divisors[1:])]


# --- shared by several test files -------------------------------------------
# random negative-definite forms: D0 = diag(-d_i) conjugated by small
# unimodular shears, keeping the determinant (hence all invariants) under control


@st.composite
def negative_definite_forms(draw, max_dim=4, max_abs_det=60):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    while True:
        diag = draw(
            st.lists(st.integers(min_value=1, max_value=7), min_size=dim, max_size=dim)
        )
        det = prod(diag)
        if det % 2 == 1 and det <= max_abs_det:
            break
    rows = [[(-diag[i] if i == j else 0) for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=dim - 1))
        j = draw(st.integers(min_value=0, max_value=dim - 1))
        if i == j:
            continue
        c = draw(st.sampled_from([-1, 1]))
        # row/column shear: G <- U^T G U with U = I + c E_{ij}
        for k in range(dim):
            rows[j][k] += c * rows[i][k]
        for k in range(dim):
            rows[k][j] += c * rows[k][i]
    assume(reference_negative_definite(rows))
    return QuadraticForm.from_rows(rows)


def cyclic_odd(form):
    """Whether the cokernel is cyclic of odd order at least 3, read off the references."""
    D = abs(reference_det(form.gram))
    if D % 2 == 0 or D < 3:
        return False
    return all(d == 1 for d in reference_invariant_factors(form.gram)[:-1])


def flipped(rows, signs):
    """S G S for S = diag(signs): the same form in the basis with e_i -> -e_i where s_i = -1."""
    return [[s * t * g for t, g in zip(signs, row)] for s, row in zip(signs, rows)]


def star(centre, legs):
    """A star with the given centre weight and legs of diagonal weights, edges +1."""
    weights = [centre] + [w for leg in legs for w in leg]
    rows = [[weights[i] if i == j else 0 for j in range(len(weights))] for i in range(len(weights))]
    at = 1
    for leg in legs:
        previous = 0
        for _ in leg:
            rows[previous][at] = rows[at][previous] = 1
            previous, at = at, at + 1
    return rows


def block_sum(first, second):
    """The orthogonal sum of two forms, ``first`` on the leading coordinates."""
    n, m = len(first), len(second)
    return [row + [0] * m for row in first] + [[0] * n + row for row in second]


# the E8 tree: chain of seven -2 vertices with an eighth hanging off the
# fifth; the unique unimodular negative-definite form of rank eight
E8 = [
    [-2, 1, 0, 0, 0, 0, 0, 0],
    [1, -2, 1, 0, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0, 0],
    [0, 0, 1, -2, 1, 0, 0, 0],
    [0, 0, 0, 1, -2, 1, 0, 1],
    [0, 0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 0, 1, -2, 0],
    [0, 0, 0, 0, 1, 0, 0, -2],
]

# the published correction terms of the double cover of 8_10, in the
# published generator's order
A27_PUBLISHED = [
    Fraction(-1, 2), Fraction(25, 54), Fraction(-35, 54), Fraction(1, 6),
    Fraction(-59, 54), Fraction(-23, 54), Fraction(1, 6), Fraction(37, 54),
    Fraction(-47, 54), Fraction(-1, 2), Fraction(-11, 54), Fraction(1, 54),
    Fraction(1, 6), Fraction(13, 54), Fraction(13, 54), Fraction(1, 6),
    Fraction(1, 54), Fraction(-11, 54), Fraction(-1, 2), Fraction(-47, 54),
    Fraction(37, 54), Fraction(1, 6), Fraction(-23, 54), Fraction(-59, 54),
    Fraction(1, 6), Fraction(-35, 54), Fraction(25, 54),
]

# the full published comparison vector for determinant 27
B27 = [
    Fraction(1, 2), Fraction(23, 54), Fraction(11, 54), Fraction(-1, 6),
    Fraction(-37, 54), Fraction(-73, 54), Fraction(-13, 6), Fraction(-169, 54),
    Fraction(-121, 54), Fraction(-3, 2), Fraction(-49, 54), Fraction(-25, 54),
    Fraction(-1, 6), Fraction(-1, 54), Fraction(-1, 54), Fraction(-1, 6),
    Fraction(-25, 54), Fraction(-49, 54), Fraction(-3, 2), Fraction(-121, 54),
    Fraction(-169, 54), Fraction(-13, 6), Fraction(-73, 54), Fraction(-37, 54),
    Fraction(-1, 6), Fraction(11, 54), Fraction(23, 54),
]


# --- CLI inputs --------------------------------------------------------------

EIGHT_TEN_JSON = json.dumps(
    [{"name": "8_10", "goeritz": [[-4, 1, 1], [1, -2, 1], [1, 1, -5]], "determinant": 27}]
)


def piped(data, errors="strict"):
    """A standard input that holds ``data`` (text is encoded as UTF-8), as a pipe gives it."""
    raw = data.encode("utf-8") if isinstance(data, str) else data
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors=errors)
