"""Small lattice helpers that only the tests use.

They are plain reimplementations kept outside the package: the points of
the characteristic box, the places of a box whose coordinates lie in
given intervals, the map q(v) = G v, the value Q(v, v), the pairing v^t N v and the coset label
N v mod |det| with N = |det| G^{-1}, the unit that reindexes A to another
generating covector, the closed form of B_0, the model vector B built one
pairing at a time, the numerators of a matching's ``Fraction`` entries, a
matching's representative pair and four filters read off those entries,
a matching's torsion read class by class through the residues of B, the
adjugate from cofactors over ``Fraction`` elimination, and invariant
factors from a Smith reduction over the integers, unbounded.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from types import SimpleNamespace

from unknotone.gamma import kappa_list, model_form
from unknotone.lattice import cokernel_generator
from unknotone.matching import Matching, quarter_point


def characteristic_candidates(form):
    """The points x_i = G_ii, G_ii + 2, ..., -G_ii of the characteristic box, in
    ``itertools.product`` order."""
    return list(product(*(range(row[i], 1 - row[i], 2) for i, row in enumerate(form.gram))))


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


def reference_gamma_vector(D):
    """B for odd D >= 3, one ``pairing`` and one ``Fraction`` per kappa."""
    n = (D + 1) // 2
    form = model_form(D)
    kappas = tuple(kappa_list(n))
    values = tuple(Fraction(pairing(form, k) + 2 * D, 4 * D) for k in kappas)
    v_index = tuple(kappa[0] % (2 * n) for kappa in kappas)
    counts = Counter(v_index)
    (single,) = [i for i, residue in enumerate(v_index) if counts[residue] == 1]
    return SimpleNamespace(
        D=D, n=n, kappas=kappas, values=values, v_index=v_index, singly_attained_index=single
    )


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


def reference_torsion(matching, B):
    """The torsion of an even, positive, symmetric matching with C_0 = 0, read class by class.

    Each position restricts to the integer-surgery class ``B.v_index[i]``,
    and the two positions of a class must carry one value; the class r
    (mod 2n) folds to the torsion index j = ((r + n) // 2) mod n or n - j,
    whichever is smaller, and the classes of one index must agree on half
    the value.  Indices that no class reaches get 0; trailing zeros are
    trimmed and one 0 ends the sequence.
    """
    n, two = B.n, 8 * B.D  # 2 as a numerator over 4D
    per_class = {}
    for i, residue in enumerate(B.v_index):
        value = matching.numerators[i]
        assert per_class.setdefault(residue, value) == value, (residue, i)
    assigned = {}
    for residue, value in per_class.items():
        j = ((residue + n) // 2) % n
        half, remainder = divmod(value, two)
        assert remainder == 0, (residue, value)
        assert assigned.setdefault(min(j, n - j), half) == half, residue
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
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


def reference_adjugate(rows):
    """adj(G)[i][j] = (-1)^(i+j) det(G without row j and column i), one minor at a time."""
    rows = [list(row) for row in rows]
    n = len(rows)
    return tuple(
        tuple(
            (-1) ** (i + j) * reference_det([r[:i] + r[i + 1 :] for r in rows[:j] + rows[j + 1 :]])
            for j in range(n)
        )
        for i in range(n)
    )


def reference_smith_diagonal(rows):
    """Invariant factors d_1 | d_2 | ... of a nonsingular integer matrix, no modulus.

    A smallest nonzero entry of the remaining block moves to (t, t) and
    reduces row t and column t, until both are clear; the entries grow
    without bound on the way.
    """
    a = [list(row) for row in rows]
    n = len(a)
    for t in range(n):
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
    diagonal = [abs(a[t][t]) for t in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            diagonal[i], diagonal[j] = gcd(diagonal[i], diagonal[j]), lcm(diagonal[i], diagonal[j])
    return diagonal
