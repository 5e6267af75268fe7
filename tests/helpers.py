"""Small lattice helpers that only the tests use.

They are plain reimplementations kept outside the package: the points of
the characteristic box, the map q(v) = G v, the value Q(v, v), the unit
that reindexes A to another generating covector, the closed form of B_0,
the model vector B built one pairing at a time, the numerators of a
matching's ``Fraction`` entries, the four matching filters read off those
entries, and the adjugate from cofactors over ``Fraction`` elimination.
"""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd
from types import SimpleNamespace

from unknotone.gamma import kappa_list, model_form
from unknotone.lattice import characteristic_box, cokernel
from unknotone.matching import quarter_point


def characteristic_candidates(form):
    """The points of ``characteristic_box``, in ``itertools.product`` order."""
    return list(product(*characteristic_box(form)))


def q_map(form, v):
    """The covector q(v) = G v."""
    return tuple(sum(g * a for g, a in zip(row, v)) for row in form.gram)


def evaluate(form, v):
    """Q(v, v) for a lattice vector v."""
    return sum(a * b for a, b in zip(v, q_map(form, v)))


def unit_of_covector(form, covector):
    """The unit u of Z/D with [covector] = u [g], g the generator the cokernel chose.

    ``correction_vector(form).reindexed(u)`` lists A against ``covector``.
    Found by trying every unit; the covector must generate the cokernel.
    """
    structure = cokernel(form)
    D = structure.order
    step = structure.to_coset(structure.generator)
    target = structure.to_coset(covector)
    (unit,) = [
        u for u in range(D) if gcd(u, D) == 1 and tuple(u * x % D for x in step) == target
    ]
    return unit


def spin_reference_value(D):
    """B_0 as a closed form: 0 when n = (D+1)/2 is odd, 1/2 when n is even."""
    n = (D + 1) // 2
    return Fraction(0) if n % 2 == 1 else Fraction(1, 2)


def reference_gamma_vector(D):
    """B for odd D >= 3, one ``pairing_numerator`` and one ``Fraction`` per kappa."""
    n = (D + 1) // 2
    form = model_form(D)
    kappas = tuple(kappa_list(n))
    values = tuple(Fraction(form.pairing_numerator(k) + 2 * D, 4 * D) for k in kappas)
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


def reference_classify(m):
    """The matching ``m`` with its four filter flags read off the ``Fraction`` entries."""
    D, C = m.D, m.C
    k = quarter_point(D)
    sym_range = range(1, k) if D % 4 == 3 else range(0, k)
    return replace(
        m,
        even=all(v.denominator == 1 and v.numerator % 2 == 0 for v in C),
        positive=all(v >= 0 for v in C),
        symmetric=all(C[i] == C[(2 * k - i) % D] for i in sym_range),
        staircase=all(C[i] <= C[i + 1] <= C[i] + 2 for i in range(1, k)),
    )


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
