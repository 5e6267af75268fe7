"""Small lattice helpers that only the tests use.

They are plain reimplementations kept outside the package: the points of
the characteristic box, the map q(v) = G v, the value Q(v, v), and the
closed form of B_0.
"""

from fractions import Fraction
from itertools import product

from unknotone.lattice import characteristic_box


def characteristic_candidates(form):
    """The points of ``characteristic_box``, in ``itertools.product`` order."""
    return list(product(*characteristic_box(form)))


def q_map(form, v):
    """The covector q(v) = G v."""
    return tuple(sum(g * a for g, a in zip(row, v)) for row in form.gram)


def evaluate(form, v):
    """Q(v, v) for a lattice vector v."""
    return sum(a * b for a, b in zip(v, q_map(form, v)))


def spin_reference_value(D):
    """B_0 as a closed form: 0 when n = (D+1)/2 is odd, 1/2 when n is even."""
    n = (D + 1) // 2
    return Fraction(0) if n % 2 == 1 else Fraction(1, 2)
