"""The whole correction vector of rational plumbing forests against Nemethi's oracle.

``oracles.nemethi_corrections`` pushes each coset along the generalized
Laufer sequence and never meets the characteristic box, the scan's index
weights or the class count: it shares no code with ``corrections`` or
``plumbing``, and takes only the generator that the scan listed A against.
"""

import random
from math import prod

import pytest

from helpers import block_sum, flipped, reference_negative_definite, star
from oracles import forest_signs, laufer_rational, nemethi_corrections
from unknotone.catalog import builtin_dataset
from unknotone.corrections import correction_vector
from unknotone.lattice import QuadraticForm, cokernel


def tree(rng, centre, legs):
    """The star of a centre of weight -centre and legs of weights -w, a chain when it has
    two legs or fewer: seeded vertex flips give its edges seeded signs, and its vertices
    come in a seeded order."""
    rows = star(-centre, [[-w for w in leg] for leg in legs])
    rows = flipped(rows, [rng.choice((1, -1)) for _ in rows])
    order = rng.sample(range(len(rows)), len(rows))
    return [[rows[i][j] for j in order] for i in order]


def seeded_forests(count, seed):
    """(rows, trees) for rational forests with odd D and a cyclic cokernel.

    A tree is a star with 1-4 legs of 1-3 vertices, legs of weight -2 to -5
    and a centre of -1 to -4, or a chain of 1-6 vertices of weight -1 to -5;
    half the draws are the block sum of two trees.  Boxes stay at 4,000
    points or fewer and D at 400 or less.  Definiteness, which the Laufer
    oracle needs, is decided by Sylvester's criterion, not by the package.
    """
    rng = random.Random(seed)

    def draw():
        if rng.random() < 0.5:
            legs = [[rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
                    for _ in range(rng.randint(1, 4))]
            return tree(rng, rng.randint(1, 4), legs)
        weights = [rng.randint(1, 5) for _ in range(rng.randint(1, 6))]
        return tree(rng, weights[0], [weights[1:]])

    made = 0
    while made < count:
        trees = rng.choice((1, 2))
        rows = draw() if trees == 1 else block_sum(draw(), draw())
        if prod(-rows[i][i] for i in range(len(rows))) > 4000:
            continue
        if not reference_negative_definite(rows) or not laufer_rational(rows):
            continue
        form = QuadraticForm.from_rows(rows)
        if abs(form.det) > 400 or abs(form.det) % 2 == 0 or len(cokernel(form)) > 1:
            continue
        made += 1
        yield rows, trees


def test_seeded_rational_forests_match_the_generalized_laufer_sequence():
    forests = list(seeded_forests(240, seed=35))
    for rows, _ in forests:
        A = correction_vector(QuadraticForm.from_rows(rows))
        assert nemethi_corrections(rows, A.generator) == A.numerators, rows
    # the draw covers sums of two trees and trees whose edges have both signs
    assert sum(trees == 2 for _, trees in forests) >= 20
    assert sum({-1, 1} <= {x for row in rows for x in row} for rows, _ in forests) >= 100


def test_bundled_plumbing_forests_match_the_generalized_laufer_sequence():
    forests = [record for record in builtin_dataset() if forest_signs(record.form.gram) is not None]
    assert len(forests) == 22
    for record in forests:
        A = correction_vector(record.form)
        assert nemethi_corrections(record.form.gram, A.generator) == A.numerators, record.name


def test_the_oracle_on_small_forests():
    # the trefoil's [-3]: A_0 = -1/2 and A_1 = A_2 = 1/6, over 4D = 12
    assert nemethi_corrections([[-3]], (1,)) == (-6, 2, 2)
    # the -1 sphere, a chain and the chain -3, -1, -3 are rational
    assert laufer_rational([[-1]])
    assert laufer_rational([[-2, 1], [1, -2]])
    assert laufer_rational([[-1, 1, 1], [1, -3, 0], [1, 0, -3]])
    # the star with a -1 centre and legs -3, -3, -4 is not rational, and each
    # tree of a forest is checked on its own
    bad = [[-1, 1, 1, 1], [1, -3, 0, 0], [1, 0, -3, 0], [1, 0, 0, -4]]
    assert not laufer_rational(block_sum([[-3]], bad))
    assert laufer_rational(block_sum([[-3]], [[-5]]))
    # a triangle is no forest
    assert forest_signs([[-3, 1, 1], [1, -3, 1], [1, 1, -3]]) is None
    for rows in (bad, [[-3, 1, 1], [1, -3, 1], [1, 1, -3]], [[-3, 2], [2, -3]]):
        with pytest.raises(ValueError):
            nemethi_corrections(rows, (1,) + (0,) * (len(rows) - 1))
    # the chain -1, -1, -1 has det 1: not negative definite, and its sequence never ends
    with pytest.raises(ValueError, match="not negative definite"):
        laufer_rational([[-1, 1, 0], [1, -1, 1], [0, 1, -1]])
