"""The correction terms against the surgery oracles in ``oracles.py``.

The oracles share no code with the box scan or the model vector: chain
plumbings bound lens spaces, and so does every form congruent to one
(their A must equal d(-L(p, q)) with sign +1, up to reindexing), B
is the correction vector of L(D, 2), d adds under connected sum, and a
companion's torsion must reproduce A under D/2-surgery.  The two-bridge
classification gives hundreds of knots with a known answer: none with
unknotting number one may be obstructed.  The class count is checked
against Laufer's computation sequence, which shares nothing with the box:
on a plumbing tree both decide whether it bounds an L-space.  A mod 2
comes from one characteristic covector per class, with no maximum, and
decides which (unit, sign) pairs give an even matching.
"""

import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_tables as ref
from helpers import block_sum, cyclic_odd, reference_negative_definite
from oracles import (
    chain_rows,
    equal_up_to_symmetry,
    hirzebruch_jung,
    hirzebruch_jung_weights,
    laufer_rational,
    lens_vector,
    parity_numerators,
    surgery_d,
    two_bridge_signature,
    two_bridge_u1,
)
from unknotone.catalog import builtin_dataset, builtin_record, record_from_dict
from unknotone.corrections import correction_vector
from unknotone.gamma import gamma_vector
from unknotone import lattice
from unknotone.lattice import QuadraticForm
from unknotone.matching import even_matchings
from unknotone.plumbing import PlumbingForm, class_count
from unknotone.report import alexander_reports, analyze_record, sign_refined_record


def test_oracle_small_values():
    assert hirzebruch_jung([5]) == (5, 1)
    assert hirzebruch_jung([2, 2]) == (3, 2)
    assert hirzebruch_jung([2, 3, 2]) == (8, 5)
    # d(-L(p, 1), i) = (p - (2i - p)^2) / (4p)
    assert lens_vector(5, 1) == [Fraction(5 - (2 * i - 5) ** 2, 20) for i in range(5)]
    assert lens_vector(1, 0) == [0]


def test_oracle_catches_a_changed_entry():
    d = lens_vector(15, 4)
    assert equal_up_to_symmetry(d, d)
    assert equal_up_to_symmetry([-d[(3 + 7 * k) % 15] for k in range(15)], d)
    changed = list(d)
    changed[5] += 2
    changed[10] += 2
    assert not equal_up_to_symmetry(changed, d)


# The two-bridge knots through seven crossings as S(p, q), with their
# unknotting numbers and |signature|; p/q is the continued fraction of the
# Conway notation (3_1 = 3, 4_1 = 2 2, ..., 7_7 = 2 1 1 1 2).
TWO_BRIDGE_KNOTS = {
    "3_1": (3, 1, 1, 2), "4_1": (5, 2, 1, 0), "5_1": (5, 1, 2, 4), "5_2": (7, 2, 1, 2),
    "6_1": (9, 2, 1, 0), "6_2": (11, 3, 1, 2), "6_3": (13, 5, 1, 0), "7_1": (7, 1, 3, 6),
    "7_2": (11, 2, 1, 2), "7_3": (13, 3, 2, 4), "7_4": (15, 4, 2, 2), "7_5": (17, 5, 2, 4),
    "7_6": (19, 8, 1, 2), "7_7": (21, 8, 1, 0),
}


def test_two_bridge_oracle_small_knots():
    for name, (p, q, u, sigma) in TWO_BRIDGE_KNOTS.items():
        assert two_bridge_u1(p, q) == (u == 1), name
        assert abs(two_bridge_signature(p, q)) == sigma, name
        # S(p, q), S(p, q^-1) and the mirror S(p, p - q) are one knot up to mirroring
        for other in (pow(q, -1, p), p - q):
            assert two_bridge_u1(p, other) == (u == 1), name
            assert abs(two_bridge_signature(p, other)) == sigma, name
    assert hirzebruch_jung_weights(21, 8) == [3, 3, 3]
    assert all(
        hirzebruch_jung(hirzebruch_jung_weights(p, q)) == (p, q)
        for p in range(2, 40)
        for q in range(1, p)
        if gcd(p, q) == 1
    )


def two_bridge_chains(max_p, max_box):
    """(p, q, rows) for odd p <= max_p and the chain of p/q, with a box of at most max_box points."""
    for p in range(3, max_p + 1, 2):
        for q in range(1, p):
            weights = hirzebruch_jung_weights(p, q) if gcd(p, q) == 1 else None
            if weights and prod(a + 1 for a in weights) <= max_box:
                yield p, q, chain_rows(weights)


def test_two_bridge_knots_with_unknotting_number_one_are_not_obstructed():
    chains = list(two_bridge_chains(61, 5000))
    assert len(chains) == 563
    unknotted = 0
    for p, q, rows in chains:
        A = correction_vector(QuadraticForm.from_rows(rows))
        # Manolescu-Owens: 2 d(Sigma(K), s_0) = -sigma / 2 for alternating K
        assert -4 * A.values[0] == two_bridge_signature(p, q), (p, q)
        if not two_bridge_u1(p, q):
            continue
        unknotted += 1
        for strong in (False, True):
            record = record_from_dict({"name": f"S({p},{q})", "goeritz": rows})
            report = analyze_record(record, strong=strong)
            assert not report.outcome.obstructed, (p, q, strong, report.outcome)
    assert unknotted == 168


def test_two_bridge_knots_with_unknotting_number_one_pass_the_sign_refined_test():
    # the chain of p/q stored with the signature of S(p, q): one of the two
    # crossing signs must leave the knot unobstructed; with the opposite
    # signature the test must have teeth and obstruct some of them
    unknotted = obstructed_mirrored = 0
    for p, q, rows in two_bridge_chains(61, 5000):
        if not two_bridge_u1(p, q):
            continue
        unknotted += 1
        sigma = two_bridge_signature(p, q)
        for signature in (sigma, -sigma):
            entry = {"name": f"S({p},{q})", "goeritz": rows, "signature": signature}
            signed = sign_refined_record(record_from_dict(entry))
            both = (signed.negative_to_positive, signed.positive_to_negative)
            obstructed = all(v.outcome.obstructed for v in both)
            if signature == sigma:
                assert not obstructed, (p, q, [v.outcome for v in both])
            else:
                obstructed_mirrored += obstructed
    assert unknotted == 168
    assert obstructed_mirrored > 0  # 92 of the 168


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=5))
@example([2, 5001])  # the two-bridge chain [[-2, 1], [1, -5001]]: D = 10001
def test_chain_corrections_are_lens_space_d(weights):
    p, q = hirzebruch_jung(weights)
    assume(p % 2 == 1)
    A = correction_vector(QuadraticForm.from_rows(chain_rows(weights)))
    assert A.D == p
    assert equal_up_to_symmetry(A.values, lens_vector(p, q), signs=(1,))


def sheared_chains(count, seed, max_box):
    """(p, q, rows): chains of odd p in dimension 3..6, sheared and permuted.

    Each shear U = I + c E_ij (c = +-1) takes G to U^t G U, so row and
    column j gain c times row and column i; U is unimodular, so the form
    still presents L(p, q).  A shear that would grow the box past
    ``max_box`` points is skipped.  Shears between non-adjacent vertices
    fill the entries beyond the first off-diagonal, so the scan's head of
    one to four axes meets dense cross terms.
    """
    rng = random.Random(seed)
    made = 0
    while made < count:
        dim = rng.randint(3, 6)
        weights = [rng.randint(2, 4) for _ in range(dim)]
        p, q = hirzebruch_jung(weights)
        if p % 2 == 0 or prod(a + 1 for a in weights) > max_box:
            continue
        yield p, q, hidden(chain_rows(weights), rng, max_box)
        made += 1


def hidden(rows, rng, max_box):
    """``rows`` under 3 dim seeded shears U = I +- E_ij, then a seeded permutation.

    A shear that would grow the box past ``max_box`` points is skipped.
    """
    dim = len(rows)
    for _ in range(3 * dim):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((1, -1))
        sheared = [row[:] for row in rows]
        for k in range(dim):
            sheared[j][k] += c * sheared[i][k]
        for k in range(dim):
            sheared[k][j] += c * sheared[k][i]
        if prod(1 - sheared[k][k] for k in range(dim)) <= max_box:
            rows = sheared
    order = rng.sample(range(dim), dim)
    return [[rows[i][j] for j in order] for i in order]


def test_sheared_chain_corrections_are_lens_space_d():
    dense = 0
    for p, q, rows in sheared_chains(40, seed=24, max_box=20_000):
        A = correction_vector(QuadraticForm.from_rows(rows))
        assert A.D == p, rows
        assert equal_up_to_symmetry(A.values, lens_vector(p, q), signs=(1,)), rows
        dense += all(rows[i][j] for i in range(len(rows)) for j in range(i))
    # the sample must reach past the chain's tridiagonal pattern
    assert dense >= 10


def chain_pairs(count, seed, max_box):
    """(p1, q1, p2, q2): chains of odd coprime p1, p2 whose block sum has at most max_box points.

    Three fixed pairs lead, then ``count`` seeded ones.
    """
    yield from ((5, 2, 7, 3), (9, 2, 11, 3), (3, 1, 25, 7))
    rng = random.Random(seed)
    made = 0
    while made < count:
        p1, p2 = rng.randrange(3, 40, 2), rng.randrange(3, 40, 2)
        q1, q2 = rng.randrange(1, p1), rng.randrange(1, p2)
        if gcd(p1, p2) > 1 or gcd(p1, q1) > 1 or gcd(p2, q2) > 1:
            continue
        weights = hirzebruch_jung_weights(p1, q1) + hirzebruch_jung_weights(p2, q2)
        if prod(a + 1 for a in weights) <= max_box:
            yield p1, q1, p2, q2
            made += 1


def test_connected_sum_corrections_are_the_crt_sum(monkeypatch):
    # G1 + G2 bounds L(p1, q1) # L(p2, q2), and d is additive under connected
    # sum (Ozsvath-Szabo, Adv. Math. 173, 2003): with p1 and p2 coprime the
    # class i of Z/p1p2 is (i mod p1, i mod p2), so A is the CRT sum of the
    # two lens vectors; the class count reads the plumbing basis, so it is
    # checked on the plain sum, where it must certify an L-space (a sum of
    # L-spaces is one)
    fallbacks = []
    labels = lattice._coset_representatives
    monkeypatch.setattr(
        lattice, "_coset_representatives", lambda *args: fallbacks.append(1) or labels(*args)
    )
    rng = random.Random(25)
    pairs = list(chain_pairs(9, seed=25, max_box=20_000))
    for p1, q1, p2, q2 in pairs:
        L1, L2 = lens_vector(p1, q1), lens_vector(p2, q2)
        expected = [L1[i % p1] + L2[i % p2] for i in range(p1 * p2)]
        plain = block_sum(
            chain_rows(hirzebruch_jung_weights(p1, q1)), chain_rows(hirzebruch_jung_weights(p2, q2))
        )
        for rows in (plain, hidden(plain, rng, 20_000)):
            A = correction_vector(QuadraticForm.from_rows(rows))
            assert A.D == p1 * p2, rows
            assert equal_up_to_symmetry(A.values, expected), rows
        counted = class_count(PlumbingForm.from_rows(plain))
        assert counted.count == p1 * p2 and counted.is_lspace, plain
    # no coordinate covector of a plain block sum generates: each plain sum
    # takes the generator pick's fallback
    assert len(fallbacks) >= len(pairs) == 12


@pytest.mark.parametrize("D", [*range(3, 200, 2), 10001])
def test_gamma_vector_is_lens_space_d(D):
    assert equal_up_to_symmetry(gamma_vector(D).values, lens_vector(D, 2))


def seeded_forms(count, seed):
    """Distinct forms of dimension 1..4, diagonal -1..-7 and other entries -1..1, that the
    references find negative definite with odd cyclic cokernel, until ``count`` are admitted."""
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        dim = rng.randint(1, 4)
        rows = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = -rng.randint(1, 7)
            for j in range(i):
                rows[i][j] = rows[j][i] = rng.randint(-1, 1)
        key = tuple(map(tuple, rows))
        if key in seen or not reference_negative_definite(rows):
            continue
        if cyclic_odd(form := QuadraticForm.from_rows(rows)):
            seen.add(key)
            yield form


def even_pairs(b, parity, stop):
    """The pairs (u, epsilon), u a unit of Z/D, with C = -B - epsilon A even at the entries
    below ``stop``, for the numerators ``b`` of B and those of A mod 8D in ``parity``."""
    D, two = len(parity), 8 * len(parity)
    return {
        (u, epsilon)
        for u in range(1, D)
        if gcd(u, D) == 1
        for epsilon in (1, -1)
        if all((b[i] + epsilon * parity[u * i % D]) % two == 0 for i in range(stop))
    }


def test_parity_from_one_covector_per_class_decides_the_even_matchings():
    # (a) the scan's A is the oracle's parity mod 8D; on the parity, and on
    # its negation for the mirror, (b) a (unit, sign) pair with C even at
    # entries 0, 1 and 2 is even everywhere (the lemma of matching.py), (c)
    # even_matchings keeps exactly the pairs even by parity alone, and (d)
    # there are at most 2^(omega(D) + 1) of them, square roots of one residue
    # mod D per sign, with the bound reached on some form
    bundled = [record.form for record in builtin_dataset() if cyclic_odd(record.form)]
    reached = 0
    for form in bundled + list(seeded_forms(200, seed=7)):
        A = correction_vector(form)
        B = gamma_vector(A.D)
        parity = parity_numerators(form.gram, A.generator)
        D = A.D
        assert [x % (8 * D) for x in A.numerators] == parity, form.gram
        omega = sum(1 for p in range(2, D + 1) if D % p == 0 and all(p % q for q in range(2, p)))
        for vector, mod_two in ((A, parity), (A.mirrored(), [-x for x in parity])):
            even = even_pairs(B.numerators, mod_two, D)
            assert even_pairs(B.numerators, mod_two, 3) == even, form.gram
            assert {pair for m in even_matchings(vector, B) for pair in m.provenance} == even
            assert len(even) <= 2 ** (omega + 1), form.gram
            reached += len(even) == 2 ** (omega + 1)
    assert len(bundled) == 54
    assert reached > 0


def test_surgery_of_the_unknot_is_the_lens_space():
    assert surgery_d(15, 2, ()) == [-d for d in lens_vector(15, 2)]
    # the trefoil's 5/2-surgery: V_0 = 1 lowers d by 2 where floor(i/2) = 0 or
    # floor((6 - i)/2) = 0, that is at i = 0 and 1
    d = surgery_d(5, 2, (1,))
    assert [a - b for a, b in zip(d, surgery_d(5, 2, ()))] == [-2, -2, 0, 0, 0]


def test_companion_torsion_reproduces_A():
    # pins the torsion read off the half-matching (alexander.torsion_from_matching)
    seen = []
    for record in builtin_dataset():
        for companion in alexander_reports(record):
            A = correction_vector(record.form)
            assert equal_up_to_symmetry(A.values, surgery_d(A.D, 2, companion.torsion)), (
                record.name,
                companion.torsion,
            )
            seen.append(record.name)
    assert {"3_1", "4_1", "5_2", "9_33"} <= set(seen)


def test_published_nine_33_torsion_fails_the_oracle():
    # the known-red printed companion T(4,7); see ROADMAP "Known red"
    A = correction_vector(builtin_record("9_33").form)
    published = ref.SIGN_REFINED_EXAMPLE["torsion"]
    assert published == (4, 3, 2, 2, 2, 1, 1, 1, 1, 0)
    assert not equal_up_to_symmetry(A.values, surgery_d(A.D, 2, published))


def seeded_trees(count, seed):
    """Negative-definite plumbing trees of dimension 1..9 with mixed edge signs and boxes of at
    most 20,000 points.

    Half the vertices hang off one vertex of weight -1 to -3, which is bad
    when it has more neighbours than its weight; every other vertex has a
    weight of at least its degree and 2, so it is not bad.  The vertices are
    then listed in a random order.
    """
    rng = random.Random(seed)
    made = 0
    while made < count:
        dim = rng.randint(1, 9)
        parents = [0 if rng.random() < 0.5 else rng.randrange(i) for i in range(1, dim)]
        degree = [0] * dim
        for child, parent in enumerate(parents, 1):
            degree[child] += 1
            degree[parent] += 1
        weights = [rng.randint(1, 3)]
        weights += [rng.randint(max(d, 2), max(d, 2) + 3) for d in degree[1:]]
        if prod(w + 1 for w in weights) > 20_000:
            continue
        signs = [rng.choice((1, -1)) for _ in range(dim)]
        rows = [[-weights[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
        for child, parent in enumerate(parents, 1):
            rows[child][parent] = rows[parent][child] = signs[child] * signs[parent]
        order = rng.sample(range(dim), dim)
        rows = [[rows[i][j] for j in order] for i in order]
        if reference_negative_definite(rows):
            made += 1
            yield rows


def test_class_count_certifies_exactly_the_laufer_rational_trees():
    # Ozsvath-Szabo's count decides the L-spaces among these trees, and so
    # does rationality (Nemethi): the two verdicts must agree
    verdicts = [
        (class_count(PlumbingForm.from_rows(rows)).is_lspace, laufer_rational(rows))
        for rows in seeded_trees(400, seed=29)
    ]
    assert all(counted == rational for counted, rational in verdicts)
    # both outcomes occur
    assert 40 <= sum(not rational for _, rational in verdicts) <= 360
