"""Independent oracles for the correction terms, from surgery formulas.

Nothing here touches the characteristic box.  The correction terms of a
lens space come from the Ozsvath-Szabo recursion ("Absolutely graded Floer
homologies...", Adv. Math. 2003, arXiv:math/0110170, Prop. 4.8)

    d(-L(p, q), i) = (pq - (2i + 1 - p - q)^2) / (4pq) - d(-L(q, r), j),

with r = p mod q and j = i mod q, for 0 <= i < p + q.  A linear chain with
weights -a_1, ..., -a_n (all a_i >= 2) bounds L(p, q), where p/q is the
Hirzebruch-Jung continued fraction [a_1, ..., a_n]^- = a_1 - 1/(a_2 - ...).
The Ni-Wu rational-surgery formula ("Cosmetic surgeries on knots in S^3",
arXiv:1009.4720, Prop. 1.6) gives the correction terms of p/q-surgery on
a knot whose torsion coefficients t_j stand in for its V_j:

    d(S^3_{p/q}(K), i) = d(L(p, q), i) - 2 max(V_floor(i/q), V_floor((p+q-1-i)/q)),

with V_j = 0 past the end of the sequence.
Spin^c labels are matched only up to the symmetries the comparison allows:
a sign, and an affine unit reindexing k -> i_0 + u k of Z/p.

The two-bridge knot S(p, q) has L(p, q) as its double branched cover, so
the chain of p/q presents it.  Kanenobu and Murakami ("Two-bridge knots
with unknotting number one", Proc. AMS 98, 1986) show that S(p, q) has
unknotting number one exactly when p = 2mn +- 1 for coprime m, n > 0 and
q or its inverse mod p is +-2n^2 mod p.  Its signature is the sum of
(-1)^floor(iq/p) over 0 < i < p for odd q (an even q is first replaced by
q - p, which presents the same knot; p - q would be its mirror).

Whether a plumbing tree bounds an L-space comes from Laufer's computation
sequence ("On rational singularities", Amer. J. Math. 94, 1972), which
knows nothing of covectors or boxes.  With the vertex spheres E_v meeting
in the intersection numbers of the graph, start from x = E_v for any v.
While some E_j has x . E_j > 0: if x . E_j >= 2 the graph is not rational,
otherwise x += E_j.  When no such j is left, x is the fundamental cycle
and the graph is rational.  A negative-definite plumbed rational homology
sphere is an L-space exactly when its graph is rational (Nemethi, "Links
of rational singularities, L-spaces and LO fundamental groups", Invent.
Math. 210, 2017).  On a tree the intersection numbers are |G_ij|: the
signs of the edges do not change the manifold.
"""

from fractions import Fraction
from math import ceil, gcd


def lens_d(p, q, i):
    """d(-L(p, q), i) for coprime p > q >= 0 (L(1, 0) is the 3-sphere)."""
    if p == 1:
        return Fraction(0)
    return Fraction(p * q - (2 * i + 1 - p - q) ** 2, 4 * p * q) - lens_d(q, p % q, i % q)


def lens_vector(p, q):
    """d(-L(p, q), i) for i = 0, ..., p - 1."""
    return [lens_d(p, q, i) for i in range(p)]


def surgery_d(p, q, torsion):
    """d(S^3_{p/q}(K), i) for i = 0, ..., p - 1, for K with torsion coefficients ``torsion``."""

    def V(j):
        return torsion[j] if j < len(torsion) else 0

    return [-lens_d(p, q, i) - 2 * max(V(i // q), V((p + q - 1 - i) // q)) for i in range(p)]


def hirzebruch_jung(weights):
    """(p, q) with p/q = [a_1, ..., a_n]^- for weights a_i >= 2, in lowest terms."""
    value = Fraction(weights[-1])
    for a in reversed(weights[:-1]):
        value = a - 1 / value
    return value.numerator, value.denominator


def chain_rows(weights):
    """The linear chain plumbing with weights -a_i and 1 beside the diagonal."""
    n = len(weights)
    return [[-weights[i] if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]


def equal_up_to_symmetry(values, reference):
    """Whether values[k] == s * reference[(i0 + u k) mod D] for a sign s, i0 and unit u.

    The search is pruned by matching values[0] and values[1] first.
    """
    D = len(values)
    units = [u for u in range(D) if gcd(u, D) == 1]
    return len(reference) == D and any(
        all(s * reference[(i0 + u * k) % D] == v for k, v in enumerate(values))
        for s in (1, -1)
        for i0 in range(D)
        if s * reference[i0] == values[0]
        for u in units
        if s * reference[(i0 + u) % D] == values[1 % D]
    )


def hirzebruch_jung_weights(p, q):
    """The weights a_i >= 2 with p/q = [a_1, ..., a_n]^-, for coprime p > q > 0."""
    weights = []
    while q:
        a = ceil(Fraction(p, q))
        weights.append(a)
        p, q = q, a * q - p
    return weights


def two_bridge_u1(p, q):
    """Whether the two-bridge knot S(p, q) has unknotting number one."""
    targets = {q % p, pow(q, -1, p)}
    for n in range(1, (p + 1) // 2 + 1):
        square = 2 * n * n % p
        for mn in ((p - 1) // 2, (p + 1) // 2):
            if mn % n == 0 and gcd(mn // n, n) == 1 and targets & {square, -square % p}:
                return True
    return False


def two_bridge_signature(p, q):
    """The signature of S(p, q), for odd p and q coprime to p."""
    if q % 2 == 0:
        q -= p
    return sum(1 - 2 * (i * q // p % 2) for i in range(1, p))


def laufer_rational(rows):
    """Whether the negative-definite plumbing tree with Gram matrix ``rows`` is rational."""
    dim = len(rows)
    if dim == 0:
        return True
    meet = [[rows[i][j] if i == j else abs(rows[i][j]) for j in range(dim)] for i in range(dim)]
    x = [int(i == 0) for i in range(dim)]
    while True:
        dots = [sum(a * b for a, b in zip(x, column)) for column in meet]
        j = next((j for j, dot in enumerate(dots) if dot > 0), None)
        if j is None:
            return True
        if dots[j] >= 2:
            return False
        x[j] += 1
