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
a sign, which a caller may pin to +1, and an affine unit reindexing
k -> i_0 + u k of Z/p.

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
signs of the edges do not change the manifold.  On a forest each tree
has its own sequence.

On a rational forest every correction term comes from Nemethi's
generalized Laufer sequence ("On the Ozsvath-Szabo invariant of negative
definite plumbed 3-manifolds", Geom. Topol. 9, 2005), again with no box.
Flip the edge signs to S G S, so that G_ij is 0 or 1 off the diagonal,
and put N = D G^{-1} with D = |det G|.  For each coset, take its element r
with E-coordinates in [0, 1) and its covector c = G r; while some c_v > 0,
add E_v to r, that is column v of G to c.  At the end, k = K + 2c with
K_v = -G_vv - 2 is a characteristic covector of largest square in its
coset, and the correction term there is (k^t N k + sD) / 4D, s the rank.

The correction terms mod 2 need no maximum at all: x^t N x mod 8D is the
same at every characteristic covector x of a coset, since x + 2 G v adds
4D (v . x + v^t G v) and v . x = v^t G v (mod 2).  So one covector per
coset gives A mod 2 (Ozsvath-Szabo, Adv. Math. 2003, d = (c_1^2 + s) / 4):
with x_0 = diag(G) and x = x_0 + 2t g, the coset of index w . x_0 + 2t
has the numerator x_0^t N x_0 + 4t g^t N x_0 + 4t^2 g^t N g + sD mod 8D.

The torsion coefficients of a knot come back from its one-sided Alexander
coefficients a_i by the forward sum t_i = sum_{j >= 1} j a_(i+j), which
the package inverts by second differences.
"""

from fractions import Fraction
from math import ceil, gcd

from helpers import reference_negative_definite


def lens_vector(p, q):
    """d(-L(p, q), i) for i = 0, ..., p - 1, for coprime p > q >= 0 (L(1, 0) is the 3-sphere).

    One level of the recursion per call: every i reads the vector of
    L(q, p mod q) at i mod q.
    """
    if p == 1:
        return [Fraction(0)]
    inner = lens_vector(q, p % q)
    return [Fraction(p * q - (2 * i + 1 - p - q) ** 2, 4 * p * q) - inner[i % q] for i in range(p)]


def surgery_d(p, q, torsion):
    """d(S^3_{p/q}(K), i) for i = 0, ..., p - 1, for K with torsion coefficients ``torsion``."""

    def V(j):
        return torsion[j] if j < len(torsion) else 0

    lens = lens_vector(p, q)
    return [-lens[i] - 2 * max(V(i // q), V((p + q - 1 - i) // q)) for i in range(p)]


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


def equal_up_to_symmetry(values, reference, signs=(1, -1)):
    """Whether values[k] == s * reference[(i0 + u k) mod D] for a sign s in ``signs``, i0
    and unit u.

    The search is pruned by matching values[0] and values[1] first.
    """
    D = len(values)
    units = [u for u in range(D) if gcd(u, D) == 1]
    return len(reference) == D and any(
        all(s * reference[(i0 + u * k) % D] == v for k, v in enumerate(values))
        for s in signs
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
    """Whether every tree of the plumbing forest ``rows`` is rational; ValueError unless
    ``rows`` is negative definite, where the sequence need not end."""
    if not reference_negative_definite(rows):
        raise ValueError("not negative definite")
    dim = len(rows)
    meet = [[rows[i][j] if i == j else abs(rows[i][j]) for j in range(dim)] for i in range(dim)]
    x = [0] * dim
    # a finished tree keeps its dots <= 0, and no edge reaches the next one
    for start in range(dim):
        if x[start]:
            continue
        x[start] = 1
        while True:
            dots = [sum(a * b for a, b in zip(x, column)) for column in meet]
            j = next((j for j, dot in enumerate(dots) if dot > 0), None)
            if j is None:
                break
            if dots[j] >= 2:
                return False
            x[j] += 1
    return True


def forest_signs(rows):
    """Signs s with s_i s_j G_ij in {0, 1} off the diagonal, or None if ``rows`` is no forest.

    An edge is an entry G_ij != 0 off the diagonal; a plumbing forest has
    every such entry +-1 and no cycle.
    """
    dim = len(rows)
    signs = [0] * dim
    for root in range(dim):
        if signs[root]:
            continue
        signs[root] = 1
        stack = [(root, None)]
        while stack:
            i, parent = stack.pop()
            for j in range(dim):
                if j == i or not rows[i][j]:
                    continue
                if abs(rows[i][j]) != 1:
                    return None
                if j != parent:
                    if signs[j]:
                        return None  # a second path to j closes a cycle
                    signs[j] = signs[i] * rows[i][j]
                    stack.append((j, i))
    return signs


def inverse_numerator(rows):
    """(N, D) with D = |det G| and N = D G^{-1}, by Gauss-Jordan elimination over Q."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        pivot = m[c][c]
        det *= pivot
        m[c] = [x / pivot for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                factor = m[r][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[c])]
    D = abs(det)
    return [[int(D * x) for x in row[n:]] for row in m], int(D)


def nemethi_corrections(rows, generator):
    """Numerators over 4D of the correction terms of a rational plumbing forest.

    Entry i is the term at the coset of i * ``generator``, so the result
    lists the same vector as the box scan listed against that generator:
    a covector x lies in the coset of (w . x mod D) * generator, with
    w = a^{-1} N g mod D and a = g^t N g.
    """
    signs = forest_signs(rows)
    if signs is None or not laufer_rational(rows):
        raise ValueError("not a rational plumbing forest")
    dim = len(rows)
    N, D = inverse_numerator(rows)
    n_g = [sum(a * b for a, b in zip(row, generator)) for row in N]
    w = [pow(sum(a * b for a, b in zip(generator, n_g)), -1, D) * x % D for x in n_g]
    # everything below is in the basis of S G S: N becomes S N S, g becomes S g,
    # so N g becomes S N g, and a covector k of S G S is S k of G, of the same
    # square and index w . S k
    flip = [[signs[i] * signs[j] * rows[i][j] for j in range(dim)] for i in range(dim)]
    flip_n = [[signs[i] * signs[j] * N[i][j] for j in range(dim)] for i in range(dim)]
    flip_n_g = [signs[v] * x for v, x in enumerate(n_g)]
    flip_w = [signs[v] * x for v, x in enumerate(w)]
    canonical = [-flip[v][v] - 2 for v in range(dim)]
    values = [None] * D
    for i in range(D):
        r = [x * i % D for x in flip_n_g]  # D times r, for r in [0, 1)^s
        c = [sum(a * b for a, b in zip(row, r)) // D for row in flip]
        while (v := next((v for v, x in enumerate(c) if x > 0), None)) is not None:
            c = [a + b for a, b in zip(c, flip[v])]
        k = [a + 2 * b for a, b in zip(canonical, c)]
        square = sum(x * sum(a * b for a, b in zip(row, k)) for x, row in zip(k, flip_n))
        index = sum(a * b for a, b in zip(flip_w, k)) % D
        if values[index] is not None:
            raise AssertionError(f"two cosets land on index {index}")
        values[index] = square + dim * D
    return tuple(values)


def parity_numerators(rows, generator):
    """Numerators over 4D of the correction terms mod 8D, entry i at the coset of
    i * ``generator``: one characteristic covector x_0 + 2t g per coset, no maximum."""
    N, D = inverse_numerator(rows)
    x_0 = [row[v] for v, row in enumerate(rows)]
    n_g = [sum(a * b for a, b in zip(row, generator)) for row in N]
    square = sum(x * sum(a * b for a, b in zip(row, x_0)) for x, row in zip(x_0, N))
    cross, g_n_g = (sum(a * b for a, b in zip(n_g, v)) for v in (x_0, generator))
    start = pow(g_n_g, -1, D) * cross  # w . x_0, with w = (g^t N g)^-1 N g
    values = [None] * D
    for t in range(D):
        value = square + 4 * t * cross + 4 * t * t * g_n_g + len(rows) * D
        values[(start + 2 * t) % D] = value % (8 * D)
    return values


def torsion_from_polynomial(poly):
    """The forward sum t_i = sum_{j>=1} j * a_{i+j} over the one-sided coefficients of
    ``poly``, trailing zeros trimmed and one 0 appended: the inverse that
    ``alexander.polynomial_from_torsion`` must round-trip with."""
    out = [sum(j * a for j, a in enumerate(poly.higher[i:], 1)) for i in range(len(poly.higher) + 1)]
    while out and out[-1] == 0:
        out.pop()
    out.append(0)
    return tuple(out)
