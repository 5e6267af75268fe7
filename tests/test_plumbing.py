import random
from fractions import Fraction
from math import prod

import pytest

from unknotone import cli, corrections, plumbing as plumbing_mod
from unknotone.errors import ValidationError
from helpers import box_places, characteristic_candidates, pairing
from unknotone.lattice import QuadraticForm, box_strides
from unknotone.plumbing import PlumbingForm, class_count, plumbing_corrections

TEN_125 = [
    [-2, 1, 1, 1, 0, 0, 0],
    [1, -2, 0, 0, 0, 0, 0],
    [1, 0, -3, 0, 0, 0, 0],
    [1, 0, 0, -2, 1, 0, 0],
    [0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 1, -2, 1],
    [0, 0, 0, 0, 0, 1, -2],
]

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


def test_e8_is_unimodular_lspace():
    plumbing = PlumbingForm.from_rows(E8)
    assert abs(plumbing.form.det) == 1
    counted = class_count(plumbing)
    assert counted.count == 1
    assert counted.is_lspace


def test_minus_one_sphere():
    counted = class_count(PlumbingForm.from_rows([[-1]]))
    assert (counted.count, counted.determinant, counted.is_lspace) == (1, 1, True)
    A = plumbing_corrections(PlumbingForm.from_rows([[-1]]))
    assert A.values == (Fraction(0),)


def test_ten_125_class_count_and_corrections():
    plumbing = PlumbingForm.from_rows(TEN_125)
    counted = class_count(plumbing)
    assert counted.determinant == 11
    assert counted.count == 11
    assert counted.is_lspace
    A = plumbing_corrections(plumbing)
    expected = [
        Fraction(1, 2), Fraction(35, 22), Fraction(19, 22), Fraction(7, 22),
        Fraction(-1, 22), Fraction(-5, 22), Fraction(-5, 22), Fraction(-1, 22),
        Fraction(7, 22), Fraction(19, 22), Fraction(35, 22),
    ]
    from math import gcd

    def reindexings(values):
        D = len(values)
        for u in range(1, D):
            if gcd(u, D) == 1:
                yield [values[(u * i) % D] for i in range(D)]

    assert any(re == expected for re in reindexings(list(A.values)))


def test_rejects_indefinite():
    with pytest.raises(ValidationError):
        PlumbingForm.from_rows([[2]])


def test_count_never_below_cokernel_order():
    for rows in ([[-2]], [[-3]], [[-2, 1], [1, -2]], [[-3, 1], [1, -3]], [[-5, 2], [2, -3]]):
        counted = class_count(PlumbingForm.from_rows(rows))
        assert counted.count >= 1
        assert counted.count >= abs(QuadraticForm.from_rows(rows).det) or not counted.is_lspace


def test_slab_ands_equal_the_product_enumeration():
    rng = random.Random(27)
    for _ in range(400):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
        total = prod(sizes)
        strides = box_strides([range(size) for size in sizes])
        # lo above hi, by one or by more, is an empty interval
        intervals = [(rng.randint(0, size + 1), rng.randint(-3, size - 1)) for size in sizes]
        constrained = [j for j in range(len(sizes)) if rng.random() < 0.7]
        bits = (1 << total) - 1
        for j in constrained:
            slab = plumbing_mod._slab(*intervals[j], strides[j], sizes[j], total)
            assert slab >> total == 0
            bits &= slab
        free = [intervals[j] if j in constrained else (0, size - 1) for j, size in enumerate(sizes)]
        assert {p for p in range(total) if bits >> p & 1} == box_places(sizes, free)


@pytest.mark.parametrize(
    "rows, signs",
    [
        ([], []),
        ([[-3]], [1]),
        # a star with edges +1 and the same star with the centre and one leaf flipped
        ([[-2, 1, 1, 1], [1, -2, 0, 0], [1, 0, -2, 0], [1, 0, 0, -3]], [1, 1, 1, 1]),
        ([[-2, -1, 1, -1], [-1, -2, 0, 0], [1, 0, -2, 0], [-1, 0, 0, -3]], [1, -1, 1, -1]),
        # two components: each starts at +1
        ([[-2, -1, 0, 0], [-1, -2, 0, 0], [0, 0, -2, 1], [0, 0, 1, -2]], [1, -1, 1, 1]),
        # a cycle with an odd number of negative edges has no signs
        ([[-2, -1, -1], [-1, -2, -1], [-1, -1, -2]], None),
        ([[-2, 1, 1], [1, -2, -1], [1, -1, -2]], None),
        # an even number of negative edges is balanced
        ([[-2, -1, -1], [-1, -2, 1], [-1, 1, -2]], [1, -1, -1]),
    ],
    ids=[
        "dimension-0", "dimension-1", "star", "flipped-star", "two-components",
        "triangle", "triangle-mixed-signs", "balanced-triangle",
    ],
)
def test_balancing_signs(rows, signs):
    assert plumbing_mod._balancing_signs(rows) == signs
    if signs is not None:
        dim = len(rows)
        assert all(signs[i] * signs[j] * rows[i][j] >= 0 for i in range(dim) for j in range(i))


def test_walk_preserves_length_and_partitions_box():
    # on small forms: classes are closed under the push moves, constant in
    # squared length, and in-box classes partition the candidate box
    for rows in ([[-2, 1], [1, -3]], [[-3, 1], [1, -3]], [[-2, 1, 0], [1, -2, 1], [0, 1, -3]]):
        form = QuadraticForm.from_rows(rows)
        box = set(characteristic_candidates(form))
        seen = set()
        counted = class_count(PlumbingForm.from_rows(rows))
        # regenerate the classes the same way the counter does
        diag = [rows[i][i] for i in range(len(rows))]
        cols = [tuple(2 * rows[j][i] for j in range(len(rows))) for i in range(len(rows))]

        def neighbours(vec):
            for i in range(len(rows)):
                if vec[i] == -diag[i]:
                    yield tuple(a + b for a, b in zip(vec, cols[i]))
                elif vec[i] == diag[i]:
                    yield tuple(a - b for a, b in zip(vec, cols[i]))

        classes = []
        visited = set()
        for seed in box:
            if seed in visited:
                continue
            stack, members = [seed], {seed}
            while stack:
                cur = stack.pop()
                for nxt in neighbours(cur):
                    if nxt not in members:
                        members.add(nxt)
                        stack.append(nxt)
            visited |= members
            classes.append(members)
            lengths = {pairing(form, v) for v in members}
            assert len(lengths) == 1
        in_box_classes = [cls for cls in classes if cls <= box]
        assert len(in_box_classes) == counted.count
        assert set().union(*(cls & box for cls in classes)) == box


def test_montesinos_star_plumbings_certify():
    # star-shaped plumbings for the five Seifert-fibered covers
    from unknotone.catalog import builtin_record

    for name in ("10_125", "10_126", "10_130", "10_135", "10_138"):
        record = builtin_record(name)
        counted = class_count(PlumbingForm(record.form))
        assert counted.is_lspace, name
        assert counted.count == record.determinant


def test_sharp_but_not_plumbing_form_is_rejected_by_corrections_gate():
    # the 10_148 intersection form is sharp but not a plumbing tree: the
    # class walk overshoots and plumbing_corrections must refuse it
    rows = [
        [-4, 3, 1, 0, 1],
        [3, -5, 0, 0, 0],
        [1, 0, -2, 1, 0],
        [0, 0, 1, -2, 0],
        [1, 0, 0, 0, -2],
    ]
    plumbing = PlumbingForm.from_rows(rows)
    counted = class_count(plumbing)
    assert not counted.is_lspace
    assert (counted.count, counted.determinant) == (55, 31)
    with pytest.raises(ValidationError):
        plumbing_corrections(plumbing)
    # also when nothing has counted the classes of this form yet
    with pytest.raises(ValidationError, match="not certified: 55 classes"):
        plumbing_corrections(PlumbingForm.from_rows(rows))
    # its correction terms still come from the coset maxima directly
    from unknotone.corrections import correction_vector
    from unknotone.gamma import gamma_vector
    from unknotone.matching import enumerate_matchings, format_compact

    A = correction_vector(QuadraticForm.from_rows(rows))
    B = gamma_vector(A.D)
    rows_found = [
        format_compact(m) for m in enumerate_matchings(A, B) if m.even and m.positive
    ]
    assert rows_found == ["2, 2, [4], 2, 2, 2"]


def test_plumbing_check_walks_the_classes_once(monkeypatch, capsys):
    walks = []
    walk = plumbing_mod._count_classes

    def counted_walk(form):
        walks.append(form)
        return walk(form)

    monkeypatch.setattr(plumbing_mod, "_count_classes", counted_walk)
    assert cli.main(["plumbing-check", "--knot", "10_125", "--json"]) == 0
    assert '"is_lspace": true' in capsys.readouterr().out
    assert len(walks) == 1
    # the count is kept on the form: asking again walks nothing
    plumbing = PlumbingForm.from_rows(TEN_125)
    assert class_count(plumbing) is class_count(plumbing)
    plumbing_corrections(plumbing)
    assert len(walks) == 2


def test_plumbing_check_scans_the_box_once(monkeypatch, capsys):
    # the correction terms scan the box once; the class count runs no scan
    scans = []
    scan = corrections._coset_maxima

    def counted_scan(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(corrections, "_coset_maxima", counted_scan)
    assert cli.main(["plumbing-check", "--knot", "10_125", "--json"]) == 0
    assert '"is_lspace": true' in capsys.readouterr().out
    assert len(scans) == 1
