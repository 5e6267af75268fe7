import json
import random
from fractions import Fraction
from math import prod

import pytest

from unknotone import cli, corrections, plumbing as plumbing_mod
from unknotone.errors import ValidationError
from helpers import E8, box_places, characteristic_candidates, pairing, push_classes
from unknotone.lattice import QuadraticForm
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
    for rows in ([[-2]], [[-3]], [[-2, 1], [1, -2]], [[-3, 1], [1, -3]], [[-5, -1], [-1, -3]]):
        counted = class_count(PlumbingForm.from_rows(rows))
        assert counted.count >= 1
        assert counted.count >= abs(QuadraticForm.from_rows(rows).det) or not counted.is_lspace


def test_slab_ands_equal_the_product_enumeration():
    rng = random.Random(27)
    for _ in range(400):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
        total = prod(sizes)
        strides = [prod(sizes[j + 1 :]) for j in range(len(sizes))]
        intervals = [sorted(rng.choices(range(size), k=2)) for size in sizes]
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
        # two trees with one bad vertex each, the centres of weight -1: each
        # tree is in the theorem, and so is their sum
        (
            [[-1, 1, -1, 0, 0, 0], [1, -2, 0, 0, 0, 0], [-1, 0, -3, 0, 0, 0],
             [0, 0, 0, -1, 1, 1], [0, 0, 0, 1, -3, 0], [0, 0, 0, 1, 0, -2]],
            [1, 1, -1, 1, 1, 1],
        ),
        # a cycle is refused, whatever the signs of its edges
        ([[-2, -1, -1], [-1, -2, -1], [-1, -1, -2]], "the edge (2, 1) closes a cycle"),
        ([[-2, 1, 1], [1, -2, -1], [1, -1, -2]], "the edge (2, 1) closes a cycle"),
        ([[-3, -1, -1], [-1, -3, 1], [-1, 1, -3]], "the edge (2, 1) closes a cycle"),
        # a square: the cycle closes where the two branches from vertex 0 meet
        (
            [[-3, 1, 0, 1], [1, -3, 1, 0], [0, 1, -3, 1], [1, 0, 1, -3]],
            "the edge (2, 1) closes a cycle",
        ),
        (
            [[-3, 2], [2, -3]],
            "Gram entry (0, 1) is 2; a plumbing forest has off-diagonal entries 0 and +-1",
        ),
        ([[-3, 0, 1], [0, -2, -2], [1, -2, -3]], "Gram entry (2, 1) is -2"),
        # the chain -4, -1, -4, -1, -4: two bad vertices in one tree
        (
            [[-4 + 3 * (i % 2) if i == j else int(abs(i - j) == 1) for j in range(5)]
             for i in range(5)],
            "vertices 1 and 3 of one tree are bad (more neighbours than -G_ii)",
        ),
    ],
    ids=[
        "dimension-0", "dimension-1", "star", "flipped-star", "two-components", "two-bad-trees",
        "triangle", "triangle-mixed-signs", "balanced-triangle", "square", "multi-edge",
        "multi-edge-negative", "two-bad",
    ],
)
def test_balancing_signs(rows, signs):
    # the signs of a plumbing forest, or the one-line refusal of any other form
    assert QuadraticForm.from_rows(rows).is_negative_definite
    if isinstance(signs, str):
        with pytest.raises(ValidationError) as info:
            PlumbingForm.from_rows(rows)
        assert signs in str(info.value) and "\n" not in str(info.value)
        return
    assert PlumbingForm.from_rows(rows).signs == signs
    dim = len(rows)
    assert all(signs[i] * signs[j] * rows[i][j] >= 0 for i in range(dim) for j in range(i))


def test_walk_preserves_length_and_partitions_box():
    # on small forms: the walk's classes are constant in squared length, and
    # they partition the candidate box
    for rows in ([[-2, 1], [1, -3]], [[-3, 1], [1, -3]], [[-2, 1, 0], [1, -2, 1], [0, 1, -3]]):
        form = QuadraticForm.from_rows(rows)
        box = set(characteristic_candidates(form))
        classes = [members for members, _ in push_classes(rows)]
        for members in classes:
            assert len({pairing(form, v) for v in members}) == 1
        in_box_classes = [cls for cls in classes if cls <= box]
        assert len(in_box_classes) == class_count(PlumbingForm.from_rows(rows)).count
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
    # the 10_148 intersection form is sharp but not a plumbing tree: its
    # entry 3 is a triple edge, so no plumbing form is built from it
    rows = [
        [-4, 3, 1, 0, 1],
        [3, -5, 0, 0, 0],
        [1, 0, -2, 1, 0],
        [0, 0, 1, -2, 0],
        [1, 0, 0, 0, -2],
    ]
    with pytest.raises(ValidationError, match=r"Gram entry \(0, 1\) is 3"):
        PlumbingForm.from_rows(rows)
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


def test_non_lspace_tree_is_not_certified():
    # a star with a bad centre of weight -1 and edges of both signs: 4
    # classes inside the box for D = 3
    rows = [[-1, -1, 1, -1], [-1, -3, 0, 0], [1, 0, -3, 0], [-1, 0, 0, -4]]
    plumbing = PlumbingForm.from_rows(rows)
    counted = class_count(plumbing)
    assert (counted.count, counted.determinant, counted.is_lspace) == (4, 3, False)
    with pytest.raises(ValidationError, match="not certified: 4 classes for determinant 3"):
        plumbing_corrections(plumbing)
    # the same star with every edge +1 counts the same
    star = [[-1, 1, 1, 1], [1, -3, 0, 0], [1, 0, -3, 0], [1, 0, 0, -4]]
    assert class_count(PlumbingForm.from_rows(star)) == counted


def test_plumbing_check_never_prints_a_false_certificate_on_a_bundled_record(capsys):
    # outside plumbing forests with at most one bad vertex per tree the
    # count certifies nothing, so such a record is refused, on one line
    from unknotone.catalog import builtin_dataset

    certified = []
    for record in builtin_dataset():
        code = cli.main(["plumbing-check", "--json", "--knot", record.name])
        out, err = capsys.readouterr()
        if code == 0:
            assert (json.loads(out)["is_lspace"], err) == (True, ""), record.name
            certified.append(record.name)
        else:
            assert (code, out) == (3, ""), record.name
            assert err.startswith("error: ") and err.count("\n") == 1, record.name
    assert len(certified) == 22
    assert {"10_125", "10_126", "10_130", "10_135", "10_138"} <= set(certified)


def test_plumbing_check_counts_the_classes_once(monkeypatch, capsys):
    counts = []
    count = plumbing_mod._count_classes

    def counted(form):
        counts.append(form)
        return count(form)

    monkeypatch.setattr(plumbing_mod, "_count_classes", counted)
    assert cli.main(["plumbing-check", "--knot", "10_125", "--json"]) == 0
    assert '"is_lspace": true' in capsys.readouterr().out
    assert len(counts) == 1
    # the count is kept on the form: asking again counts nothing
    plumbing = PlumbingForm.from_rows(TEN_125)
    assert class_count(plumbing) is class_count(plumbing)
    plumbing_corrections(plumbing)
    assert len(counts) == 2


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
