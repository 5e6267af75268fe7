import hashlib
import json

import pytest

from unknotone.catalog import (
    WhiteGraph,
    builtin_dataset,
    builtin_record,
    goeritz_from_white_graph,
    parse_knot_records,
    record_from_dict,
    record_to_dict,
)
from unknotone.corrections import correction_vector
from unknotone.errors import ValidationError
from unknotone.lattice import QuadraticForm


def test_white_graph_trefoil():
    graph = WhiteGraph(vertex_count=2, edges=((0, 1, 1), (0, 1, 1), (0, 1, 1)))
    form = goeritz_from_white_graph(graph)
    assert form.gram == ((-3,),)
    assert abs(form.det) == 3


def test_white_graph_single_vertex():
    graph = WhiteGraph(vertex_count=1, edges=())
    form = goeritz_from_white_graph(graph)
    assert form.dim == 0
    assert form.det == 1


def test_white_graph_two_parallel_edges():
    graph = WhiteGraph(vertex_count=2, edges=((0, 1, 1), (0, 1, 1)))
    assert goeritz_from_white_graph(graph).gram == ((-2,),)


def test_white_graph_rejects_loops_and_bad_signs():
    with pytest.raises(ValidationError, match="loop"):
        WhiteGraph(vertex_count=2, edges=((0, 0, 1),))
    with pytest.raises(ValidationError):
        WhiteGraph(vertex_count=2, edges=((0, 2, 1),))
    with pytest.raises(ValidationError):
        WhiteGraph(vertex_count=2, edges=((0, 1, 2),))
    with pytest.raises(ValidationError):
        WhiteGraph(vertex_count=0, edges=())


def test_signed_white_graph_uses_signed_counts():
    graph = WhiteGraph(vertex_count=3, edges=((0, 1, 1), (0, 1, -1), (1, 2, 1), (0, 2, 1)))
    form = goeritz_from_white_graph(graph)
    # vertex 0: signed degree 1, vertex 1: signed degree 1; pair (0,1) sums to 0
    assert form.gram == ((-1, 0), (0, -1))


def test_all_positive_connected_graph_is_negative_definite():
    graph = WhiteGraph(
        vertex_count=4,
        edges=((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 1)),
    )
    assert goeritz_from_white_graph(graph).is_negative_definite


def test_parse_single_record_and_roundtrip():
    text = json.dumps(
        [
            {
                "name": "8_10",
                "goeritz": [[-4, 1, 1], [1, -2, 1], [1, 1, -5]],
                "determinant": 27,
            }
        ]
    )
    records = parse_knot_records(text)
    assert len(records) == 1
    assert records[0].form.gram == ((-4, 1, 1), (1, -2, 1), (1, 1, -5))
    again = parse_knot_records(json.dumps([record_to_dict(r) for r in records], indent=2))
    assert again == records


def test_parse_empty_source():
    assert parse_knot_records("") == []
    assert parse_knot_records("[]") == []


def test_parse_rejects_asymmetric_with_name():
    text = json.dumps([{"name": "bad_knot", "goeritz": [[-2, 1], [0, -2]]}])
    with pytest.raises(ValidationError, match="bad_knot"):
        parse_knot_records(text)


def test_parse_malformed_json_reports_line():
    with pytest.raises(ValidationError, match="line"):
        parse_knot_records("[{\n  broken\n]")


def test_record_requires_some_presentation():
    with pytest.raises(ValidationError):
        record_from_dict({"name": "empty"})


def test_record_checks_white_graph_against_matrix():
    good = {
        "name": "trefoil",
        "goeritz": [[-3]],
        "white_graph": {"vertices": 2, "edges": [[0, 1, 1], [0, 1, 1], [0, 1, 1]]},
    }
    record = record_from_dict(good)
    assert record.form.gram == ((-3,),)
    bad = dict(good, goeritz=[[-4]])
    with pytest.raises(ValidationError, match="disagree"):
        record_from_dict(bad)


def test_record_signature_must_be_even():
    with pytest.raises(ValidationError, match="signature"):
        record_from_dict({"name": "x", "goeritz": [[-3]], "signature": 1})


def test_record_determinant_cross_check():
    with pytest.raises(ValidationError, match="determinant"):
        record_from_dict({"name": "x", "goeritz": [[-3]], "determinant": 5})


def test_record_accepts_indefinite_matrices():
    # parse-time acceptance; downstream operations reject them as needed
    record = record_from_dict({"name": "indefinite", "goeritz": [[2, 0], [0, -2]]})
    assert not record.form.is_negative_definite


def test_white_graph_form_is_built_once():
    record = next(r for r in builtin_dataset() if r.goeritz is None)
    assert record.form is record.form


def signature_rule_holds(form, signature):
    """-4 A_0 = sigma where Manolescu-Owens prove it ("A concordance invariant from
    the Floer homology of double branched covers", IMRN 2007): a form whose
    off-diagonal entries all have one sign comes from an alternating diagram.  With
    A_0 = a_0 / 4D the rule reads -a_0 = sigma D.  Other forms are not checked."""
    off = [entry for i, row in enumerate(form.gram) for j, entry in enumerate(row) if i != j]
    if min(off, default=0) < 0 < max(off, default=0):
        return True
    A = correction_vector(form)
    return -A.numerators[0] == signature * A.D


def test_builtin_dataset_integrity():
    records = builtin_dataset()
    names = [r.name for r in records]
    assert len(names) == len(set(names))
    for required in (
        "8_10", "8_16", "9_5", "9_33", "8_3", "8_4", "8_6", "8_12", "9_8", "9_25",
        "10_125", "10_148", "10_151", "10_158", "10_162",
    ):
        assert required in names
    for record in records:
        assert record.determinant is not None
        assert abs(record.form.det) == record.determinant
        assert record.determinant % 2 == 1
        assert record.form.is_negative_definite
        # a cyclic cokernel, no refusal, and |A_0| <= 1/2
        assert correction_vector(record.form).gate, record.name
        if record.signature is not None:
            assert signature_rule_holds(record.form, record.signature), record.name
    # every typed signature is 0, so these pins fix the sign of the rule:
    # the trefoil's form [-3] has A_0 = -1/2, so -4 A_0 = 2
    trefoil = QuadraticForm.from_rows([[-3]])
    assert signature_rule_holds(trefoil, 2) and not signature_rule_holds(trefoil, -2)
    # 8_10's form, one sign off the diagonal, with A_0 = -1/2
    assert not signature_rule_holds(builtin_record("8_10").form, 0)
    # a form with off-diagonal entries of both signs (here A_0 = 0) is not checked
    assert signature_rule_holds(QuadraticForm.from_rows([[-3, 1, 0], [1, -3, -1], [0, -1, -3]]), 2)


def test_builtin_lookup():
    assert builtin_record("8_10").determinant == 27
    with pytest.raises(ValidationError):
        builtin_record("99_99")


def test_nine_33_has_signature_zero():
    assert builtin_record("9_33").signature == 0


def test_builtin_record_validates_the_entry_it_returns():
    for record in builtin_dataset():
        assert builtin_record(record.name) == record
    with pytest.raises(ValidationError, match="no builtin record named"):
        builtin_record("not-a-knot")


def test_builtin_dataset_serialises_unchanged():
    # the digest of the records as they were bundled before builtin.json
    text = json.dumps([record_to_dict(r) for r in builtin_dataset()], indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d2c1c8be465e730caa26d68d075f7cdcd42decdbf913502f97b631ea35ac1524"
    )
