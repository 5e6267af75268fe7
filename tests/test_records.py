"""Record input: one decoding path, field types, and the cached form."""

import json
import subprocess
import sys

import pytest

from unknotone.catalog import builtin_dataset

GOOD = {"name": "x", "goeritz": [[-3]]}
TREFOIL_GRAPH = {"vertices": 2, "edges": [[0, 1, 1], [0, 1, 1], [0, 1, 1]]}


def run_cli(args, env, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "unknotone.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


def assert_one_input_error(proc):
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize(
    "data, message",
    [
        (b"5", "expected a JSON array"),
        (b'"abc"', "expected a JSON array"),
        (b"\xff\xfe[", "cannot read"),
    ],
)
def test_report_input_that_is_not_records(tmp_path, src_env, data, message):
    path = tmp_path / "records.json"
    path.write_bytes(data)
    proc = run_cli(["report", "--input", str(path)], src_env)
    assert_one_input_error(proc)
    assert message in proc.stderr


@pytest.mark.parametrize(
    "record, field",
    [
        ({**GOOD, "signature": "a"}, "signature"),
        ({**GOOD, "signature": False}, "signature"),
        ({**GOOD, "signature": 2.0}, "signature"),
        ({**GOOD, "determinant": "3"}, "determinant"),
        ({**GOOD, "mirror_of": 7}, "mirror_of"),
        ({"name": "w", "white_graph": {**TREFOIL_GRAPH, "vertices": True}}, "vertices"),
        ({"name": "w", "white_graph": {**TREFOIL_GRAPH, "edges": [[0, 1.7, 1]]}}, "edges"),
        ({"name": "w", "white_graph": {**TREFOIL_GRAPH, "edges": [[0, 1]]}}, "edges"),
    ],
)
def test_field_types_are_checked(src_env, record, field):
    proc = run_cli(["obstruct", "--input", "-"], src_env, stdin=json.dumps([record]))
    assert_one_input_error(proc)
    assert f"'{field}'" in proc.stderr


def test_white_graph_form_is_built_once():
    record = next(r for r in builtin_dataset() if r.goeritz is None)
    assert record.form is record.form
