"""Every refusal of the CLI is one row: exit 3, nothing on standard output,
one ``error:`` line on standard error, and all within a second.

A row of ``REFUSED`` gives the arguments, the input, the text of the line
after ``error: ``, and optionally the ``(module, attribute)`` of
``unknotone`` that must not run before the refusal; the test replaces that
attribute by one that raises.  The input is ``None`` when the command reads
no record, ``TTY`` when standard input is a terminal, and otherwise the
text or bytes of ``record.json`` in the working directory when the
arguments name that file, else of a piped standard input.  Each row calls
``cli.main`` in this interpreter.
"""

import importlib
import json
import random
import sys
import time
from types import SimpleNamespace
from unittest import mock

import pytest

from helpers import EIGHT_TEN_JSON, HUGE_UNIT, NON_CYCLIC, TOO_LONG_TO_PRINT, piped, record_json
from unknotone.cli import main

TTY = SimpleNamespace(isatty=lambda: True)  # a standard input that is a terminal
ELIMINATION = ("lattice", "_gauss_jordan")
WHITE_GRAPH_FORM = ("catalog", "goeritz_from_white_graph")
DIGITS = sys.get_int_max_str_digits()
ABOVE_20 = "above dimension 20 no characteristic box fits the budget of 2000000"


def row(id, argv, line, given=None, never=None):
    return pytest.param(argv.split(), given, line, never, id=id)


def rows(id, commands, line, given, never=None, flags=""):
    """One row of ``command --input record.json flags`` per command of the comma-separated list."""
    return [row(f"{id}-{command}", f"{command} --input record.json {flags}", line, given, never)
            for command in commands.split(", ")]


def thirteen_huge(diagonal, **fields):
    """The record of the 13 x 13 form of this diagonal and off-diagonal entries of 4,000 digits."""
    matrix = [[10**3999 + i + j for j in range(13)] for i in range(13)]
    for i, d in enumerate(diagonal):
        matrix[i][i] = d
    return record_json(matrix, **fields)


def dense_240():
    """The record of a dense 240 x 240 form of seeded entries, with a diagonal of -2 to -9."""
    rng = random.Random(240)
    matrix = [[0] * 240 for _ in range(240)]
    for i in range(240):
        matrix[i][i] = -rng.randint(2, 9)
        for j in range(i):
            matrix[i][j] = matrix[j][i] = rng.randint(-3, 3)
    return record_json(matrix)


def white_graph(vertices, **fields):
    """The record "r" of a white graph of ``vertices`` vertices and one edge, and ``fields``."""
    graph = {"vertices": vertices, "edges": [[0, 1, 1]]}
    return json.dumps({"name": "r", **fields, "white_graph": graph})


X = {"name": "x", "goeritz": [[-3]]}
EDGES = "(w): white_graph 'edges' entries must be [u, v, sign] integers, got"
NOT_NEGATIVE = "Gram entry (1, 0) has G_ij^2 > G_ii G_jj; the form is not negative-definite"
BESIDE_A_DIAGONAL_ENTRY_AT_LEAST_ZERO = (
    "form with a diagonal entry >= 0 has elimination integers of up to 172731 bits, above the "
    "budget of 1977 bits in dimension 13"
)

REFUSED = [
    # the arguments
    row("gamma-even-4", "gamma --D 4", "model form needs an odd determinant >= 3, got 4"),
    row("gamma-even-6", "gamma --D 6", "model form needs an odd determinant >= 3, got 6"),
    row("gamma-above-budget", "gamma --D 2000001",
        "model vector for D = 2000001 is above the budget of 2000000"),
    row("unknown-knot", "obstruct --knot 99_99", "no builtin record named '99_99'"),
    row("knot-and-input", "obstruct --knot 8_10 --input record.json",
        "give exactly one of --knot and --input", EIGHT_TEN_JSON),
    row("no-input-on-a-terminal", "obstruct",
        "no input: pass --knot, --input, or pipe a record", TTY),
    row("sign-refined-no-signature", "obstruct --knot 8_10 --sign-refined",
        "record '8_10' carries no signature; the signed test needs one"),
    # a non-cyclic cokernel, but the missing signature is refused first
    row("sign-refined-null-signature", "obstruct --sign-refined --input record.json",
        "record 'r' carries no signature; the signed test needs one",
        json.dumps([{**NON_CYCLIC, "signature": None}])),
    *(
        row(f"sign-refined-{name}", f"obstruct --knot 8_8 --sign-refined {flags}",
            "--sign-refined takes no --strong or --generator", never=("catalog", "builtin_record"))
        for name, flags in [("strong", "--strong"), ("generator", "--generator 2"),
                            ("both", "--strong --generator 1")]
    ),
    row("report-all-input", "report --all --input record.json",
        "give only one of --all and --input", EIGHT_TEN_JSON),
    row("report-all-paper-tables-input", "report --all --paper-tables --input record.json",
        "give only one of --all and --input", EIGHT_TEN_JSON),
    row("report-paper-tables-input", "report --paper-tables --input record.json",
        "--paper-tables reads the bundled records; give no --input", EIGHT_TEN_JSON),
    # reading and decoding
    row("missing-file", "obstruct --input does-not-exist.json",
        "cannot read does-not-exist.json: [Errno 2] No such file or directory: "
        "'does-not-exist.json'"),
    row("undecodable-file", "report --input record.json",
        "cannot read record.json: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte", b"\xff\xfe["),
    row("not-records-number", "report --input record.json",
        "expected a JSON array of knot records", b"5"),
    row("not-records-string", "report --input record.json",
        "expected a JSON array of knot records", b'"abc"'),
    *rows("integer-of-5000-digits", "obstruct, report --json, plumbing-check",
          f"JSON integer literal above {DIGITS} digits",
          '[{"name": "r", "goeritz": [[-' + "7" * 5000 + "]]}]"),
    *rows("nested-100000-deep", "obstruct, report --json, plumbing-check",
          "JSON nested too deeply", "[" * 100_000 + "]" * 100_000),
    *(
        row(f"field-{name}", "obstruct --input -", f"record 0 {line}", json.dumps([record]))
        for name, record, line in [
            ("signature-string", {**X, "signature": "a"},
             "(x): 'signature' must be an integer, got 'a'"),
            ("signature-false", {**X, "signature": False},
             "(x): 'signature' must be an integer, got False"),
            ("signature-float", {**X, "signature": 2.0},
             "(x): 'signature' must be an integer, got 2.0"),
            ("determinant-string", {**X, "determinant": "3"},
             "(x): 'determinant' must be an integer, got '3'"),
            ("mirror_of-integer", {**X, "mirror_of": 7},
             "(x): 'mirror_of' must be a string, got 7"),
            ("vertices-bool",
             {"name": "w", "white_graph": {"vertices": True, "edges": [[0, 1, 1]] * 3}},
             "(w): white_graph 'vertices' must be an integer, got True"),
            ("edges-float", {"name": "w", "white_graph": {"vertices": 2, "edges": [[0, 1.7, 1]]}},
             f"{EDGES} [0, 1.7, 1]"),
            ("edges-pair", {"name": "w", "white_graph": {"vertices": 2, "edges": [[0, 1]]}},
             f"{EDGES} [0, 1]"),
            ("edges-object", {"name": "w", "white_graph": {"vertices": 2, "edges": {}}},
             "(w): white_graph 'edges' must be an array"),
            ("edges-missing", {"name": "w", "white_graph": {"vertices": 2}},
             "(w): white_graph needs 'vertices' and 'edges'"),
        ]
    ),
    # the budgets, checked before the work they bound: a box of 42^6 = 5.5e9
    # points, whose scan would take hours
    *rows("box", "obstruct, corrections, plumbing-check",
          "characteristic box has 5489031744 points, above the budget of 2000000",
          record_json([[-41 if i == j else int(abs(i - j) == 1) for j in range(6)]
                       for i in range(6)], name="big")),
    # the box of prod(1 - G_ii) points has 26,576 bits
    row("box-too-long-to-print", "obstruct --input record.json",
        "characteristic box has more than 2^26575 points, above the budget of 2000000",
        record_json([[-(10**4000), 0], [0, -(10**4000)]])),
    # an even determinant of 26,576 bits; the diagonal is positive, since with a
    # negative one the entry bound refuses these entries before the elimination
    row("even-too-long-to-print", "obstruct --input record.json",
        "cokernel order more than 2^26575 is even; need a knot form",
        record_json([[2, 10**4000], [10**4000, 2]])),
    *(
        param
        for sign, (matrix, line) in TOO_LONG_TO_PRINT.items()
        for param in rows(f"determinant-too-long-to-print-{sign}",
                          "obstruct, obstruct --json, corrections --json", line,
                          record_json(matrix))
    ),
    # a 3^13-point box, but entries of 4,000 digits: the elimination took about
    # 54 s; a stated determinant, which the elimination would check (more than
    # 10 s here), is checked only on a form that the entry checks admit
    *rows("huge-off-diagonal", "obstruct, plumbing-check", NOT_NEGATIVE,
          thirteen_huge([-2] * 13), ELIMINATION),
    *rows("huge-off-diagonal-stated-determinant", "obstruct, plumbing-check",
          NOT_NEGATIVE, thirteen_huge([-2] * 13, determinant=3), ELIMINATION),
    # a diagonal entry >= 0, which no box bounds: the elimination ran for more than 5 s
    *rows("huge-beside-diagonal-2", "obstruct, plumbing-check",
          BESIDE_A_DIAGONAL_ENTRY_AT_LEAST_ZERO, thirteen_huge([2] * 13), ELIMINATION),
    *rows("huge-beside-diagonal-minus-2-and-0", "obstruct, plumbing-check",
          BESIDE_A_DIAGONAL_ENTRY_AT_LEAST_ZERO, thirteen_huge([0] + [-2] * 12), ELIMINATION),
    *rows("dense-240", "obstruct, plumbing-check", f"form has dimension 240; {ABOVE_20}",
          dense_240()),
    # a record of 60 bytes: the (n - 1) x (n - 1) form of 2,000 vertices took
    # 0.9 s and 106 MB, and that of 10^6 vertices does not fit in memory;
    # beside a matrix of another dimension, the graph disagrees with it
    *(
        row(f"white-graph-{n}{name}", "obstruct --input record.json", line,
            white_graph(n, **fields), WHITE_GRAPH_FORM)
        for n in (2_000, 10**6)
        for name, fields, line in [
            ("", {}, f"form has dimension {n - 1}; {ABOVE_20}"),
            ("-beside-a-matrix", {"goeritz": [[-3]]},
             "record 0 (r): record 'r': white graph and stored matrix disagree"),
        ]
    ),
    # D = 1,990,917 and about 10^12, and no coordinate covector generates: a
    # generator pick would list all D cosets, but it runs only on accepted forms
    *rows("large-cyclic-indefinite", "obstruct, corrections",
          "correction terms require a negative-definite form",
          record_json([[-1409, 0], [0, 1413]])),
    *rows("large-cyclic-positive-definite", "obstruct, corrections",
          "correction terms require a negative-definite form",
          record_json([[1000003, 0], [0, 1000033]])),
    # the output: on diag(-3, -5), the JSON would print 4U, of 4,301 digits
    *rows("generator-too-long-for-the-json", "corrections, obstruct, match",
          f"the JSON output needs an integer of more than {DIGITS} digits",
          record_json([[-3, 0], [0, -5]]), flags=f"--generator {HUGE_UNIT} --json"),
]


@pytest.mark.parametrize("argv, given, line, never", REFUSED)
def test_refused(argv, given, line, never, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if never is not None:
        module, attribute = never
        ran = mock.Mock(side_effect=AssertionError(f"{module}.{attribute} ran"))
        monkeypatch.setattr(importlib.import_module(f"unknotone.{module}"), attribute, ran)
    if given is TTY:
        monkeypatch.setattr(sys, "stdin", TTY)
    elif "record.json" in argv:
        data = given if isinstance(given, bytes) else given.encode()
        (tmp_path / "record.json").write_bytes(data)
    elif given is not None:
        monkeypatch.setattr(sys, "stdin", piped(given))
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out, err.splitlines()) == (3, "", [f"error: {line}"])
    assert seconds < 1.0
