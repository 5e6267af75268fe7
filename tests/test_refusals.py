"""Every run of the CLI in this interpreter is one row, of ``REFUSED`` or ``ANSWERED``.

A refusal exits 3 within a second, with nothing on standard output and one
``error:`` line on standard error; its row gives the arguments, the input
and the text after ``error: ``.  An answer's row gives the arguments, the
input, the exit code, the exact lines of standard error, optionally a bound
in seconds, and standard output: a list of its lines, or for JSON a dict of
top-level keys and their exact values; one that holds ``...`` names only
the leading lines or some of the keys.  Either row may give the
``(module, attribute)`` of ``unknotone`` that must not run, which the test
replaces by one that raises.  The input is ``None`` when the command reads
no record, ``TTY`` for a terminal, and otherwise the text or bytes of
``record.json`` in the working directory when the arguments name it, else
of a piped standard input, decoded as strict UTF-8 unless the input is a
pair ``(bytes, errors)``.  Each row calls ``cli.main`` in this interpreter.
"""

import importlib
import json
import random
import sys
import time
from types import SimpleNamespace
from unittest import mock

import pytest

from helpers import B27, EIGHT_TEN_JSON, piped
from unknotone.cli import main

TTY = SimpleNamespace(isatty=lambda: True)  # a standard input that is a terminal
ELIMINATION = ("lattice", "_gauss_jordan")
WHITE_GRAPH_FORM = ("catalog", "goeritz_from_white_graph")
CORRECTIONS = ("report", "correction_vector")
DIGITS = sys.get_int_max_str_digits()
ABOVE_20 = "above dimension 20 no characteristic box fits the budget of 2000000"


def record_json(rows, **fields):
    """The text of a file of one record of Gram matrix ``rows``, named "r" unless ``fields``
    names it."""
    return json.dumps([{"name": "r", "goeritz": rows, **fields}])


# a record of signature 0 whose cokernel, Z/3 + Z/3003, is not cyclic
NON_CYCLIC = {"name": "r", "goeritz": [[-3, 0], [0, -3003]], "signature": 0}

# non-cyclic (Z/3 + Z/(D/3)) with D of 26,579 bits, of either sign on the
# diagonal: the NonCyclicH1 verdict and the cokernel error would print D
# and its invariant factors.  With the negative diagonal the entry bound
# refuses the form first, before the elimination.
TOO_LONG_TO_PRINT = {
    "negative": (
        [[-3, 3 * 10**4000], [3 * 10**4000, -3]],
        "Gram entry (1, 0) has G_ij^2 > G_ii G_jj; the form is not negative-definite",
    ),
    "positive": (
        [[3, 3 * 10**4000], [3 * 10**4000, 3]],
        "cokernel order more than 2^26578 is too long to print",
    ),
}

# a unit mod 15 of 4,300 digits, which argparse still reads; on diag(-3, -5) the
# generator pick's fallback gives (2, 4), so the JSON would print 4U, of 4,301 digits
HUGE_UNIT = str(3 * 10**4299 + 1)


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
UNDECODABLE_NAME = b'[{"name":"\xff","goeritz":[[-3]]}]'
UNDECODABLE = "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
# D = 99,999: a listing of 2 * phi(D) * D = 1.3e10 entries
ABOVE_LISTING = record_json([[-2, 1], [1, -50000]])
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
    row("sign-refined-strong", "obstruct --knot 8_8 --sign-refined --strong",
        "--sign-refined takes no --strong", never=("catalog", "builtin_record")),
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
    *rows("undecodable-name", "obstruct, report", f"cannot read record.json: {UNDECODABLE}",
          UNDECODABLE_NAME),
    # the error handler of sys.stdin is set by the locale or PYTHONIOENCODING
    *(
        row(f"undecodable-name-piped-{command}-{errors}", command,
            f"cannot read standard input: {UNDECODABLE}", (UNDECODABLE_NAME, errors))
        for command in ("obstruct", "report")
        for errors in ("strict", "surrogateescape")
    ),
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
    # points, whose scan would take hours (match checks it before its listing)
    *rows("box", "obstruct, corrections, plumbing-check, match",
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
    # the listing budget, checked before the correction terms, and only where a
    # listing is printed (see ANSWERED)
    *rows("listing-above-budget", "match, obstruct --json",
          "matching listing for D = 99999 has 12959870400 entries, above the budget of 10000000",
          ABOVE_LISTING, CORRECTIONS),
    # an even determinant, 10004: the correction terms refuse it
    row("listing-even", "match --input record.json",
        "cokernel order 10004 is even; need a knot form", record_json([[-3, 1], [1, -3335]])),
    # the generator: a non-unit is refused after the scan, here on D = 3999
    row("generator-no-unit", "corrections --input record.json --generator 3",
        "3 is not a unit mod 3999", record_json([[-2, 1], [1, -2000]])),
    # the output: on diag(-3, -5), the JSON would print 4U, of 4,301 digits
    *rows("generator-too-long-for-the-json", "corrections",
          f"the JSON output needs an integer of more than {DIGITS} digits",
          record_json([[-3, 0], [0, -5]]), flags=f"--generator {HUGE_UNIT} --json"),
]


def answer(id, argv, out, given=None, code=0, err=(), never=None, within=None):
    return pytest.param(argv.split(), given, code, out, list(err), never, within, id=id)


def answers(id, command, given, lines, payload):
    """The rows of ``command --input record.json``, which prints ``lines``, and of its
    ``--json``, which prints ``payload``."""
    argv = f"{command} --input record.json"
    return [answer(id, argv, lines, given), answer(f"{id}-json", f"{argv} --json", payload, given)]


A_8_10 = (
    "-1/2, -23/54, -11/54, 1/6, 37/54, -35/54, 1/6, -47/54, 13/54, -1/2, -59/54, 25/54, 1/6, "
    "1/54, 1/54, 1/6, 25/54, -59/54, -1/2, 13/54, -47/54, 1/6, -35/54, 37/54, 1/6, -11/54, -23/54"
).split(", ")
BROKEN = {"name": "broken", "goeritz": [[-2, 1], [0, -2]]}
NOT_SYMMETRIC = (
    "record {} (broken): bad Goeritz matrix: Gram matrix is not symmetric at (1, 0): 0 != 1"
)
DETERMINANT_1 = [[-2, 1], [1, -1]]

ANSWERED = [
    answer("corrections-8_10-json", "corrections --knot 8_10 --json",
           {"knot": "8_10", "D": 27, "A": A_8_10, "gate": True, ...: ...}),
    answer("gamma-27", "gamma --D 27", ["D = 27", "B = " + ", ".join(map(str, B27))]),
    answer("gamma-27-json", "gamma --D 27 --json", {"D": 27, "B": list(map(str, B27)), ...: ...}),
    answer("obstruct-8_10", "obstruct --knot 8_10",
           ["8_10: D = 27, verdict NoSymmetricMatching", "  witnesses: 2, 2, [4], 2, 2, 2"]),
    # the witness is the one even positive matching, which is not symmetric
    answer("obstruct-8_10-json", "obstruct --knot 8_10 --json",
           {"knot": "8_10", "D": 27, "verdict": "NoSymmetricMatching", "obstructed": True,
            "gate_applied": True, "witnesses": ["2, 2, [4], 2, 2, 2"], ...: ...}),
    answer("obstruct-piped", "obstruct",
           ["8_10: D = 27, verdict NoSymmetricMatching", ...], EIGHT_TEN_JSON),
    answer("sign-refined-9_33", "obstruct --knot 9_33 --sign-refined", [
        "9_33: signature 0",
        "  negative->positive: NoSymmetricMatching  "
        "[2, 2, 2, 2, 4, 4, 4, 6, 6, [8], 6, 6, 4, 4, 2, 2, 2, 2]",
        "  positive->negative: NotObstructed  "
        "[2, 2, 2, 2, 4, 4, 4, 6, 6, [8], 6, 6, 4, 4, 4, 2, 2, 2, 2]",
    ]),
    answer("alexander-9_33", "alexander --knot 9_33", [
        "9_33:",
        "  matching: 2, 2, 2, 2, 4, 4, 4, 6, 6, [8], 6, 6, 4, 4, 4, 2, 2, 2, 2",
        "  torsion:  4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 0",
        "  Delta(T) = -1 + (T^1 + T^-1) - (T^2 + T^-2) + (T^3 + T^-3) - (T^5 + T^-5) "
        "+ (T^6 + T^-6) - (T^9 + T^-9) + (T^10 + T^-10)",
        "  coefficient shape admissible: True",
    ]),
    # B needs a cyclic cokernel of order at least 3
    *(
        row
        for name, matrix in [("non-cyclic", [[-3, 0], [0, -3]]), ("determinant-1", [[-1]])]
        for row in answers(f"alexander-{name}", "alexander", record_json(matrix),
                           ["r: no symmetric even positive matching with C_0 = 0"],
                           {"knot": "r", "companions": []})
    ),
    answer("plumbing-check-10_125", "plumbing-check --knot 10_125", [
        "10_125: 11 bounded classes, |det| = 11",
        "  L-space certificate: yes",
        "  A = 1/2, 35/22, 19/22, 7/22, -1/22, -5/22, -5/22, -1/22, 7/22, 19/22, 35/22",
    ]),
    # the count certifies these plumbing forests; A is left out, since the scan
    # refuses an even or non-cyclic cokernel
    *(
        row
        for name, matrix, D in [("even", [[-2]], 2), ("non-cyclic", [[-3, 0], [0, -3]], 9),
                                ("even-dimension-3", [[-2, 1, 0], [1, -2, 1], [0, 1, -4]], 10)]
        for row in answers(f"plumbing-check-{name}", "plumbing-check", record_json(matrix),
                           [f"r: {D} bounded classes, |det| = {D}", "  L-space certificate: yes"],
                           {"knot": "r", "classes": D, "determinant": D, "is_lspace": True})
    ),
    # D = 1: the cokernel has no invariant factor, and is cyclic
    *(
        answer(f"plumbing-check-unimodular-{name}", "plumbing-check --json --input record.json",
               {"knot": "r", "classes": 1, "determinant": 1, "is_lspace": True, "A": ["0"]},
               record_json(matrix))
        for name, matrix in [("dimension-1", [[-1]]), ("dimension-2", DETERMINANT_1)]
    ),
    # a batch reports past a record that fails to parse, and exits 3
    answer("report-past-a-bad-record", "report --input record.json",
           ["    good  D=  3  NotObstructed              (all zero)"],
           json.dumps([{"name": "good", "goeritz": [[-3]]}, BROKEN]),
           code=3, err=[f"PARSE ERROR: {NOT_SYMMETRIC.format(1)}"]),
    # no verdict to print: standard output stays empty, not one empty line
    answer("report-only-parse-failures", "report --input record.json", [],
           json.dumps([BROKEN]), code=3, err=[f"PARSE ERROR: {NOT_SYMMETRIC.format(0)}"]),
    # the failure is in the JSON, and nothing goes to standard error
    answer("report-only-parse-failures-json", "report --json --input record.json",
           {"records": [], "parse_errors": [{"index": 0, "error": NOT_SYMMETRIC.format(0)}]},
           json.dumps([BROKEN]), code=3),
    # parsing succeeded: the analysis error is the record's entry
    answer("report-analysis-error-json", "report --json --input record.json", {
        "parse_errors": [],
        "records": [
            {"knot": "fine", "D": 3, "A": ["-1/2", "1/6", "1/6"], "B": ["1/2", "-1/6", "-1/6"],
             "generator": [1], "verdict": "NotObstructed", "obstructed": False,
             "gate_applied": True, "witnesses": ["(all zero)"]},
            {"knot": "indefinite", "error": "cokernel order 6 is even; need a knot form"},
        ],
    }, json.dumps([{"name": "fine", "goeritz": [[-3]]},
                   {"name": "indefinite", "goeritz": [[2, 0], [0, -3]]}])),
    # piped records are no --input: the tables still come from the bundled records
    answer("paper-tables-ignore-piped-input", "report --paper-tables --json", {
        "no_even_matching": ["7_4", "8_8", "8_16", "9_15", "9_17", "9_31", "10_67", "10_105",
                             "10_106", "10_109", "10_116", "10_121"],
        "no_even_positive_matching": ["9_5", "10_68"],
        ...: ...,
    }, EIGHT_TEN_JSON),
    *(
        answer(f"report-determinant-too-long-to-print-{sign}", "report --json --input record.json",
               {"parse_errors": [], "records": [{"knot": "r", "error": line}]},
               record_json(matrix), within=1.0)
        for sign, (matrix, line) in TOO_LONG_TO_PRINT.items()
    ),
    # the single-record commands refuse these graphs in one line (REFUSED); a
    # batch enters the refusal as the record's error
    *(
        answer(f"report-white-graph-{n}", "report --json --input record.json",
               {"parse_errors": [],
                "records": [{"knot": "r", "error": f"form has dimension {n - 1}; {ABOVE_20}"}]},
               white_graph(n), never=WHITE_GRAPH_FORM)
        for n in (2_000, 10**6)
    ),
    # above the listing budget (REFUSED) the verdict scans without a listing
    answer("verdict-above-the-listing-budget", "obstruct --input record.json",
           ["r: D = 99999, verdict NotObstructed", ...], ABOVE_LISTING),
    answer("text-match-renders-no-json", "match --knot 8_10",
           ["8_10: D = 27, 18 matchings", ...], never=("report", "report_to_json")),
    # no listing: Z/3 + Z/3003 is not cyclic, though 9009 is over the listing budget
    answer("listing-non-cyclic", "match --input record.json", ["r: D = 9009, 0 matchings"],
           record_json([[-3, 0], [0, -3003]])),
    answer("listing-determinant-1", "match --input record.json", ["r: D = 1, 0 matchings"],
           record_json(DETERMINANT_1)),
    # the JSON of the same arguments is refused (REFUSED); the text prints no generator
    answer("generator-too-long-for-the-json-corrections-text",
           f"corrections --generator {HUGE_UNIT} --input record.json", ["r: D = 15", ...],
           record_json([[-3, 0], [0, -5]])),
    answer("non-cyclic-json", "obstruct --json --input record.json",
           {"verdict": "NonCyclicH1", "invariant_factors": [3, 3003], ...: ...},
           json.dumps([NON_CYCLIC])),
    # a record of signature 0 whose two signed verdicts come from no matching
    *(
        row
        for name, record, outcome, obstructed in [
            ("non-cyclic", NON_CYCLIC, "NonCyclicH1", True),
            ("determinant-1", {"name": "r", "goeritz": DETERMINANT_1, "signature": 0},
             "UnknotDeterminant", False),
        ]
        for verdict in [{"outcome": outcome, "obstructed": obstructed, "gate_applied": False,
                         "strong": False, "witnesses": []}]
        for row in answers(f"sign-refined-{name}", "obstruct --sign-refined", json.dumps([record]),
                           ["r: signature 0", f"  negative->positive: {outcome}",
                            f"  positive->negative: {outcome}"],
                           {"knot": "r", "signature": 0, "negative_to_positive": verdict,
                            "positive_to_negative": verdict})
    ),
]

def run(argv, given, never, tmp_path, monkeypatch, capsys):
    """``cli.main(argv)`` on the input ``given``, with ``never`` made to raise:
    (exit code, standard output, standard error, seconds)."""
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
        data, errors = given if isinstance(given, tuple) else (given, "strict")
        monkeypatch.setattr(sys, "stdin", piped(data, errors))
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    return code, out, err, seconds


@pytest.mark.parametrize("argv, given, line, never", REFUSED)
def test_refused(argv, given, line, never, tmp_path, monkeypatch, capsys):
    code, out, err, seconds = run(argv, given, never, tmp_path, monkeypatch, capsys)
    assert (code, out, err.splitlines()) == (3, "", [f"error: {line}"])
    assert seconds < 1.0


@pytest.mark.parametrize("argv, given, code, out, err, never, within", ANSWERED)
def test_answered(argv, given, code, out, err, never, within, tmp_path, monkeypatch, capsys):
    exit_code, stdout, stderr, seconds = run(argv, given, never, tmp_path, monkeypatch, capsys)
    assert (exit_code, stderr.splitlines()) == (code, err)
    if isinstance(out, dict):
        expected = {key: value for key, value in out.items() if key is not ...}
        payload = json.loads(stdout)
        if ... in out:
            payload = {key: payload.get(key) for key in expected}
        assert payload == expected
    else:
        expected = [line for line in out if line is not ...]
        lines = stdout.splitlines()
        assert (lines[: len(expected)] if ... in out else lines) == expected
    assert within is None or seconds < within
