import io
import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import EIGHT_TEN_JSON, HUGE_UNIT, NON_CYCLIC, TOO_LONG_TO_PRINT, piped, record_file
from unknotone.cli import main

def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corrections_json(capsys):
    code, out, _ = run_main(["corrections", "--knot", "8_10", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["D"] == 27
    assert payload["A"][0] == "-1/2"
    assert payload["gate"] is True


def test_gamma_text_and_json(capsys):
    code, out, _ = run_main(["gamma", "--D", "27"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("B = 1/2, 23/54, 11/54, -1/6")
    code, out, _ = run_main(["gamma", "--D", "27", "--json"], capsys)
    payload = json.loads(out)
    assert payload["B"][9] == "-3/2"


def test_obstruct_eight_ten(capsys):
    code, out, _ = run_main(["obstruct", "--knot", "8_10"], capsys)
    assert code == 0
    assert "NoSymmetricMatching" in out
    assert "2, 2, [4], 2, 2, 2" in out


def test_obstruct_json_shape(capsys):
    code, out, _ = run_main(["obstruct", "--knot", "8_10", "--json"], capsys)
    payload = json.loads(out)
    assert payload["knot"] == "8_10"
    assert payload["verdict"] == "NoSymmetricMatching"
    assert payload["gate_applied"] is True
    assert payload["witnesses"] == ["2, 2, [4], 2, 2, 2"]
    assert any(m["flags"]["even"] and m["flags"]["positive"] for m in payload["matchings"])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_stdin_single_record(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", piped(EIGHT_TEN_JSON))
    code, out, _ = run_main(["obstruct"], capsys)
    assert code == 0
    assert "NoSymmetricMatching" in out


def test_match_lists_flags(capsys):
    code, out, _ = run_main(["match", "--knot", "8_10"], capsys)
    assert code == 0
    assert "matchings" in out.splitlines()[0]
    # the unique even positive matching climbs the staircase but is asymmetric
    assert any("[EP-t]" in line for line in out.splitlines())


def test_sign_refined_nine_33(capsys):
    code, out, _ = run_main(["obstruct", "--knot", "9_33", "--sign-refined"], capsys)
    assert code == 0
    lines = out.splitlines()
    outcomes = [line.split(":")[1].strip().split()[0] for line in lines[1:3]]
    assert sorted(outcomes) == ["NoSymmetricMatching", "NotObstructed"]


def test_alexander_nine_33(capsys):
    code, out, _ = run_main(["alexander", "--knot", "9_33"], capsys)
    assert code == 0
    assert "torsion:  4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 0" in out
    assert "Delta(T)" in out


@pytest.mark.parametrize("rows", [[[-3, 0], [0, -3]], [[-1]]], ids=["non-cyclic", "determinant-1"])
def test_alexander_lists_no_companion_without_a_comparison_vector(rows, tmp_path, capsys):
    # B needs a cyclic cokernel of order at least 3
    path = record_file(tmp_path, rows)
    code, out, err = run_main(["alexander", "--input", path], capsys)
    assert (code, out, err) == (0, "r: no symmetric even positive matching with C_0 = 0\n", "")
    code, out, err = run_main(["alexander", "--json", "--input", path], capsys)
    assert (code, json.loads(out), err) == (0, {"companions": [], "knot": "r"}, "")


def test_plumbing_check_ten_125(capsys):
    code, out, _ = run_main(["plumbing-check", "--knot", "10_125"], capsys)
    assert code == 0
    assert "11 bounded classes" in out
    assert "L-space certificate: yes" in out


def test_report_batch_continues_past_bad_records(tmp_path, capsys):
    bad = [
        {"name": "good", "goeritz": [[-3]]},
        {"name": "broken", "goeritz": [[-2, 1], [0, -2]]},
    ]
    path = tmp_path / "records.json"
    path.write_text(json.dumps(bad))
    code, out, err = run_main(["report", "--input", str(path)], capsys)
    assert code == 3  # a record failed to parse
    assert "good" in out
    assert "PARSE ERROR" in err


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_batch_of_only_parse_failures_exits_3_and_prints_no_empty_line(flags, tmp_path, capsys):
    path = tmp_path / "records.json"
    path.write_text(json.dumps([{"name": "broken", "goeritz": [[-2, 1], [0, -2]]}]))
    code, out, err = run_main(["report", "--input", str(path), *flags], capsys)
    message = "record 0 (broken): bad Goeritz matrix: Gram matrix is not symmetric at (1, 0): 0 != 1"
    assert code == 3
    if flags:
        # the failure is in the JSON, and nothing goes to standard error
        payload = {"records": [], "parse_errors": [{"index": 0, "error": message}]}
        assert (json.loads(out), err) == (payload, "")
    else:
        # no verdict to print: standard output stays empty, not one empty line
        assert (out, err.splitlines()) == ("", [f"PARSE ERROR: {message}"])


def test_report_json_includes_analysis_errors(tmp_path, capsys):
    records = [
        {"name": "fine", "goeritz": [[-3]]},
        {"name": "indefinite", "goeritz": [[2, 0], [0, -3]]},
    ]
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    code, out, _ = run_main(["report", "--input", str(path), "--json"], capsys)
    assert code == 0  # parse succeeded; the analysis error lives in the summary
    payload = json.loads(out)
    entries = {e["knot"]: e for e in payload["records"]}
    assert "error" in entries["indefinite"]
    assert entries["fine"]["verdict"]


def test_paper_tables_json(capsys):
    code, out, _ = run_main(["report", "--paper-tables", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "10_121" in payload["no_even_matching"] or "8_16" in payload["no_even_matching"]
    two = payload["ten_crossing_unknotting_two"]
    assert len(two) == 24


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "unknotone.cli", "obstruct", "--knot", "8_10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "NoSymmetricMatching" in proc.stdout


def test_a_reader_that_stops_early_ends_the_run_quietly(src_env):
    # the JSON tables, about 120 kB, are more than a pipe holds, so the run is
    # still writing when the reader closes after two lines, as `| head -2` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "unknotone.cli", "report", "--all", "--paper-tables", "--json"],
        env=src_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert lines == [b"{\n", b'  "asymmetric_only": [\n']
    assert err == b""


def test_paper_tables_ignore_piped_standard_input(capsys, monkeypatch):
    # piped records are no --input: the tables still come from the bundled records
    monkeypatch.setattr(sys, "stdin", io.StringIO(EIGHT_TEN_JSON))
    code, out, err = run_main(["report", "--paper-tables", "--json"], capsys)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["records"]) == 54


@pytest.mark.parametrize(
    "rows, message", TOO_LONG_TO_PRINT.values(), ids=TOO_LONG_TO_PRINT.keys()
)
def test_report_enters_a_determinant_too_long_to_print_as_an_error(
    rows, message, tmp_path, capsys
):
    path = record_file(tmp_path, rows)
    start = time.perf_counter()
    code, out, err = run_main(["report", "--json", "--input", path], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "parse_errors": [],
        "records": [{"knot": "r", "error": message}],
    }


@pytest.mark.parametrize("vertices", [2_000, 10**6])
def test_a_large_white_graph_is_refused_before_its_form_is_built(
    vertices, tmp_path, capsys, monkeypatch
):
    # a record of 60 bytes: the (n - 1) x (n - 1) form of 2,000 vertices took
    # 0.9 s and 106 MB, and that of 10^6 vertices does not fit in memory
    from unknotone import catalog

    def never(graph):
        raise AssertionError("the form was built")

    monkeypatch.setattr(catalog, "goeritz_from_white_graph", never)
    path = tmp_path / "record.json"
    path.write_text(
        json.dumps({"name": "r", "white_graph": {"vertices": vertices, "edges": [[0, 1, 1]]}})
    )
    message = (
        f"form has dimension {vertices - 1}; above dimension 20 no characteristic box fits "
        "the budget of 2000000"
    )
    # the refusal is the record's error entry, as for a matrix of that dimension; the
    # single-record commands refuse it in one line (tests/test_refusals.py)
    code, out, err = run_main(["report", "--json", "--input", str(path)], capsys)
    assert (code, err, json.loads(out)["records"]) == (0, "", [{"knot": "r", "error": message}])


# Runs one command in a fresh interpreter and prints, as its last line, the
# module names of ``sys.modules`` at three points, as JSON: before any package
# import, after ``import unknotone``, and after the command.
COLD_START = (
    "import sys\n"
    "start = list(sys.modules)\n"
    "import unknotone\n"
    "bare = list(sys.modules)\n"
    "from unknotone import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "done = list(sys.modules)\n"
    "import json\n"
    "print(json.dumps([start, bare, done]))\n"
    "sys.exit(code)\n"
)
# modules that no command may load: only the ``values`` views build Fractions,
# and no command reads them; the value types are plain classes
# (``lattice.Value``), not dataclasses, which load ``inspect``; and no command
# starts a process pool
NEVER_LOADED = {"fractions", "dataclasses", "inspect", "concurrent.futures.process"}
# the whole module set of these commands, besides cli and errors
ONLY = {
    "gamma": {"gamma", "lattice"},
    "plumbing-check": {"catalog", "lattice", "corrections", "plumbing"},
}


@pytest.mark.parametrize(
    "command",
    [
        "obstruct --knot 8_10",
        "obstruct --knot 10_121 --json",
        "match --knot 9_33 --json",
        "alexander --knot 9_33",
        "plumbing-check --knot 10_125",
        "gamma --D 1019 --json",
        "report --paper-tables --json",
    ],
)
def test_a_command_loads_only_its_own_modules(command, src_env):
    # the one cold start per command: what a run imports is a claim about a process
    argv = command.split()
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, *argv], env=src_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    start, bare, done = map(set, json.loads(proc.stdout.splitlines()[-1]))
    # a bare import of the package loads no submodule
    assert not {name for name in bare if name.startswith("unknotone.")}
    assert NEVER_LOADED & done == set()
    added = done - start
    # the site hooks may load third-party modules before any program code runs,
    # so only what the run adds is checked: the standard library and the package
    foreign = {name.partition(".")[0] for name in added} - sys.stdlib_module_names
    assert foreign == {"unknotone"}
    loaded = {name.removeprefix("unknotone.") for name in added if name.startswith("unknotone.")}
    if argv[0] in ONLY:
        assert loaded == {"cli", "errors", *ONLY[argv[0]]}
    else:
        assert "plumbing" not in loaded
        assert argv[0] == "alexander" or "alexander" not in loaded


def test_the_verdict_streams_above_the_listing_budget(tmp_path, capsys):
    # D = 99,999: `match` refuses the 2 * phi(D) * D = 1.3e10 entries of its listing
    # (test_listing_above_budget_is_refused_before_any_analysis); the verdict
    # scans without it
    path = record_file(tmp_path, [[-2, 1], [1, -50000]])
    code, out, err = run_main(["obstruct", "--input", path], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "r: D = 99999, verdict NotObstructed"


@pytest.mark.parametrize("command", [["match"], ["obstruct", "--json"]])
def test_listing_above_budget_is_refused_before_any_analysis(command, tmp_path, capsys, monkeypatch):
    import unknotone.report as report_mod

    def never(*args, **kwargs):
        raise AssertionError("correction_vector ran before the listing budget was checked")

    monkeypatch.setattr(report_mod, "correction_vector", never)
    path = record_file(tmp_path, [[-2, 1], [1, -50000]])
    code, out, err = run_main([*command, "--input", path], capsys)
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: matching listing for D = 99999 has 12959870400 entries, "
        "above the budget of 10000000"
    ]


def test_text_match_renders_no_json(capsys, monkeypatch):
    import unknotone.report as report_mod

    def never(*args, **kwargs):
        raise AssertionError("text match rendered the JSON report")

    monkeypatch.setattr(report_mod, "report_to_json", never)
    code, out, err = run_main(["match", "--knot", "8_10"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("8_10: D = 27, ")


@pytest.mark.parametrize(
    "rows, argv, expected",
    [
        # Z/3 + Z/3003 is not cyclic: no listing, though 9009 is over budget
        ([[-3, 0], [0, -3003]], [], (0, "r: D = 9009, 0 matchings")),
        # D = 1
        ([[-2, 1], [1, -1]], [], (0, "r: D = 1, 0 matchings")),
        # even determinant 10004: the correction terms refuse it
        ([[-3, 1], [1, -3335]], [], (3, "error: cokernel order 10004 is even; need a knot form")),
        # D = 3999 is over the listing budget, but 3 is not a unit mod 3999
        (
            [[-2, 1], [1, -2000]],
            ["--generator", "3"],
            (3, "error: 3 is not a unit mod 3999"),
        ),
        # the box refusal comes first, as without the listing check
        (
            [[-41 if i == j else int(abs(i - j) == 1) for j in range(6)] for i in range(6)],
            [],
            (3, "error: characteristic box has 5489031744 points, above the budget of 2000000"),
        ),
    ],
)
def test_listing_budget_refuses_only_records_that_would_list(rows, argv, expected, tmp_path, capsys):
    code, out, err = run_main(["match", "--input", record_file(tmp_path, rows), *argv], capsys)
    assert (code, (out or err).splitlines()[0]) == expected


def test_piped_report_reads_like_input_dash(capsys, monkeypatch):
    # one good record and one bad: both print the good verdict and the parse error
    bad = {"name": "bad", "goeritz": [[1, 2]]}
    data = json.dumps([*json.loads(EIGHT_TEN_JSON), bad])

    def run(*argv):
        monkeypatch.setattr(sys, "stdin", piped(data))
        return run_main(["report", *argv], capsys)

    assert run("--json") == run("--json", "--input", "-")
    code, out, err = run()
    assert (code, out, err) == run("--input", "-")
    assert code == 3
    assert out.split()[:3] == ["8_10", "D=", "27"]
    assert err.splitlines() == [
        "PARSE ERROR: record 1 (bad): bad Goeritz matrix: Gram matrix must be square"
    ]


@pytest.mark.parametrize("command", ["corrections", "obstruct", "match"])
def test_a_generator_too_long_for_the_json_is_accepted_in_text(command, tmp_path, capsys):
    # the JSON of the same arguments is refused (tests/test_refusals.py); the text
    # prints no generator
    path = record_file(tmp_path, [[-3, 0], [0, -5]])
    code, out, err = run_main([command, "--generator", HUGE_UNIT, "--input", path], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("r: D = 15")


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
@pytest.mark.parametrize("command", ["obstruct", "report"])
def test_standard_input_is_decoded_as_strict_utf8_like_a_file(
    command, errors, tmp_path, capsys, monkeypatch
):
    # the error handler of sys.stdin is set by the locale or PYTHONIOENCODING
    data = b'[{"name":"\xff","goeritz":[[-3]]}]'
    path = tmp_path / "record.json"
    path.write_bytes(data)
    reason = "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
    code, out, err = run_main([command, "--input", str(path)], capsys)
    assert (code, out, err.splitlines()) == (3, "", [f"error: cannot read {path}: {reason}"])
    monkeypatch.setattr(sys, "stdin", piped(data, errors))
    code, out, err = run_main([command], capsys)
    assert (code, out, err.splitlines()) == (3, "", [f"error: cannot read standard input: {reason}"])


def test_obstruct_json_names_the_invariant_factors_of_a_non_cyclic_record(tmp_path, capsys):
    path = tmp_path / "record.json"
    path.write_text(json.dumps([NON_CYCLIC]))
    code, out, err = run_main(["obstruct", "--json", "--input", str(path)], capsys)
    payload = json.loads(out)
    assert (code, err, payload["verdict"]) == (0, "", "NonCyclicH1")
    assert payload["invariant_factors"] == [3, 3003]


def test_sign_refined_on_a_non_cyclic_record(tmp_path, capsys):
    path = tmp_path / "record.json"
    path.write_text(json.dumps([NON_CYCLIC]))
    argv = ["obstruct", "--sign-refined", "--input", str(path)]
    code, out, err = run_main(argv, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "r: signature 0",
        "  negative->positive: NonCyclicH1",
        "  positive->negative: NonCyclicH1",
    ]
    code, out, err = run_main([*argv, "--json"], capsys)
    assert (code, err) == (0, "")
    verdict = {
        "outcome": "NonCyclicH1",
        "obstructed": True,
        "gate_applied": False,
        "strong": False,
        "witnesses": [],
    }
    assert json.loads(out) == {
        "knot": "r",
        "signature": 0,
        "negative_to_positive": verdict,
        "positive_to_negative": verdict,
    }


def test_sign_refined_on_determinant_one(tmp_path, capsys):
    path = tmp_path / "record.json"
    path.write_text(json.dumps([{"name": "r", "goeritz": [[-2, 1], [1, -1]], "signature": 0}]))
    argv = ["obstruct", "--sign-refined", "--input", str(path)]
    code, out, err = run_main(argv, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "r: signature 0",
        "  negative->positive: UnknotDeterminant",
        "  positive->negative: UnknotDeterminant",
    ]
    code, out, err = run_main([*argv, "--json"], capsys)
    assert (code, err) == (0, "")
    verdict = {
        "outcome": "UnknotDeterminant",
        "obstructed": False,
        "gate_applied": False,
        "strong": False,
        "witnesses": [],
    }
    assert json.loads(out) == {
        "knot": "r",
        "signature": 0,
        "negative_to_positive": verdict,
        "positive_to_negative": verdict,
    }


@pytest.mark.parametrize(
    "rows, D",
    [([[-2]], 2), ([[-3, 0], [0, -3]], 9), ([[-2, 1, 0], [1, -2, 1], [0, 1, -4]], 10)],
    ids=["even", "non-cyclic", "even-dimension-3"],
)
def test_plumbing_check_certifies_where_the_scan_does_not_apply(rows, D, tmp_path, capsys):
    # the count certifies these plumbing forests; A is left out, since the
    # scan refuses an even or non-cyclic cokernel
    path = record_file(tmp_path, rows)
    code, out, err = run_main(["plumbing-check", "--input", path], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"r: {D} bounded classes, |det| = {D}", "  L-space certificate: yes"]
    code, out, err = run_main(["plumbing-check", "--json", "--input", path], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"knot": "r", "classes": D, "determinant": D, "is_lspace": True}


@pytest.mark.parametrize("rows", [[[-1]], [[-2, 1], [1, -1]]], ids=["dimension-1", "dimension-2"])
def test_plumbing_check_prints_A_on_a_unimodular_form(rows, tmp_path, capsys):
    # D = 1: the cokernel has no invariant factor, and is cyclic
    path = record_file(tmp_path, rows)
    code, out, err = run_main(["plumbing-check", "--json", "--input", path], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"knot": "r", "classes": 1, "determinant": 1, "is_lspace": True, "A": ["0"]}


# The CLI-boundary fuzz below sends JSON text through ``main`` within these
# size bounds:
# - trees of mixed types hold at most 12 leaves and 4 items per container;
# - matrices have dimension at most 3, with small entries (|n| <= 12, so a
#   box has at most 13^3 points) or big ones (2^64 <= |n| <= 10^40: on the
#   diagonal they put the box above the budget, off it they make the form
#   indefinite, and the elimination of a 3x3 form is cheap either way);
# - integer literals of 4,301 to 4,400 digits stand in matrices and
#   signatures;
# - white graphs have at most 4 vertices and 6 edges, with loops,
#   out-of-range ends, bad signs, bridges and duplicate edges.
# Larger forms with huge off-diagonal entries lie outside these bounds.
SMALL = st.integers(min_value=-12, max_value=12)
BIG = st.integers(min_value=2**64, max_value=10**40) | st.integers(
    min_value=-(10**40), max_value=-(2**64)
)
# a literal too long for json.dumps: a string marker, replaced after dumping
LONG_LITERAL = st.builds(
    lambda sign, digits: f"\x00long{sign}{digits}",
    st.sampled_from(["", "-"]),
    st.integers(min_value=4301, max_value=4400),
)
KEYS = st.text(max_size=3) | st.sampled_from(["name", "goeritz", "vertices", "edges"])
LEAVES = st.none() | st.booleans() | st.floats() | SMALL | BIG | st.text(max_size=3)
TREES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=12,
)


def rarely(draw):
    """True for about one draw in eight (Hypothesis favours the low end of a range)."""
    return draw(st.integers(min_value=0, max_value=7)) == 5


@st.composite
def matrices(draw):
    """Diagonally dominant negative-definite forms, rarely spoiled by a bad entry or row."""
    dim = draw(st.integers(min_value=0, max_value=3))
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.integers(min_value=-3, max_value=3))
    for i in range(dim):
        rows[i][i] = -sum(map(abs, rows[i])) - draw(st.integers(min_value=1, max_value=6))
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    for entries in (SMALL, BIG, LONG_LITERAL) if dim else ():
        if rarely(draw):
            i, j = draw(cells)
            rows[i][j] = draw(entries)
    if dim and rarely(draw):
        rows[draw(st.integers(0, dim - 1))].append(draw(TREES))  # a ragged row
    return rows


WHITE_GRAPHS = st.fixed_dictionaries({
    "vertices": st.integers(min_value=0, max_value=4),
    "edges": st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=4),
            st.sampled_from([1, 1, -1, 0]),
        ).map(list),
        max_size=6,
    ),
})
SIGNATURES = SMALL | BIG | LONG_LITERAL
GOOD_SHAPES = [
    st.fixed_dictionaries({"name": st.just("k"), key: values}, optional={"signature": SIGNATURES})
    for key, values in (("goeritz", matrices()), ("white_graph", WHITE_GRAPHS))
]
FIELDS = ("goeritz", "white_graph", "signature", "determinant", "mirror_of")
# records of the right shape, and (less often) records whose fields are any tree
TREE_RECORDS = st.fixed_dictionaries(
    {"name": st.one_of(st.just("k"), st.just("k"), TREES)},
    optional=dict.fromkeys(FIELDS, TREES),
)
RECORDS = st.one_of(*GOOD_SHAPES, *GOOD_SHAPES, TREE_RECORDS)
INPUTS = st.one_of(RECORDS, RECORDS, st.lists(RECORDS, min_size=1, max_size=3), TREES)


def _json_text(tree):
    text = json.dumps(tree)
    return re.sub(r'"\\u0000long(-?)(\d+)"', lambda m: m[1] + "9" * int(m[2]), text)


@settings(max_examples=120, deadline=timedelta(seconds=1))
@given(INPUTS)
def test_cli_boundary_fuzz(tree):
    text = _json_text(tree)
    for argv in (["obstruct"], ["report", "--json"], ["plumbing-check"]):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", piped(text)):
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*argv, "--input", "-"])
        assert code in (0, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 3 and argv[0] != "report":
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
