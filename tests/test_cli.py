import io
import json
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from unknotone.cli import main

EIGHT_TEN_JSON = json.dumps(
    [{"name": "8_10", "goeritz": [[-4, 1, 1], [1, -2, 1], [1, 1, -5]], "determinant": 27}]
)


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


def test_gamma_rejects_even(capsys):
    code, _, err = run_main(["gamma", "--D", "4"], capsys)
    assert code == 3
    assert "odd" in err


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


def test_obstruct_missing_file(capsys):
    code, _, err = run_main(["obstruct", "--input", "does-not-exist.json"], capsys)
    assert code == 3
    assert "cannot read" in err


def test_unknown_knot(capsys):
    code, _, err = run_main(["obstruct", "--knot", "99_99"], capsys)
    assert code == 3
    assert "99_99" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_stdin_single_record(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(EIGHT_TEN_JSON))
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


def test_sign_refined_requires_signature(capsys):
    code, _, err = run_main(["obstruct", "--knot", "8_10", "--sign-refined"], capsys)
    assert code == 3
    assert "signature" in err


def test_alexander_nine_33(capsys):
    code, out, _ = run_main(["alexander", "--knot", "9_33"], capsys)
    assert code == 0
    assert "torsion:  4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 0" in out
    assert "Delta(T)" in out


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


def test_cli_import_leaves_process_pool_out(src_env):
    code = (
        "import sys, unknotone.cli; "
        "assert 'concurrent.futures.process' not in sys.modules, 'the process pool was imported'"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_batch_reports_start_no_pool(src_env):
    # UNKNOT_THREADS=2 used to start a pool of two workers; it must stay inert
    code = (
        "import sys\n"
        "from unknotone import catalog, report\n"
        "records = catalog.builtin_dataset()\n"
        "entries = report.batch_reports(records)\n"
        "assert 'concurrent.futures.process' not in sys.modules, 'a process pool was started'\n"
        "assert [e['knot'] for e in entries] == [r.name for r in records]\n"
    )
    env = {**src_env, "UNKNOT_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["obstruct", "corrections", "plumbing-check"])
def test_box_above_budget_is_refused_quickly(command, tmp_path, src_env):
    # 42^6 = 5.5e9 characteristic candidates; scanning them would take hours
    rows = [[-41 if i == j else int(abs(i - j) == 1) for j in range(6)] for i in range(6)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps([{"name": "big", "goeritz": rows}]))
    proc = subprocess.run(
        [sys.executable, "-m", "unknotone.cli", command, "--input", str(path)],
        env=src_env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: characteristic box has 5489031744 points, above the budget of 2000000"
    ]


INPUT_COMMANDS = [["obstruct"], ["report", "--json"], ["plumbing-check"]]


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '[{"name": "r", "goeritz": [[-' + "7" * 5000 + "]]}]",
            f"error: JSON integer literal above {sys.get_int_max_str_digits()} digits",
        ),
        ("[" * 100_000 + "]" * 100_000, "error: JSON nested too deeply"),
    ],
    ids=["integer-of-5000-digits", "nested-100000-deep"],
)
@pytest.mark.parametrize("command", INPUT_COMMANDS, ids=" ".join)
def test_undecodable_input_exits_3_in_one_line(command, text, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run_main([*command, "--input", str(path)], capsys)
    assert (code, out, err.splitlines()) == (3, "", [message])


@pytest.mark.parametrize(
    "rows, message",
    [
        # the box of prod(1 - G_ii) points has 26,576 bits
        (
            [[-(10**4000), 0], [0, -(10**4000)]],
            "error: characteristic box has more than 2^26575 points, above the budget of 2000000",
        ),
        # a small box, but an even determinant of 26,576 bits
        (
            [[-2, 10**4000], [10**4000, -2]],
            "error: cokernel order more than 2^26575 is even; need a knot form",
        ),
    ],
    ids=["box", "even"],
)
def test_integers_too_long_to_print_are_refused_in_one_line(rows, message, tmp_path, capsys):
    code, out, err = run_main(["obstruct", "--input", _record_file(tmp_path, rows)], capsys)
    assert (code, out, err.splitlines()) == (3, "", [message])


# non-cyclic (Z/3 + Z/(D/3)) with D of 26,579 bits, of either sign on the
# diagonal: the NonCyclicH1 verdict and the cokernel error would print D
# and its invariant factors
TOO_LONG_TO_PRINT = {
    "negative": [[-3, 3 * 10**4000], [3 * 10**4000, -3]],
    "positive": [[3, 3 * 10**4000], [3 * 10**4000, 3]],
}
TOO_LONG_MESSAGE = "cokernel order more than 2^26578 is too long to print"


@pytest.mark.parametrize(
    "command", [["obstruct"], ["obstruct", "--json"], ["corrections", "--json"]], ids=" ".join
)
@pytest.mark.parametrize("rows", TOO_LONG_TO_PRINT.values(), ids=TOO_LONG_TO_PRINT.keys())
def test_a_determinant_too_long_to_print_is_refused_in_one_line(command, rows, tmp_path, capsys):
    path = _record_file(tmp_path, rows)
    start = time.perf_counter()
    code, out, err = run_main([*command, "--input", path], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err.splitlines()) == (3, "", [f"error: {TOO_LONG_MESSAGE}"])


@pytest.mark.parametrize("rows", TOO_LONG_TO_PRINT.values(), ids=TOO_LONG_TO_PRINT.keys())
def test_report_enters_a_determinant_too_long_to_print_as_an_error(rows, tmp_path, capsys):
    path = _record_file(tmp_path, rows)
    start = time.perf_counter()
    code, out, err = run_main(["report", "--json", "--input", path], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "parse_errors": [],
        "records": [{"knot": "r", "error": TOO_LONG_MESSAGE}],
    }


@pytest.mark.parametrize("command", ["obstruct", "plumbing-check"])
def test_a_dense_240_by_240_form_is_refused_within_a_second(command, tmp_path, capsys):
    rng = random.Random(240)
    rows = [[0] * 240 for _ in range(240)]
    for i in range(240):
        rows[i][i] = -rng.randint(2, 9)
        for j in range(i):
            rows[i][j] = rows[j][i] = rng.randint(-3, 3)
    path = _record_file(tmp_path, rows)
    start = time.perf_counter()
    code, out, err = run_main([command, "--input", path], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err.splitlines()) == (
        3,
        "",
        [
            "error: form has dimension 240; above dimension 20 no characteristic box fits "
            "the budget of 2000000"
        ],
    )


def test_gamma_above_budget_is_refused_quickly(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "unknotone.cli", "gamma", "--D", "2000001"],
        env=src_env,
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: model vector for D = 2000001 is above the budget of 2000000"
    ]


# Runs one command in a fresh interpreter and prints, as its last two lines,
# the package modules it loaded and whether it loaded ``fractions``.
LOADED_AFTER = (
    "import sys\n"
    "from unknotone import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(*sorted(m for m in sys.modules if m.startswith('unknotone.')))\n"
    "print('fractions' in sys.modules)\n"
    "sys.exit(code)\n"
)
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
    argv = command.split()
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER, *argv], env=src_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    *_, modules, fractions_loaded = proc.stdout.splitlines()
    # only the ``values`` views build Fractions, and no command reads them
    assert fractions_loaded == "False"
    loaded = {name.removeprefix("unknotone.") for name in modules.split()}
    if argv[0] in ONLY:
        assert loaded == {"cli", "errors", *ONLY[argv[0]]}
    else:
        assert "plumbing" not in loaded
        assert argv[0] == "alexander" or "alexander" not in loaded


def test_bare_package_import_loads_no_submodule(src_env):
    code = "import sys, unknotone; print([m for m in sys.modules if m.startswith('unknotone.')])"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_listing_above_budget_is_refused_and_the_verdict_streams(tmp_path, src_env):
    # D = 99,999: 2 * phi(D) * D = 1.3e10 listing entries, a few seconds of verdict
    path = tmp_path / "two_bridge.json"
    path.write_text(json.dumps([{"name": "tb", "goeritz": [[-2, 1], [1, -50000]]}]))

    def run(command):
        return subprocess.run(
            [sys.executable, "-m", "unknotone.cli", command, "--input", str(path)],
            env=src_env,
            capture_output=True,
            text=True,
            timeout=30,
        )

    listed = run("match")
    assert listed.returncode == 3
    assert listed.stdout == ""
    assert listed.stderr.splitlines() == [
        "error: matching listing for D = 99999 has 12959870400 entries, "
        "above the budget of 10000000"
    ]
    verdict = run("obstruct")
    assert verdict.returncode == 0, verdict.stderr
    assert verdict.stdout.splitlines()[0] == "tb: D = 99999, verdict NotObstructed"


def _record_file(tmp_path, rows):
    path = tmp_path / "record.json"
    path.write_text(json.dumps([{"name": "r", "goeritz": rows}]))
    return str(path)


@pytest.mark.parametrize("command", [["match"], ["obstruct", "--json"]])
def test_listing_above_budget_is_refused_before_any_analysis(command, tmp_path, capsys, monkeypatch):
    import unknotone.report as report_mod

    def never(*args, **kwargs):
        raise AssertionError("correction_vector ran before the listing budget was checked")

    monkeypatch.setattr(report_mod, "correction_vector", never)
    path = _record_file(tmp_path, [[-2, 1], [1, -50000]])
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
    code, out, err = run_main(["match", "--input", _record_file(tmp_path, rows), *argv], capsys)
    assert (code, (out or err).splitlines()[0]) == expected


def test_piped_report_reads_like_input_dash(tmp_path, src_env):
    # one good record and one bad: both print the good verdict and the parse error
    path = tmp_path / "records.json"
    bad = {"name": "bad", "goeritz": [[1, 2]]}
    path.write_text(json.dumps([*json.loads(EIGHT_TEN_JSON), bad]))

    def run(*argv):
        with path.open() as stdin:
            proc = subprocess.run(
                [sys.executable, "-m", "unknotone.cli", "report", *argv],
                stdin=stdin,
                env=src_env,
                capture_output=True,
                text=True,
                timeout=30,
            )
        return proc.stdout, proc.stderr, proc.returncode

    assert run("--json") == run("--json", "--input", "-")
    out, err, code = run()
    assert (out, err, code) == run("--input", "-")
    assert code == 3
    assert out.split()[:3] == ["8_10", "D=", "27"]
    assert err.splitlines() == [
        "PARSE ERROR: record 1 (bad): bad Goeritz matrix: Gram matrix must be square"
    ]


NON_CYCLIC = {"name": "r", "goeritz": [[-3, 0], [0, -3003]], "signature": 0}


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


def test_sign_refined_refuses_a_missing_signature_before_the_cokernel(tmp_path, capsys):
    path = tmp_path / "record.json"
    path.write_text(json.dumps([{**NON_CYCLIC, "signature": None}]))
    code, out, err = run_main(["obstruct", "--sign-refined", "--input", str(path)], capsys)
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "error: record 'r' carries no signature; the signed test needs one"
    ]


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
        with mock.patch.object(sys, "stdin", io.StringIO(text)):
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*argv, "--input", "-"])
        assert code in (0, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 3 and argv[0] != "report":
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
