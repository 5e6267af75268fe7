"""The CLI claims that are no row of ``tests/test_refusals.py``: the claims about a
process, the comparisons of two runs, the usage error that argparse raises, a
fragment of a long listing, the known-red paper tables and the boundary fuzz.
"""

import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import EIGHT_TEN_JSON, piped
from unknotone.cli import main

def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_error_exit_code():
    # only corrections reindexes by a unit: match and obstruct take no --generator
    for argv in ([], ["obstruct", "--knot", "8_10", "--generator", "2"],
                 ["match", "--knot", "8_10", "--generator", "2"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


def test_match_lists_flags(capsys):
    code, out, _ = run_main(["match", "--knot", "8_10"], capsys)
    assert code == 0
    assert "matchings" in out.splitlines()[0]
    # the unique even positive matching climbs the staircase but is asymmetric;
    # it is line 16 of 19, a fragment of the listing
    assert any("[EP-t]" in line for line in out.splitlines())


def test_paper_tables_json(capsys):
    code, out, _ = run_main(["report", "--paper-tables", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "10_121" in payload["no_even_matching"] or "8_16" in payload["no_even_matching"]
    two = payload["ten_crossing_unknotting_two"]
    assert len(two) == 24


def test_cli_entrypoint_subprocess(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "unknotone.cli", "obstruct", "--knot", "8_10"],
        env=src_env,
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
FIELDS = ("goeritz", "white_graph", "signature", "determinant")
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
