import ast
import importlib.util
from pathlib import Path

from unknotone.catalog import builtin_dataset, record_from_dict

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_dataset_is_clean(capsys):
    code = load_script("verify_dataset").main()
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.rstrip().endswith("dataset checks clean")


def test_verify_dataset_checks_the_signature_of_alternating_forms():
    problems = load_script("verify_dataset").record_problems

    def record(rows, signature):
        entry = {"name": "r", "goeritz": rows, "signature": signature}
        return record_from_dict({**entry, "determinant": abs(record_from_dict(entry).form.det)})

    # the trefoil's form [-3] has A_0 = -1/2, so -4 A_0 = 2
    assert problems(record([[-3]], 2)) == []
    assert problems(record([[-3]], -2)) == ["signature -2 != -4 A_0 = 2"]
    # 8_10's form, one sign off the diagonal, with A_0 = -1/2
    eight_ten = [[-4, 1, 1], [1, -2, 1], [1, 1, -5]]
    assert problems(record(eight_ten, 0)) == ["signature 0 != -4 A_0 = 2"]
    # a form with off-diagonal entries of both signs (here A_0 = 0) is not checked
    assert problems(record([[-3, 1, 0], [1, -3, -1], [0, -1, -3]], 2)) == []


def test_verify_dataset_reports_each_refusal_of_the_analysis(monkeypatch, capsys):
    script = load_script("verify_dataset")
    records = [record_from_dict({"name": name, "goeritz": rows})
               for name, rows in [("positive", [[3]]), ("even", [[-2]]), ("singular", [[0]])]]
    assert [script.record_problems(record) for record in records] == [
        ["not negative definite", "correction terms require a negative-definite form"],
        ["cokernel order 2 is even; need a knot form"],
        ["not negative definite", "cokernel requires a nonsingular form"],
    ]
    # every record is reported, and the run exits 1
    monkeypatch.setattr(script, "builtin_dataset", lambda: records)
    assert script.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["positive", "even", "singular", "3"]
    assert lines[-1] == "3 records with problems"


def test_verify_dataset_counts_the_classes_of_every_plumbing_forest(monkeypatch):
    script = load_script("verify_dataset")
    counted = []
    count = script.class_count
    monkeypatch.setattr(script, "class_count", lambda p: counted.append(p.form) or count(p))
    # the sign-flipped star with a bad centre of weight -1: 4 classes for D = 3
    star = [[-1, -1, 1, -1], [-1, -3, 0, 0], [1, 0, -3, 0], [-1, 0, 0, -4]]
    record = record_from_dict({"name": "star", "goeritz": star})
    assert script.record_problems(record) == ["class count 4 != 3"]
    assert counted == [record.form]
    # 8_10's form has a cycle, so it is no plumbing forest and is not counted
    (eight_ten,) = [record for record in builtin_dataset() if record.name == "8_10"]
    assert script.record_problems(eight_ten) == []
    assert counted == [record.form]


def test_every_mutant_text_occurs_once_in_src():
    mutation_run = load_script("mutation_run")
    sources = {path.name: path.read_text() for path in mutation_run.SRC.glob("*.py")}
    for name, (module, text, replacement) in mutation_run.MUTANTS.items():
        assert text != replacement, name
        assert sources[module].count(text) == 1, name
        assert sum(source.count(text) for source in sources.values()) == 1, name


def test_a_kill_names_the_whole_parametrized_test():
    first_failure = load_script("mutation_run").first_failure
    test = "tests/test_outputs.py::test_output_is_byte_identical[report --paper-tables --json]"
    summary = f"1 failed\nFAILED {test} - AssertionError: assert 'a' == 'b'\nFAILED tests/x.py::y\n"
    assert first_failure(summary) == test
    assert first_failure(f"FAILED {test}\n") == test
    assert first_failure("1 passed in 0.1s\n") is None


def test_every_script_is_loaded_by_a_test():
    calls = [node for node in ast.walk(ast.parse(Path(__file__).read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "load_script"]
    assert {path.stem for path in SCRIPTS.glob("*.py")} == {call.args[0].value for call in calls}
