import ast
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
