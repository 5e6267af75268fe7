import importlib.util
import subprocess
import sys
from pathlib import Path

from unknotone.catalog import record_from_dict

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_verify_dataset_is_clean(src_env):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "verify_dataset.py")],
        env=src_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("dataset checks clean")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_verify_dataset_compares_only_a_stated_determinant():
    problems = load_script("verify_dataset").record_problems
    # the record reader already refuses a stated determinant that disagrees
    assert problems(record_from_dict({"name": "r", "goeritz": [[-3]]})) == []
    assert problems(record_from_dict({"name": "r", "goeritz": [[-3]], "determinant": 3})) == []
