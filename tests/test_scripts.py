import subprocess
import sys
from pathlib import Path

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
