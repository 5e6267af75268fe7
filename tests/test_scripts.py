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


def test_reproduce_tables_matches_the_report_command(src_env):
    script = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_tables.py"), "--json"],
        env=src_env,
        capture_output=True,
    )
    assert script.returncode == 0, script.stderr.decode()
    report = subprocess.run(
        [sys.executable, "-m", "unknotone.cli", "report", "--paper-tables", "--json"],
        env=src_env,
        capture_output=True,
    )
    assert report.returncode == 0, report.stderr.decode()
    assert script.stdout == report.stdout
