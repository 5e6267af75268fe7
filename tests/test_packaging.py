"""The package builds from pyproject.toml with the bundled records beside the code.

``build_py`` copies what a wheel would hold and needs neither the ``wheel``
package nor network access, so it runs on a copy of the sources.  The
version has one copy, ``unknotone.__version__``, which the metadata reads.
"""

import shutil
import subprocess
import sys
from pathlib import Path

from unknotone import __version__

ROOT = Path(__file__).resolve().parents[1]


def test_build_py_ships_the_bundled_records(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    setup = "import setuptools; setuptools.setup()"
    build = tmp_path / "build"

    def run(*args):
        command = [sys.executable, "-c", setup, *args]
        proc = subprocess.run(command, cwd=tmp_path, check=True, capture_output=True, timeout=60)
        return proc.stdout.decode()

    run("build_py", "--build-lib", str(build))
    package = build / "unknotone"
    assert (package / "cli.py").is_file()
    records = (package / "builtin.json").read_bytes()
    assert records == (ROOT / "src" / "unknotone" / "builtin.json").read_bytes()
    # the metadata reads the one copy; pyproject.toml states none of its own
    assert run("--version").splitlines() == [__version__]
    assert '\nversion = "' not in (ROOT / "pyproject.toml").read_text()
