"""Rules read off the syntax tree of the sources, since no linter is a dependency.

Every name that a package module, a script or a test file imports is used
in it: an imported name counts as used when it occurs as a name anywhere
in the module, annotations included.  Out of scope is
``test_acceptance.py``, whose known-red tests stay as they are.  The
package holds no ``assert`` and reads neither ``__debug__`` nor the
environment, so ``python -O`` and environment variables cannot change what
it does.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path
    for folder in (ROOT / "src" / "unknotone", ROOT / "scripts", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "test_acceptance.py"
)
PACKAGE = sorted((ROOT / "src" / "unknotone").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_sources_are_found():
    names = {path.name for path in SOURCES}
    assert {"lattice.py", "alexander.py", "mutation_run.py", "helpers.py"} <= names
    assert "test_acceptance.py" not in names


def test_an_unused_import_is_caught():
    source = "from fractions import Fraction\nimport os.path\nimport sys\nsys.exit(os.sep)\n"
    assert unused_imports(source) == ["Fraction"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that ``source`` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_are_found():
    source = "import os.path\nfrom dataclasses import dataclass\nfrom . import lattice\n"
    assert imported_modules(source) == {"os", "dataclasses"}


def test_no_package_module_imports_dataclasses():
    # ``dataclasses`` and the ``inspect`` it loads cost every cold run about 10 ms
    assert len(PACKAGE) >= 10
    for path in PACKAGE:
        assert "dataclasses" not in imported_modules(path.read_text()), path.name


# the names through which a module reads the environment: ``os.environ`` and its
# bytes twin, and the functions that read them
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def optimisation_and_environment_reads(source: str) -> list[str]:
    """The lines of ``source`` that ``python -O`` or the environment could change."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append((node.lineno, "__debug__"))
        elif isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend((node.lineno, a.name) for a in node.names if a.name in ENVIRONMENT)
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_optimisation_and_environment_reads_are_caught():
    source = (
        "import os\nfrom os import getenv as g, path\nassert os.environ['X']\n"
        "if __debug__:\n    os.getenv('Y')\nos.path.join('a', 'b')\n"
    )
    assert optimisation_and_environment_reads(source) == [
        "2: getenv", "3: assert", "3: environ", "4: __debug__", "5: getenv"
    ]


def test_the_package_is_the_same_under_optimisation_and_any_environment():
    # with no assert and no read of __debug__, python -O runs the same code; with
    # no read of the environment, no variable (such as UNKNOT_THREADS) is a knob
    assert len(PACKAGE) >= 10
    for path in PACKAGE:
        assert optimisation_and_environment_reads(path.read_text()) == [], path.name
