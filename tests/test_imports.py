"""Every name that a package module, a script or a test file imports is used in it.

No linter is a dependency, so this reads the syntax tree: an imported name
counts as used when it occurs as a name anywhere in the module, annotations
included.  Out of scope is ``test_acceptance.py``, whose known-red tests
stay as they are.
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
    assert {"lattice.py", "alexander.py", "verify_dataset.py", "helpers.py"} <= names
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
    modules = sorted((ROOT / "src" / "unknotone").glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        assert "dataclasses" not in imported_modules(path.read_text()), path.name
