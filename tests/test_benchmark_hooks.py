"""The benchmark's traced run patches package attributes that still exist.

``perfbench/tracing.py`` swaps module attributes for spanned wrappers with
``tr.patched([(module, "attribute", "span name"), ...])``.  A missing
attribute would break the traced run, and one that nothing calls through
the module would leave its span empty.  This reads the file's syntax tree
and never imports it.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def patched_pairs(source):
    """(alias, module, attribute) for each target given to ``patched``."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "unknotone"
        for alias in node.names
    }
    # a target list is passed as it is written or through a name bound to it
    lists = {
        target.id: node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "patched":
            (arg,) = node.args
            targets = lists[arg.id] if isinstance(arg, ast.Name) else arg
            for module, attribute, _ in (item.elts for item in targets.elts):
                pairs.append((module.id, modules[module.id], attribute.value))
    return pairs


def called_through(source, alias, attribute):
    """Whether ``source`` calls ``alias.attribute(...)``."""
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attribute
        and getattr(node.func.value, "id", None) == alias
        for node in ast.walk(ast.parse(source))
    )


def reads_name(module, name):
    """Whether the module's own source loads ``name``."""
    tree = ast.parse(Path(module.__file__).read_text())
    return any(
        isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
        for node in ast.walk(tree)
    )


def test_patched_pairs_are_read_from_both_spellings():
    source = (
        "from unknotone import corrections, plumbing as p\n"
        "with tr.patched([(corrections, 'cokernel', 'x')]):\n    pass\n"
        "targets = [(p, 'class_count', 'y')]\n"
        "with tr.patched(targets):\n    pass\n"
    )
    assert patched_pairs(source) == [
        ("corrections", "unknotone.corrections", "cokernel"),
        ("p", "unknotone.plumbing", "class_count"),
    ]


def test_every_patched_attribute_exists_and_is_called():
    source = TRACING.read_text()
    pairs = patched_pairs(source)
    assert {(name, attribute) for _, name, attribute in pairs} >= {
        ("unknotone.corrections", "cokernel"),
        ("unknotone.plumbing", "correction_vector"),
        ("unknotone.plumbing", "class_count"),
    }
    for alias, name, attribute in pairs:
        module = importlib.import_module(name)
        assert callable(getattr(module, attribute, None)), (name, attribute)
        # the swap is seen when the module calls the name, or the traced run
        # calls it through the module
        assert reads_name(module, attribute) or called_through(source, alias, attribute), (
            name,
            attribute,
        )
