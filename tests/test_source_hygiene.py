"""Source hygiene of ``src/corefkit``, read from its syntax trees.

No module imports a name that it does not use, and every top-level function
or class is used by other code of the package or by the benchmark under
``bench/``: nothing stays that only its own test calls. Every exception class
of the package is told apart from others by its code, and the CLI's category
table holds each of them, one class per category. ``__init__.py`` only
re-exports names, so neither its imports nor its names count as uses.
"""

import ast
import builtins
from pathlib import Path

import pytest

from corefkit.cli import _ERROR_CATEGORIES

ROOT = Path(__file__).resolve().parents[1]
MODULES = {
    path.name: ast.parse(path.read_text(), str(path))
    for path in sorted((ROOT / "src" / "corefkit").glob("*.py"))
    if path.name != "__init__.py"
}


def used_names(node, attributes: bool) -> set:
    """The names that the code under ``node`` reads: bare names, the names in
    string annotations such as ``-> "Document"``, and with ``attributes`` the
    attribute names (``module.name``)."""
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            names.add(part.id)
        elif attributes and isinstance(part, ast.Attribute):
            names.add(part.attr)
        for annotation in (getattr(part, "annotation", None), getattr(part, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= used_names(ast.parse(annotation.value, mode="eval"), attributes)
    return names


def bench_names() -> set:
    """Names the benchmark uses: in its code, and in its strings, which is
    how its tracer names the functions it wraps (``"AdamOptimizer.step"``)."""
    names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names |= used_names(tree, attributes=True)
        names |= {
            word for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for word in node.value.split(".")
        }
    return names


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    tree = MODULES[module]
    used = used_names(tree, attributes=False)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        else:
            continue
        unused += [f"{name} (line {node.lineno})" for name in bound if name not in used]
    assert not unused, f"{module} imports names it does not use: {unused}"


def test_every_top_level_definition_is_used():
    # the names each top-level statement of the package reads
    statements = [
        (node, used_names(node, attributes=True)) for tree in MODULES.values() for node in tree.body
    ]
    from_bench = bench_names()
    unused = [
        f"{module}: {node.name}"
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in from_bench
        and not any(node.name in names for other, names in statements if other is not node)
    ]
    assert not unused, f"used only by tests, or by nothing: {unused}"


CLASSES = {node.name: node for tree in MODULES.values() for node in tree.body if isinstance(node, ast.ClassDef)}


def is_exception(name) -> bool:
    """Whether ``name``, a class of the package or a builtin, is an exception class."""
    if name in CLASSES:
        return any(isinstance(b, ast.Name) and is_exception(b.id) for b in CLASSES[name].bases)
    kind = getattr(builtins, name, None)
    return isinstance(kind, type) and issubclass(kind, BaseException)


def test_every_exception_class_is_told_apart():
    """Package code names each exception class of the package somewhere other
    than in a ``raise`` or as a base class: in an ``except``, an
    ``isinstance`` or a table. A class that is only raised is its base
    class with more surface."""
    # the names read under a raise or in a class's bases
    skipped = {
        id(name) for tree in MODULES.values() for node in ast.walk(tree)
        for part in ([node] if isinstance(node, ast.Raise) else getattr(node, "bases", []))
        for name in ast.walk(part)
    }
    told_apart = {
        node.id for tree in MODULES.values() for node in ast.walk(tree)
        if isinstance(node, ast.Name) and id(node) not in skipped
    }
    only_raised = sorted(name for name in CLASSES if is_exception(name) and name not in told_apart)
    assert not only_raised, f"exception classes that no code tells apart: {only_raised}"


def test_one_exception_class_per_error_category():
    """The CLI's category table is the one place that names an error's
    category: it lists every exception class of the package, and no
    category twice, so each ``error:<category>`` has one type behind it."""
    table = {klass.__name__ for klass, _ in _ERROR_CATEGORIES}
    untabled = sorted(name for name in CLASSES if is_exception(name) and name not in table)
    assert not untabled, f"exception classes missing from cli._ERROR_CATEGORIES: {untabled}"
    categories = [category for _, category in _ERROR_CATEGORIES]
    repeated = sorted({category for category in categories if categories.count(category) > 1})
    assert not repeated, f"categories with more than one exception class: {repeated}"
