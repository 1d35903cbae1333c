"""The package's public surface: `curveavoid.__all__`, and no unused imports."""

import ast
from pathlib import Path

import curveavoid

PACKAGE = Path(curveavoid.__file__).parent


def test_every_exported_name_resolves_once():
    names = curveavoid.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(curveavoid, n)] == []


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns


def unused_imports(source):
    """The names a module imports and never mentions; a string annotation counts as a mention."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    mentioned = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                mentioned |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return sorted(imported - mentioned)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import math, numpy as np\n"
        "from .exact_linalg import ComplexVector, GaussianRational, gq\n"
        "def f(x: 'GaussianRational') -> float:\n"
        "    return np.abs(gq(x))\n"
    )
    assert unused_imports(source) == ["ComplexVector", "math"]


def test_no_module_imports_a_name_it_never_mentions():
    unused = {
        path.name: unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unused.items() if names} == {}
