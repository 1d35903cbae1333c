"""The package's source: no unused imports, no dead private names, no environment reads, no unchecked terms, no `dataclasses`."""

import ast
from pathlib import Path

import curveavoid

PACKAGE = Path(curveavoid.__file__).parent


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns


def _quoted_names(tree):
    """The names inside the string annotations of a module, with the annotation's line."""
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                yield from ((n.id, annotation.lineno) for n in ast.walk(quoted) if isinstance(n, ast.Name))


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
    mentioned |= {name for name, _ in _quoted_names(tree)}
    return sorted(imported - mentioned)


def _mentions(tree):
    """(name, line) for each name a module reads, imports, takes as an attribute or quotes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((a.name, node.lineno) for a in node.names)
    yield from _quoted_names(tree)


def _private_definitions(tree):
    """(name, first line, last line) for each private function, class or constant at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def unused_private_names(sources):
    """'module:name' for each private top-level name no code mentions outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    mentions = {module: list(_mentions(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name, first, last in _private_definitions(tree):
            used = any(
                n == name and (other != module or not first <= line <= last)
                for other, found in mentions.items()
                for n, line in found
            )
            if not used:
                unused.append(f"{module}:{name}")
    return sorted(unused)


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
    unused = {path.name: unused_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_private_names_are_found():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_DEAD = 2\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "def _helper() -> '_Shape':\n"
            "    return _USED\n"
            "class _Shape:\n"
            "    pass\n"
            "class _Orphan:\n"
            "    pass\n"
        ),
        "b.py": "from .a import _helper\nvalue = _helper()\n",
    }
    assert unused_private_names(sources) == ["a.py:_DEAD", "a.py:_Orphan", "a.py:_recursive"]


def test_every_private_name_is_used():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


_ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source):
    """The lines on which a module reads the process environment through `os`."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_READERS:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines |= {node.lineno for a in node.names if a.name in _ENVIRONMENT_READERS}
    return sorted(lines)


def test_environment_reads_are_found():
    source = (
        "import os\n"
        "from os import getenv\n"
        "seed = os.environ.get('SEED')\n"
        "path = os.path.join('a', 'b')\n"
        "debug = os.getenv('DEBUG')\n"
    )
    assert environment_reads(source) == [2, 3, 5]


def test_no_module_reads_the_environment():
    """A report is a function of its scene, curve and plan alone."""
    reads = {path.name: environment_reads(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def calls_of(source, name):
    """The lines on which a module calls `name`, bare, as an attribute, or through one of its methods."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func, names = node.func, []
        while isinstance(func, ast.Attribute):
            names.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name):
            names.append(func.id)
        if name in names:
            lines.add(node.lineno)
    return sorted(lines)


def test_calls_are_found():
    source = (
        "from . import curves\n"
        "from .curves import ExpPoly\n"
        "a = ExpPoly(1, ())\n"
        "b = curves.ExpPoly(1, ())\n"
        "c = ExpPoly._make((1, ()))\n"
        "d = [ExpPoly]\n"
        "e = ExpPolynomial(1)\n"
    )
    assert calls_of(source, "ExpPoly") == [3, 4, 5]


def test_terms_are_built_only_where_they_are_canonicalised():
    """`ExpSum(terms)` takes canonical terms, so only `curves` and the parser build an `ExpPoly`."""
    builders = {path.name for path in PACKAGE.glob("*.py") if calls_of(path.read_text(), "ExpPoly")}
    assert builders <= {"curves.py", "scene.py"}


def test_unreduced_triples_are_built_only_where_they_are_checked():
    """`exact_linalg._reduced` trusts its caller for ints with d > 0, so only its module and the parser call it."""
    callers = {path.name for path in PACKAGE.glob("*.py") if calls_of(path.read_text(), "_reduced")}
    assert callers <= {"exact_linalg.py", "scene.py"}


def imported_modules(source):
    """The absolute names of the modules a module imports, or imports names from."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_imported_modules_are_found():
    source = (
        "import os.path, json as j\n"
        "from dataclasses import dataclass\n"
        "from . import curves\n"
        "def f():\n"
        "    import inspect\n"
    )
    assert imported_modules(source) == {"os.path", "json", "dataclasses", "inspect"}


def test_no_module_imports_dataclasses():
    """Each `dataclass()` runs an `exec` on every start, and `dataclasses` pulls in `inspect`."""
    importers = {
        path.name for path in PACKAGE.glob("*.py") if "dataclasses" in imported_modules(path.read_text())
    }
    assert importers == set()


def names_imported_from(source, module):
    """The names a module imports from `module`, absolute or relative; "*" for the module itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            names |= {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {"*" for a in node.names if a.name.split(".")[-1] == module}
    return names


def test_names_imported_from_are_found():
    source = (
        "from .exact_linalg import GaussianRational, gq\n"
        "from curveavoid.exact_linalg import rank_real\n"
        "from . import exact_linalg\n"
        "import curveavoid.exact_linalg\n"
        "from .curves import Poly\n"
    )
    assert names_imported_from(source, "exact_linalg") == {"GaussianRational", "gq", "rank_real", "*"}


def test_the_resultant_uses_no_matrix():
    """The dim-4 elimination is one subresultant chain.

    `resultant` reads only the number type and its integer reader from `exact_linalg`.
    """
    source = (PACKAGE / "resultant.py").read_text()
    assert names_imported_from(source, "exact_linalg") == {"GaussianRational", "_integers"}
