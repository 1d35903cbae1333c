"""List the statements of `src/curveavoid/` that no test executes.

Run from anywhere; any arguments are passed on to pytest:

    python3 tools/untested_lines.py [-q] [-k EXPR]

It runs pytest in this process on the checkout's `tests/`, with a line
tracer set by `sys.settrace` and `threading.settrace` that records only
frames whose code lives in `src/curveavoid/`.  Then it prints
`module:line: statement` for every statement that never ran, not counting
`def`, `class`, imports and docstrings.  A compound statement counts as run
when a line of its header ran; any other statement, when any of its lines did.
It exits 1 when it lists a statement that `EXPECTED` does not name, else 0;
pass `--hypothesis-seed=0` for a listing that does not vary between runs.

Three limits:
- code run only in a subprocess (the CLI start-up tests, say) is not seen;
- tracing slows the suite severalfold, so a test with a wall-clock budget
  can fail under it;
- the tests' outcome is ignored: a failing test still marks what it ran.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "curveavoid"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
# (module, statement) that no in-process test runs: the entry point, run only in
# a subprocess.  `resultant`'s fallback when no shear passes is reached by pairs
# whose two real curves are singular at a common zero, so it is not listed here.
EXPECTED = (("cli", "sys.exit(main())"),)


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    prefix, ran = str(PACKAGE) + "/", set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        pytest.main(["-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    listed = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        unrun = set()
        for node in ast.walk(ast.parse("\n".join(lines))):
            docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or docstring:
                continue
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
            if not any((str(path), n) in ran for n in range(node.lineno, last + 1)):
                unrun.add(node.lineno)
        for n in sorted(unrun):
            print(f"{path.stem}:{n}: {lines[n - 1].strip()}")
            listed.append((path.stem, lines[n - 1].strip()))
    return 1 if Counter(listed) - Counter(EXPECTED) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
