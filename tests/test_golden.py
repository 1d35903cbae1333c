"""Golden reports: the README's commands must keep their exact stdout and exit code.

Each entry runs `cli.main` in-process from the repository root and compares
the captured stdout byte for byte with `tests/golden/<name>.stdout`.  A
refactor that changes no behaviour passes unchanged.  A deliberate change
of a report is a specification change: regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and record the reason in CHANGES.md.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curveavoid.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# (file name, argv, exit code)
COMMANDS = (
    ("gp-check-standard4", ("gp-check", "scenes/standard4.scene"), 0),
    ("diagonals-standard4", ("diagonals", "scenes/standard4.scene"), 0),
    ("classify-degenerate", ("classify", "scenes/degenerate.scene"), 0),
    (
        "witness-constant-projection",
        ("witness", "--construction", "constant-projection", "scenes/five.scene"),
        0,
    ),
    (
        "witness-dim4-subspace",
        ("witness", "--construction", "dim4-subspace", "scenes/standard4.scene"),
        0,
    ),
    (
        "witness-degenerate-pair",
        ("witness", "--construction", "degenerate-pair", "scenes/degenerate.scene"),
        0,
    ),
    (
        "witness-three-hyperplanes",
        ("witness", "--construction", "three-hyperplanes", "scenes/optimality.scene"),
        0,
    ),
    ("verify-demo", ("verify", "--curve", "f", "scenes/verify_demo.scene"), 0),
    # hyperplane sampling: Newton finds the hits inside the disk, not the one outside
    ("verify-hyperplane-hits", ("verify", "--curve", "g", "scenes/hyperplane_hits.scene"), 1),
    ("project-demo", ("project", "--curve", "f", "--at", "1+i", "scenes/verify_demo.scene"), 0),
    ("classify-standard4", ("classify", "scenes/standard4.scene"), 2),
)


def _run(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name, argv, expected_code", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_report_bytes_unchanged(name, argv, expected_code, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("AVOIDANCE_SEED", raising=False)
    code, stdout = _run(argv)
    assert code == expected_code
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()


def test_newton_overflow_leaves_stderr_empty():
    """Newton iterates that overflow outside the disk print no numpy warnings."""
    argv = ("verify", "--curve", "g", "scenes/hyperplane_hits.scene")
    env = {k: v for k, v in os.environ.items() if k not in ("AVOIDANCE_SEED", "PYTHONWARNINGS")}
    done = subprocess.run(
        [sys.executable, "-m", "curveavoid.cli", *argv],
        cwd=ROOT,
        env=dict(env, PYTHONPATH="src"),
        capture_output=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (1, b"")
    assert done.stdout == (GOLDEN / "verify-hyperplane-hits.stdout").read_bytes()


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ.pop("AVOIDANCE_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, expected_code in COMMANDS:
        code, stdout = _run(argv)
        if code != expected_code:
            sys.exit(f"{' '.join(argv)}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
