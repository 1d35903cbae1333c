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
    # hyperplane hits: unit-polynomial zeros, degree 1 for H1 and H5 (outside the disk), 2 for H4
    ("verify-hyperplane-hits", ("verify", "--curve", "g", "scenes/hyperplane_hits.scene"), 1),
    ("project-demo", ("project", "--curve", "f", "--at", "1+i", "scenes/verify_demo.scene"), 0),
    ("classify-standard4", ("classify", "scenes/standard4.scene"), 2),
    # a real subspace decided by little Picard after a form that holds everywhere drops out
    ("verify-reduced-hit", ("verify", "--curve", "f", "scenes/reduced_hit.scene"), 1),
    # four hyperplanes not in general position, although every triple rank is 6
    ("classify-concurrent", ("classify", "scenes/concurrent.scene"), 2),
    # a real subspace whose two restrictions share their nonconstant part, met by little Picard
    ("verify-proportional-hit", ("verify", "--curve", "f", "scenes/proportional_hit.scene"), 1),
    # a dim-4 real subspace on a one-unit curve, met inside the disk (real elimination)
    ("verify-dim4-hit", ("verify", "--curve", "f", "scenes/dim4_hit.scene"), 1),
)


def _run(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name, argv, expected_code", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_report_bytes_unchanged(name, argv, expected_code, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, stdout = _run(argv)
    assert code == expected_code
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()


def test_newton_overflow_leaves_stderr_empty():
    """Verifying hyperplane hits prints nothing to stderr: no numpy warnings, no traceback."""
    argv = ("verify", "--curve", "g", "scenes/hyperplane_hits.scene")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    done = subprocess.run(
        [sys.executable, "-m", "curveavoid.cli", *argv],
        cwd=ROOT,
        env=dict(env, PYTHONPATH="src"),
        capture_output=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (1, b"")
    assert done.stdout == (GOLDEN / "verify-hyperplane-hits.stdout").read_bytes()


@pytest.mark.parametrize("scene", ["sampled_dim4", "dim4_hit"])
def test_report_bytes_do_not_depend_on_the_hash_seed(scene):
    """No hash or set order reaches a report: two hash seeds print the same bytes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    runs = [
        subprocess.run(
            [sys.executable, "-m", "curveavoid.cli", "verify", "--curve", "f", f"scenes/{scene}.scene"],
            cwd=ROOT,
            env=dict(env, PYTHONPATH="src", PYTHONHASHSEED=seed),
            capture_output=True,
            timeout=120,
        )
        for seed in ("0", "12345")
    ]
    assert [done.stderr for done in runs] == [b"", b""]
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout
    assert runs[0].returncode == runs[1].returncode


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, expected_code in COMMANDS:
        code, stdout = _run(argv)
        if code != expected_code:
            sys.exit(f"{' '.join(argv)}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
