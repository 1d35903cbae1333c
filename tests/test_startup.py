"""Start-up cost: `import curveavoid` loads none of the package's modules, numpy is loaded
only when a set needs sampling, `resultant` only at rank 2, and `dataclasses` and the
`inspect` it needs never.

A hyperplane met by a curve needs no numpy when its zero is a root of a
unit polynomial of degree 1 or 2.  A real subspace whose restrictions
have nonconstant parts of real rank 2 loads `curveavoid.resultant`, and
on a one-unit curve it decides the subspace without numpy.

Each test runs the package in a fresh interpreter with PYTHONPATH=src and
reports, after `import curveavoid` and after each command, which of the
modules it names are in `sys.modules`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The README's commands with no real subspace of rank 2.
NO_RANK_TWO = (
    ("gp-check", "scenes/standard4.scene"),
    ("diagonals", "scenes/standard4.scene"),
    ("classify", "scenes/degenerate.scene"),
    ("witness", "--construction", "constant-projection", "scenes/five.scene"),
    ("witness", "--construction", "degenerate-pair", "scenes/degenerate.scene"),
    ("witness", "--construction", "three-hyperplanes", "scenes/optimality.scene"),
    ("project", "--curve", "f", "--at", "1+i", "scenes/verify_demo.scene"),
)
# The README's commands that every exact certificate settles: all of them.
EXACT_ONLY = NO_RANK_TWO + (
    ("witness", "--construction", "dim4-subspace", "scenes/standard4.scene"),
    ("verify", "--curve", "f", "scenes/verify_demo.scene"),
)

PROBE = """
import contextlib, io, json, sys
import curveavoid
loaded = lambda: [name in sys.modules for name in json.loads(sys.argv[2])]
steps = [["import curveavoid", None, *loaded()]]
from curveavoid.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    steps.append([" ".join(argv), code, *loaded()])
print(json.dumps({"package": curveavoid.__file__, "steps": steps}))
"""


def _loaded_after_each(commands, modules=("numpy", "curveavoid.resultant")) -> list[list]:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands), json.dumps(modules)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    result = json.loads(done.stdout)
    assert Path(result["package"]).resolve().parent == ROOT / "src" / "curveavoid"
    return result["steps"]


def test_importing_the_package_loads_none_of_its_modules():
    """The modules are the API: `import curveavoid` binds `__version__` and imports nothing."""
    modules = [f"curveavoid.{p.stem}" for p in sorted((ROOT / "src" / "curveavoid").glob("*.py"))]
    modules.remove("curveavoid.__init__")
    assert _loaded_after_each([], modules) == [["import curveavoid", None] + [False] * len(modules)]


def test_exact_only_commands_never_load_numpy():
    steps = _loaded_after_each(EXACT_ONLY)
    assert steps == [["import curveavoid", None, False, False]] + [
        [" ".join(argv), 0, False, argv not in NO_RANK_TWO] for argv in EXACT_ONLY
    ]


def test_verify_loads_numpy_when_a_set_needs_sampling():
    """scenes/sampled_dim4.scene mixes exp(z) and exp(i*z), so no unit carries H."""
    argv = ("verify", "--curve", "f", "scenes/sampled_dim4.scene")
    assert _loaded_after_each([argv]) == [
        ["import curveavoid", None, False, False],
        [" ".join(argv), 1, True, True],
    ]


def test_closed_form_hits_never_load_numpy():
    """scenes/far_hit.scene (H1 met, two linear groups; H2 avoided; the real
    hyperplane S met by little Picard), scenes/hyperplane_hits.scene (H4
    met where w^2 + w - 1 = 0), scenes/reduced_hit.scene (S met by little
    Picard once a form that holds everywhere drops out) and
    scenes/proportional_hit.scene (S met by little Picard once a real
    combination of its forms that holds everywhere drops out)."""
    commands = [
        ("verify", "--curve", "f", "scenes/far_hit.scene"),
        ("verify", "--curve", "g", "scenes/hyperplane_hits.scene"),
        ("verify", "--curve", "f", "scenes/reduced_hit.scene"),
        ("verify", "--curve", "f", "scenes/proportional_hit.scene"),
    ]
    assert _loaded_after_each(commands) == [["import curveavoid", None, False, False]] + [
        [" ".join(argv), 1, False, False] for argv in commands
    ]


def test_no_command_loads_dataclasses_or_inspect():
    """Building dataclasses costs an `exec` per class on every start, and `dataclasses`
    imports `inspect`, `ast`, `dis` and `tokenize`; no README command needs them."""
    steps = _loaded_after_each(EXACT_ONLY, ("dataclasses", "inspect"))
    assert steps == [["import curveavoid", None, False, False]] + [
        [" ".join(argv), 0, False, False] for argv in EXACT_ONLY
    ]
