"""Fuzz the command line: any scene text and any argv end in an exit code.

Scenes come from a generator that follows the scene grammar (hyperplanes,
real subspaces of one to three forms, curves built from sums, products,
exp() of polynomials and '^') and from raw printable text, with decimal
digits of other scripts mixed in.  A second test
writes grammar scenes as bytes with bytes that are not UTF-8 spliced in;
a file that does not decode must exit 2.  Every
subcommand is run in process through `cli.main`.  `verify`, the one
command that samples, gets plan flags that include 0, negative values, nan
and inf; `classify` and `witness` get a stray plan flag one time in ten,
and must then exit 2.  For each example the exit code
must be one of 0-3, no exception may escape `main` (a numpy warning is an
error under this suite's settings), and the run must finish within
`TIME_BOUND_S`.  Each generated part is valid nine times in ten, so that
most examples get past the parser and the plan checks.  On a disk of
radius 1e5 an exponent of degree 62 or more, such as ((z^4)^4)^4, leaves
the float range, which is an input error.
"""

import contextlib
import io
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from curveavoid.cli import main

TIME_BOUND_S = 5.0

RATIONALS = ["1", "2", "1/2", "7/3"]
COEFFS = ["0", *RATIONALS, "i", "3i", "(1 - 2i)", "(2 + i)/3"]
COMPLEX_VARS = ["z1", "z2", "z3"]
REAL_VARS = ["x1", "y1", "x2", "y2", "x3", "y3"]
TOKENS = [
    "hyperplane", "real", "curve", "H1", "S", "f", ":", "=", "0", ";", ",", "(", ")",
    "+", "-", "*", "/", "^", "exp", "z", "z1", "x1", "y2", "i", "1/2", "3", "#",
]


def mostly(valid, invalid):
    """valid nine times in ten, else invalid."""
    return st.sampled_from([valid] * 9 + [invalid]).flatmap(lambda choice: choice)


def linear_forms(variables, coeffs):
    """Sums of coefficient*variable terms, or an expression that may not be linear."""
    term = st.tuples(st.sampled_from(coeffs), st.sampled_from(variables)).map("*".join)
    leaf = st.one_of(term, st.sampled_from(variables), st.sampled_from(COEFFS))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-"), inner).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
            st.tuples(st.sampled_from(COEFFS), inner).map(lambda t: f"{t[0]}*({t[1]})"),
            st.tuples(inner, st.sampled_from(COEFFS)).map(lambda t: f"({t[0]})/{t[1]}"),
            inner.map(lambda s: f"-({s})"),
            st.tuples(inner, inner).map(lambda t: f"({t[0]})*({t[1]})"),
        )

    sums = st.lists(term, min_size=1, max_size=4).map(" + ".join)
    return mostly(sums, st.recursive(leaf, extend, max_leaves=5))


def exponent_polys():
    leaf = st.one_of(st.just("z"), st.sampled_from(COEFFS))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-"), inner).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
            st.tuples(inner, inner).map(lambda t: f"({t[0]})*({t[1]})"),
            st.tuples(inner, st.integers(0, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda s: f"-({s})"),
        )

    return st.recursive(leaf, extend, max_leaves=5)


def curve_components():
    leaf = st.one_of(st.sampled_from(COEFFS), exponent_polys().map(lambda p: f"exp({p})"))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-"), inner).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
            st.tuples(inner, inner).map(lambda t: f"({t[0]})*({t[1]})"),
            st.tuples(inner, st.sampled_from(COEFFS)).map(lambda t: f"({t[0]})/{t[1]}"),
            inner.map(lambda s: f"-({s})"),
        )

    return st.recursive(leaf, extend, max_leaves=6)


HYPERPLANE_FORMS = linear_forms(COMPLEX_VARS, COEFFS[1:])
REAL_FORMS = linear_forms(REAL_VARS, RATIONALS)
CURVES = st.lists(curve_components(), min_size=3, max_size=3)


@st.composite
def grammar_scenes(draw):
    """Up to five hyperplanes, two real subspaces and one or two curves, named in order."""
    count = draw(st.sampled_from([4, 4, 4, 3, 5, 0, 1, 2]))
    hyperplanes = draw(st.lists(HYPERPLANE_FORMS, min_size=count, max_size=count))
    reals = [
        draw(st.lists(REAL_FORMS, min_size=size, max_size=size))
        for size in draw(st.lists(st.sampled_from([1, 1, 2, 3]), max_size=2))
    ]
    curves = draw(st.lists(CURVES, min_size=1, max_size=2))
    lines = [f"hyperplane H{k}: {form} = 0" for k, form in enumerate(hyperplanes, 1)]
    lines += [
        f"real {name}: " + "; ".join(f"{form} = 0" for form in forms)
        for name, forms in zip("ST", reals)
    ]
    lines += [f"curve {name}: ({', '.join(comps)})" for name, comps in zip("fg", curves)]
    return "\n".join(lines) + "\n"


token_scenes = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join), max_size=4
).map("\n".join)
# printable ASCII, and decimal digits of other scripts, which are not numbers
raw_scenes = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126) | st.sampled_from("\n\u0663\uff13"),
    max_size=200,
)
scenes = mostly(grammar_scenes(), st.one_of(token_scenes, raw_scenes))

# a lone continuation byte, an overlong '/', a surrogate, a truncated sequence, bytes never used
NOT_UTF8 = [b"\x80", b"\xc0\xaf", b"\xed\xa0\x80", b"\xe2\x82", b"\xfe", b"\xff"]


@st.composite
def byte_scenes(draw):
    """A grammar scene in UTF-8 with one to three byte strings spliced in, mostly not UTF-8."""
    data = draw(grammar_scenes()).encode()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        splice = draw(mostly(st.sampled_from(NOT_UTF8), st.binary(min_size=1, max_size=3)))
        data = data[:at] + splice + data[at:]
    return data

# valid and invalid values of each plan flag
PLAN_VALUES = {
    "--radius": (["1e-3", "1", "10", "1e5"], ["nan", "inf", "-inf", "-1", "0"]),
    "--grid": (["1", "2", "3", "7", "15"], ["-1", "0", "x"]),
    "--random": (["0", "1", "40", "200"], ["-5", "nan"]),
    "--seed": (["-3", "0", "7"], ["1.5"]),
    "--tolerance": (["1e-12", "1e-9", "0.5"], ["nan", "inf", "-1", "0"]),
}


@st.composite
def argvs(draw):
    command = draw(
        st.sampled_from(["verify", "classify", "witness", "project", "diagonals", "gp-check"])
    )
    argv = [command]
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--json", "--human"])))
    if command == "verify":
        for flag, (valid, invalid) in PLAN_VALUES.items():
            # the default grid and random counts are large, so these two are always given
            if flag in ("--grid", "--random") or draw(st.booleans()):
                argv += [flag, draw(mostly(st.sampled_from(valid), st.sampled_from(invalid)))]
    if command in ("classify", "witness"):
        stray = [[flag, value] for flag, (valid, _) in PLAN_VALUES.items() for value in valid]
        argv += draw(mostly(st.just([]), st.sampled_from(stray)))
    if command == "witness":
        constructions = [
            "constant-projection", "dim4-subspace", "degenerate-pair", "three-hyperplanes",
        ]
        argv += ["--construction", draw(mostly(st.sampled_from(constructions), st.just("none")))]
    if command in ("verify", "project"):
        argv += ["--curve", draw(mostly(st.sampled_from(["f", "g"]), st.just("missing")))]
    if command == "project":
        points = st.sampled_from(["0", "1/2 + i", "-3i", "1000"])
        argv.append("--at=" + draw(mostly(points, st.sampled_from(["z", "", "1/0", "(2"]))))
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:
            # argparse rejects a malformed command line by exiting with 2
            return exc.code


def run_scene(argv, data: bytes):
    """The exit code of `main` on a scene file holding `data`, checked against the bounds."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.scene"
        path.write_bytes(data)
        start = time.perf_counter()
        code = run_main(argv + [str(path)])
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3), (code, argv, data)
    if argv[0] in ("classify", "witness") and set(argv) & set(PLAN_VALUES):
        assert code == 2, (code, argv, data)
    assert elapsed < TIME_BOUND_S, (elapsed, argv, data)
    return code


FUZZ_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@FUZZ_SETTINGS
@given(text=scenes, argv=argvs())
def test_cli_ends_in_an_exit_code(text, argv):
    run_scene(argv, text.encode("utf-8"))


@FUZZ_SETTINGS
@given(data=byte_scenes(), argv=argvs())
def test_scene_bytes_end_in_an_exit_code(data, argv):
    code = run_scene(argv, data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert code == 2, (argv, data)
