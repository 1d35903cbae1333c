"""Exact dim-4 subspaces on one-unit curves, checked against oracles that do not use the package.

A curve whose exponents are all n z (one unit w = e^z) has its dim-4
subspaces decided by real elimination in `curveavoid.resultant`.  Three
oracles check the verdicts: a float Newton solve of (Re g1, Re g2) in
(x, y), hits built by construction at a Gaussian-rational unit w0, and
the dim-4 witness on GL3(Q(i)) images of the standard four.  Every
violated verdict's sample must make both forms vanish to within the
plan's tolerance, evaluated here with cmath.  The subresultant chain
itself is checked against Sylvester determinants computed here, and the
real roots against polynomials multiplied out here from known roots.
"""

import cmath
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from curveavoid.arrangement import holomorphic_coefficients
from curveavoid.cli import _witness_scene
from curveavoid.curves import apply_form, witness_dim4_subspace
from curveavoid.exact_linalg import gq
from curveavoid.resultant import (
    MAX_DEGREE,
    _primitive,
    _real_part,
    _real_roots,
    _shear,
    _subresultants,
    unit_plane_zeros,
)
from curveavoid.scene import parse_scene
from curveavoid.verifier import AVOIDED, VIOLATED, SamplingPlan, verify

from test_acceptance import budget
from test_curves import standard_four_image

SCENES = Path(__file__).resolve().parent.parent / "scenes"
STANDARD4 = (
    "hyperplane H1: z1 = 0\nhyperplane H2: z2 = 0\n"
    "hyperplane H3: z3 = 0\nhyperplane H4: z1 + z2 + z3 = 0\n"
)
POWERS = (-1, 0, 1, 2)


def components_at(curve, z):
    """f(z) from the parsed terms c e^(p(z)), with cmath."""
    values = []
    for component in curve.components:
        total = 0j
        for t in component.terms:
            exponent = sum(c.to_complex() * z**k for k, c in enumerate(t.exponent))
            total += t.coeff.to_complex() * cmath.exp(exponent)
        values.append(total)
    return values


def relative_margin(subspace, curve, z):
    """The largest |form(f(z))| / |f(z)| over the subspace's real forms on (x1, y1, ..., y3), at unit pivot."""
    f = components_at(curve, z)
    coords = [part for w in f for part in (w.real, w.imag)]
    size = math.sqrt(sum(abs(w) ** 2 for w in f))
    leads = [next(a for a in form if a) for form in subspace.forms]
    values = [sum(a / lead * x for a, x in zip(form, coords)) for form, lead in zip(subspace.forms, leads)]
    return max(map(abs, values)) / size


def gaussian(rng):
    """A Gaussian integer in [-3, 3]^2 as an (re, im) pair."""
    return (rng.randint(-3, 3), rng.randint(-3, 3))


def term_text(c, n):
    return f"({c[0]} + {c[1]}*i)*exp({n}*z)"


def form_text(form):
    names = ("x1", "y1", "x2", "y2", "x3", "y3")
    return " + ".join(f"({a})*{v}" for a, v in zip(form, names) if a) + " = 0"


def scene_text(coefficients, forms, powers=POWERS):
    """The standard four, real H from the two forms, and curve f = (sum_n c_n e^(n z), ...)."""
    components = [
        " + ".join(term_text(c, n) for n, c in zip(powers, row) if any(c)) or "0"
        for row in coefficients
    ]
    return (
        STANDARD4
        + "real H: " + "; ".join(form_text(f) for f in forms) + "\n"
        + "curve f: (" + ", ".join(components) + ")\n"
    )


def independent(a, b):
    return any(a[i] * b[j] != a[j] * b[i] for i in range(6) for j in range(i))


def restrictions(coefficients, forms, powers=POWERS):
    """The b_(k,n) of g_k = sum_n b_(k,n) e^(n z), b_(k,n) = sum_j (a_(2j) - i a_(2j+1)) c_(j,n)."""
    holomorphic = [[complex(f[2 * j], -f[2 * j + 1]) for j in range(3)] for f in forms]
    return [
        [sum(a * complex(*row[k]) for a, row in zip(h, coefficients)) for k in range(len(powers))]
        for h in holomorphic
    ]


def newton_zero(coefficients, forms, radius, powers=POWERS):
    """A common zero of Re g1 and Re g2 with |z| < radius, by float Newton from a grid, or None.

    d/dx Re g = Re g' and d/dy Re g = -Im g'.
    """
    b = restrictions(coefficients, forms, powers)

    def values(z):
        g = [sum(c * cmath.exp(n * z) for n, c in zip(powers, row)) for row in b]
        dg = [sum(n * c * cmath.exp(n * z) for n, c in zip(powers, row)) for row in b]
        return g, dg

    for x in range(-3, 4):
        for y in range(-3, 4):
            z = complex(x, y) * radius / 4
            for _ in range(40):
                if abs(z) > 2 * radius:
                    break
                g, dg = values(z)
                det = dg[0].real * -dg[1].imag + dg[0].imag * dg[1].real
                if det == 0:
                    break
                step = complex(
                    (g[0].real * -dg[1].imag + dg[0].imag * g[1].real) / det,
                    (dg[0].real * g[1].real - dg[1].real * g[0].real) / det,
                )
                z -= step
                if abs(step) < 1e-13:
                    break
            if abs(z) < radius:
                g, _ = values(z)
                size = sum(abs(c * cmath.exp(n * z)) for row in b for n, c in zip(powers, row))
                if max(abs(v.real) for v in g) <= 1e-10 * size:
                    return z
    return None


def test_one_unit_hit_is_violated_exactly():
    """scenes/dim4_hit.scene: H has a common zero inside the disk, which sampling missed."""
    scene = parse_scene((SCENES / "dim4_hit.scene").read_text())
    plan = SamplingPlan()
    r = verify(scene.curves["f"], scene, plan).results[-1]
    assert (r.set, r.method, r.verdict, r.min_margin) == ("H", "exact", VIOLATED, None)
    z = complex(*r.violation_sample)
    assert abs(z) < plan.disk_radius
    assert relative_margin(scene.reals["H"], scene.curves["f"], z) <= plan.tolerance


def test_a_restriction_linear_in_v_is_its_own_first_subresultant():
    """R1 = u - 1 and R2 = v: the common zero w = 1, z = 0, read off the factor of degree 1 in v."""
    scene = parse_scene("curve f: (exp(z), 1, 0)\nreal T: x1 - x2 = 0; y1 = 0\n")
    (r,) = verify(scene.curves["f"], scene).results
    assert (r.method, r.verdict, r.violation_sample) == ("exact", VIOLATED, (0.0, 0.0))


def test_two_common_zeros_over_one_u_move_to_the_next_shear():
    """Re w^2 = 1 and Re(w^2 + w) = 4 meet at w = 3 +- i sqrt(8), which share u = 3.

    At shear 0, r = c (u - 3)^2 and the first subresultant vanishes, so the
    pair is tried again at shear 1, where the two zeros have distinct u.
    """
    scene = parse_scene("curve f: (exp(2*z) - 1, exp(2*z) + exp(z) - 4, 1)\nreal T: x1 = 0; x2 = 0\n")
    (r,) = verify(scene.curves["f"], scene).results
    assert (r.method, r.verdict) == ("exact", VIOLATED)
    assert abs(complex(*r.violation_sample) - cmath.log(3 - 1j * math.sqrt(8))) <= 1e-12


_ABOVE_CAP = next(a for a in range(2, MAX_DEGREE + 2) if a * (a - 1) > MAX_DEGREE)


@pytest.mark.parametrize(
    "curve",
    [
        # Re w^a = Re w^(a-1) = 0 with deg R1 deg R2 = a (a - 1) just above MAX_DEGREE
        pytest.param(f"(exp({_ABOVE_CAP}*z), exp({_ABOVE_CAP - 1}*z), 1)", id="above-cap"),
        # R1 = u and R2 = u(u^2 - 3v^2) share the factor u, so r = 0
        pytest.param("(exp(z), exp(3*z), 1)", id="common-factor"),
        # g1 = (w - 1)^2 and g2 = i w (w - 1)^2: both curves Re g_k = 0 are singular at
        # their common zero w = 1, so every shear's s11 vanishes at its root of q
        pytest.param(
            "(exp(2*z) - 2*exp(z) + 1, i*exp(3*z) - 2*i*exp(2*z) + i*exp(z), 1)", id="singular"
        ),
        # the same at w = 2, which f(log 2) = (0, 0, 1) puts in T off the sampling grid
        pytest.param(
            "(exp(2*z) - 4*exp(z) + 4, i*exp(3*z) - 4*i*exp(2*z) + 4*i*exp(z), 1)",
            id="singular-off-grid",
        ),
    ],
)
def test_a_pair_no_exact_path_settles_is_sampled(curve):
    """`unit_plane_zeros` returns None, and the sampler decides {Re g1 = 0, Re g2 = 0}."""
    scene = parse_scene(f"curve f: {curve}\nreal T: x1 = 0; x2 = 0\n")
    f, subspace = scene.curves["f"], scene.reals["T"]
    assert unit_plane_zeros(*(apply_form(holomorphic_coefficients(form), f) for form in subspace.forms)) is None
    (r,) = verify(f, scene).results
    assert (r.set, r.method) == ("T", "sampled")


def test_newton_zeros_are_violations():
    """Seeded one-unit curves against the standard four and two random real forms.

    Each component is sum c_n e^(n z) over n = -1, 0, 1, 2 with Gaussian
    integers c_n in [-3, 3]^2, and the forms have integer entries in
    [-2, 2].  Sampling reported every such zero avoided.
    """
    plan = SamplingPlan(disk_radius=4.0)
    rng = random.Random(1)
    found = 0
    with budget(20.0):
        for _ in range(40):
            coefficients = [[gaussian(rng) for _ in POWERS] for _ in range(3)]
            forms = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(2)]
            if not independent(*forms):
                continue
            scene = parse_scene(scene_text(coefficients, forms))
            r = verify(scene.curves["f"], scene, plan).results[-1]
            assert r.method == "exact"
            if r.verdict == VIOLATED:
                z = complex(*r.violation_sample)
                assert relative_margin(scene.reals["H"], scene.curves["f"], z) <= plan.tolerance
            if newton_zero(coefficients, forms, plan.disk_radius) is not None:
                assert r.verdict == VIOLATED
                found += 1
    assert found >= 30


def unit_degree(row, powers):
    """deg R = max n + 2 max(0, -min n) over the powers n with b_n != 0."""
    ns = [n for n, c in zip(powers, row) if c]
    return max(ns) + 2 * max(0, -min(ns))


@pytest.mark.parametrize("powers", [(-1, 0, 1, 2, 3), (-2, -1, 0, 1, 2)])
def test_newton_zeros_near_the_degree_cap_are_violations(powers):
    """As above with deg R1 deg R2 = 25 (powers -1..3) or 36 (-2..2), the largest decided exactly."""
    plan = SamplingPlan(disk_radius=4.0)
    rng = random.Random(sum(powers) + 3)
    found = checked = 0
    with budget(10.0):
        while checked < 20:
            coefficients = [[gaussian(rng) for _ in powers] for _ in range(3)]
            forms = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(2)]
            if not independent(*forms):
                continue
            degrees = [unit_degree(row, powers) for row in restrictions(coefficients, forms, powers)]
            assert 25 <= math.prod(degrees) <= MAX_DEGREE
            scene = parse_scene(scene_text(coefficients, forms, powers))
            r = verify(scene.curves["f"], scene, plan).results[-1]
            assert r.method == "exact"
            if r.verdict == VIOLATED:
                z = complex(*r.violation_sample)
                assert relative_margin(scene.reals["H"], scene.curves["f"], z) <= plan.tolerance
            if newton_zero(coefficients, forms, plan.disk_radius, powers) is not None:
                assert r.verdict == VIOLATED
                found += 1
            checked += 1
    assert found >= 15


# ---------------------------------------------------------------------------
# the subresultant chain against Sylvester determinants
#
# Polynomials in v are coefficient lists, lowest first, of polynomials in
# u, each an int list, lowest first.  The oracle interpolates r and the
# first subresultant s11 v + s10 from Sylvester determinants at integer u,
# with its own Fraction determinant.


def oracle_determinant(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot], det = m[pivot], m[c], -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def oracle_interpolate(values):
    """The polynomial of degree below len(values) taking them at 0, 1, 2, ... (Newton's forward differences)."""
    p, basis, diffs = [Fraction(0)] * len(values), [Fraction(1)], list(values)
    for k in range(len(values)):
        for i, c in enumerate(basis):
            p[i] += diffs[0] * c / math.factorial(k)
        basis = [x - k * y for x, y in zip([0, *basis], [*basis, 0])]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return p


def oracle_sylvester(a, b, j):
    """Rows v^(q-j-1) a, ..., a, v^(p-j-1) b, ..., b of the j-th subresultant, highest power first."""
    p, q = len(a) - 1, len(b) - 1
    width = p + q - j
    return [
        [0] * s + f[::-1] + [0] * (width - s - len(f))
        for f, copies in ((a, q - j), (b, p - j))
        for s in range(copies)
    ]


def oracle_chain(a, b):
    """r and (s11, s10) from Sylvester determinants; each leading coefficient in v must be a constant."""
    p, q = len(a) - 1, len(b) - 1
    bound = q * max(map(len, a)) + p * max(map(len, b))
    at = [[[sum(c * x**k for k, c in enumerate(coeff)) for coeff in f] for f in (a, b)] for x in range(bound)]
    r = oracle_interpolate([oracle_determinant(oracle_sylvester(f, g, 0)) for f, g in at])
    rows = [oracle_sylvester(f, g, 1) for f, g in at]
    s11 = oracle_interpolate([oracle_determinant([row[:-1] for row in m]) for m in rows])
    s10 = oracle_interpolate([oracle_determinant([row[:-2] + row[-1:] for row in m]) for m in rows])
    return r, (s11, s10)


def proportional(x, y):
    """x = c y for one constant c != 0, both read as coefficient lists padded with zeros."""
    width = max(len(x), len(y))
    x, y = [*x, *[0] * (width - len(x))], [*y, *[0] * (width - len(y))]
    if not any(x) or not any(y):
        return not any(x) and not any(y)
    c = next(Fraction(a) / b for a, b in zip(x, y) if b)
    return all(a == c * b for a, b in zip(x, y))


def first_proportional(x, y):
    """(s11, s10) = c (t11, t10) for one constant c != 0."""
    width = max(len(x[0]), len(y[0]))
    return proportional(*([*s11, *[0] * (width - len(s11)), *s10] for s11, s10 in (x, y)))


def assert_chain_matches_the_oracle(a, b):
    r, first = _subresultants(a, b)
    expected_r, expected_first = oracle_chain(a, b)
    assert proportional(r, expected_r)
    assert first_proportional(first, expected_first)
    return r, first


def test_the_chain_matches_sylvester_determinants_on_seeded_pairs():
    """R_1, R_2 of seeded Laurent pairs over n = -1..2, sheared as `unit_plane_zeros` shears them."""
    rng = random.Random(24)
    checked = 0
    with budget(10.0):
        while checked < 20:
            laurents = [{n: gq(*gaussian(rng)) for n in POWERS if rng.random() < 0.8} for _ in range(2)]
            laurents = [{n: c for n, c in g.items() if c} for g in laurents]
            if min(map(len, laurents)) < 2:
                continue
            lam = rng.randint(0, 3)
            s1, s2 = (_shear(_real_part(g), lam) for g in laurents)
            if len(s1[-1]) > 1 or len(s2[-1]) > 1 or min(len(s1), len(s2)) < 3:
                continue
            assert_chain_matches_the_oracle(s1, s2)
            checked += 1


U = [0, 1]  # the polynomial u


@pytest.mark.parametrize(
    "a, b, first, common_factor",
    [
        # equal degrees in v: the first pair divides by nothing
        ([[1], [2], [3]], [U, U, [2]], None, False),
        # a factor of degree 1 in v: its own first subresultant, up to lc^(deg a - 1)
        ([[1], U, [], [1]], [[0, 0, 1], [2]], ([4], [0, 0, 2]), False),
        # v^4 + u v + 1 = v (v^3 + u) + 1: the chain jumps from 3 to 0, so S_1 = 0
        # and `unit_plane_zeros` skips the shear
        ([[1], U, [], [], [1]], [U, [], [], [1]], ([], []), False),
        # v^4 + u^2 v + 2 - v (v^3 + u) = (u^2 - u) v + 2: degree 1 after a jump from 3,
        # so s11 = psc_1 = (u^2 - u)^2, not the remainder's leading coefficient u^2 - u
        ([[2], [0, 0, 1], [], [], [1]], [U, [], [], [1]], ([0, 0, 1, -2, 1], [0, -2, 2]), False),
        # (v + u)(v^2 + 1) and (v + u)(v^2 + v + u): r = 0
        ([U, [1], U, [1]], [[0, 0, 1], [0, 2], [1, 1], [1]], None, True),
    ],
    ids=["equal-degrees", "degree-1-factor", "skips-degree-1", "jump-to-degree-1", "common-factor"],
)
def test_the_chain_matches_sylvester_determinants_on_hand_built_pairs(a, b, first, common_factor):
    r, found = assert_chain_matches_the_oracle(a, b)
    assert (not r) == common_factor
    if first is not None:
        assert first_proportional(found, first)


def oracle_multiply(a, b):
    """The product of two int coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_real_roots_gives_the_square_free_part_and_its_rational_roots():
    """r = c prod (d u - n)^m (u^2 + b), with a = n/d distinct: q = +-c prod (d u - n) (u^2 + b) and roots a."""
    rng = random.Random(11)
    for _ in range(40):
        roots = sorted({Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))})
        b = rng.randint(1, 5)
        r = q = [rng.choice((-1, 1)) * rng.randint(1, 6)]
        for a in roots:
            factor = [-a.numerator, a.denominator]
            q = oracle_multiply(q, factor)
            for _ in range(rng.randint(1, 3)):
                r = oracle_multiply(r, factor)
        r, q = oracle_multiply(r, [b, 0, 1]), oracle_multiply(q, [b, 0, 1])
        found_q, found = _real_roots(r)
        assert found_q in (q, [-c for c in q])
        assert len(found) == len(roots)
        assert all(abs(x - a) <= abs(a) / 2**60 for x, a in zip(sorted(found), roots))


def oracle_complex_multiply(a, b):
    """The product of two polynomials in u, v given as {(i, j): (re, im)} with Fraction parts."""
    out = {}
    for (i, j), (x, y) in a.items():
        for (k, m), (z, t) in b.items():
            re, im = out.get((i + k, j + m), (0, 0))
            out[(i + k, j + m)] = (re + x * z - y * t, im + x * t + y * z)
    return out


def oracle_real_part(laurent):
    """Re(|w|^(2N) g) for g = sum b_n w^n, w = u + iv, N the least power that clears every n < 0.

    Expanded in Fractions as b (u^2 + v^2)^(N + n) conj(w)^(-n) for n < 0 and
    b (u^2 + v^2)^N w^n for n >= 0, then made primitive: scaled by the lcm
    of the denominators and divided by the gcd of the numerators.
    """
    top = max(0, -min(laurent))
    norm = {(2, 0): (1, 0), (0, 2): (1, 0)}
    total = {}
    for n, b in laurent.items():
        w = {(1, 0): (1, 0), (0, 1): (0, 1 if n >= 0 else -1)}
        term = {(0, 0): (b.re, b.im)}
        for _ in range(abs(n)):
            term = oracle_complex_multiply(term, w)
        for _ in range(top + min(n, 0)):
            term = oracle_complex_multiply(term, norm)
        for key, (re, _) in term.items():
            total[key] = total.get(key, 0) + re
    total = {key: Fraction(c) for key, c in total.items() if c}
    scale = math.lcm(*(c.denominator for c in total.values()))
    content = math.gcd(*(int(c * scale) for c in total.values()))
    return {key: int(c * scale) // content for key, c in total.items()}


@pytest.mark.parametrize(
    "laurent",
    [
        {-1: gq(Fraction(1, 3), Fraction(1, 2)), 2: gq(0, Fraction(-5, 7))},
        {-2: gq(Fraction(-3, 4)), -1: gq(0, Fraction(2, 9)),
         0: gq(Fraction(5, 6), -1), 3: gq(Fraction(1, 10), 7)},
        {1: gq(Fraction(2, 3), Fraction(-4, 3)), 2: gq(6)},
    ],
    ids=["unequal-denominators", "two-negative-powers", "no-negative-power"],
)
def test_real_part_is_the_primitive_expansion(laurent):
    assert _real_part(laurent) == oracle_real_part(laurent)


def test_real_part_matches_the_expansion_on_seeded_laurent_polynomials():
    """Coefficients with denominators up to 12 and powers -3..3: int coefficients, coprime, as the oracle's."""
    rng = random.Random(35)

    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    for _ in range(40):
        laurent = {n: gq(part(), part()) for n in range(-3, 4) if rng.random() < 0.5}
        laurent = {n: b for n, b in laurent.items() if b}
        if not laurent:
            continue
        found = _real_part(laurent)
        assert found == oracle_real_part(laurent)
        assert all(type(c) is int for c in found.values())
        assert math.gcd(*found.values()) == 1


def test_primitive_divides_ints_by_their_gcd_and_keeps_the_sign():
    assert _primitive([6, -4, 10]) == [3, -2, 5]
    assert _primitive([0, -12, 18]) == [0, -2, 3]
    assert _primitive([-7]) == [-1]
    assert _primitive([5, 3]) == [5, 3]


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def exact_components(coefficients, w0):
    """f = (sum_n c_n w^n, ...) at the Gaussian-rational unit w0, as exact (re, im) pairs."""
    u, v = w0
    norm = u * u + v * v
    powers = {-1: (u / norm, -v / norm), 0: (1, 0), 1: w0, 2: cmul(w0, w0)}
    values = []
    for row in coefficients:
        terms = [cmul(c, powers[n]) for n, c in zip(POWERS, row)]
        values.append((sum(t[0] for t in terms), sum(t[1] for t in terms)))
    return values


def test_hits_by_construction_are_violations():
    """Forms orthogonal to the realified f(z0) meet f at z0 = Log w0, w0 Gaussian rational."""
    plan = SamplingPlan()
    rng = random.Random(7)
    checked = 0
    with budget(20.0):
        while checked < 40:
            w0 = (Fraction(rng.randint(-6, 6), 4), Fraction(rng.randint(-6, 6), 4))
            coefficients = [[gaussian(rng) for _ in POWERS] for _ in range(3)]
            if not any(w0):
                continue
            x = [part for value in exact_components(coefficients, w0) for part in value]
            forms = []
            for _ in range(2):
                b = [rng.randint(-2, 2) for _ in range(6)]
                dot, norm = sum(p * q for p, q in zip(b, x)), sum(p * p for p in x)
                a = [Fraction(norm * p - dot * q) for p, q in zip(b, x)]
                scale = math.lcm(*(c.denominator for c in a))
                forms.append([int(c * scale) for c in a])
            if not any(x) or not independent(*forms):
                continue
            scene = parse_scene(scene_text(coefficients, forms))
            subspace, f = scene.reals["H"], scene.curves["f"]
            assert relative_margin(subspace, f, cmath.log(complex(*w0))) <= 1e-12
            r = verify(f, scene, plan).results[-1]
            assert (r.method, r.verdict) == ("exact", VIOLATED)
            assert relative_margin(subspace, f, complex(*r.violation_sample)) <= plan.tolerance
            checked += 1


def test_dim4_witness_is_avoided_exactly_on_images_of_the_standard_four():
    plan = SamplingPlan()
    rng = random.Random(2019)
    checked = 0
    with budget(10.0):
        while checked < 30:
            image = standard_four_image(rng)
            if image is None:
                continue
            _, hyperplanes = image
            subspace, curve = witness_dim4_subspace(hyperplanes)
            names = [(f"H{n}", h) for n, h in enumerate(hyperplanes, 1)]
            report = verify(curve, _witness_scene(names, [("H", subspace)]), plan)
            assert [(r.method, r.verdict) for r in report.results] == [("exact", AVOIDED)] * 5
            checked += 1
