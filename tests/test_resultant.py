"""Exact dim-4 subspaces on one-unit curves, checked against oracles that do not use the package.

A curve whose exponents are all n z (one unit w = e^z) has its dim-4
subspaces decided by real elimination in `curveavoid.resultant`.  Three
oracles check the verdicts: a float Newton solve of (Re g1, Re g2) in
(x, y), hits built by construction at a Gaussian-rational unit w0, and
the dim-4 witness on GL3(Q(i)) images of the standard four.  Every
violated verdict's sample must make both forms vanish to within the
plan's tolerance, evaluated here with cmath.
"""

import cmath
import math
import random
from fractions import Fraction
from pathlib import Path

from curveavoid.cli import _witness_scene
from curveavoid.curves import witness_dim4_subspace
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
    """The largest |form(f(z))| / |f(z)| over the subspace's real forms on (x1, y1, ..., y3)."""
    f = components_at(curve, z)
    coords = [part for w in f for part in (w.real, w.imag)]
    size = math.sqrt(sum(abs(w) ** 2 for w in f))
    values = [sum(float(a) * x for a, x in zip(form, coords)) for form in subspace.forms]
    return max(map(abs, values)) / size


def gaussian(rng):
    """A Gaussian integer in [-3, 3]^2 as an (re, im) pair."""
    return (rng.randint(-3, 3), rng.randint(-3, 3))


def term_text(c, n):
    return f"({c[0]} + {c[1]}*i)*exp({n}*z)"


def form_text(form):
    names = ("x1", "y1", "x2", "y2", "x3", "y3")
    return " + ".join(f"({a})*{v}" for a, v in zip(form, names) if a) + " = 0"


def scene_text(coefficients, forms):
    """The standard four, real H from the two forms, and curve f = (sum_n c_n e^(n z), ...)."""
    components = [
        " + ".join(term_text(c, n) for n, c in zip(POWERS, row) if any(c)) or "0"
        for row in coefficients
    ]
    return (
        STANDARD4
        + "real H: " + "; ".join(form_text(f) for f in forms) + "\n"
        + "curve f: (" + ", ".join(components) + ")\n"
    )


def independent(a, b):
    return any(a[i] * b[j] != a[j] * b[i] for i in range(6) for j in range(i))


def newton_zero(coefficients, forms, radius):
    """A common zero of Re g1 and Re g2 with |z| < radius, by float Newton from a grid, or None.

    g_k = sum_n b_(k,n) e^(n z) with b_(k,n) = sum_j (a_(2j) - i a_(2j+1)) c_(j,n);
    d/dx Re g = Re g' and d/dy Re g = -Im g'.
    """
    holomorphic = [[complex(f[2 * j], -f[2 * j + 1]) for j in range(3)] for f in forms]
    b = [
        [sum(a * complex(*row[k]) for a, row in zip(h, coefficients)) for k in range(len(POWERS))]
        for h in holomorphic
    ]

    def values(z):
        g = [sum(c * cmath.exp(n * z) for n, c in zip(POWERS, row)) for row in b]
        dg = [sum(n * c * cmath.exp(n * z) for n, c in zip(POWERS, row)) for row in b]
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
                size = sum(abs(c * cmath.exp(n * z)) for row in b for n, c in zip(POWERS, row))
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
