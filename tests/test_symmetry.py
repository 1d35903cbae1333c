"""Verdicts are invariant under the symmetries of the question: conjugation and precomposition.

Conjugation.  With f*(z) = conj(f(conj z)), each coefficient and each
exponent coefficient of f conjugated, f meets the hyperplane {a.w = 0} at z
exactly when f* meets {conj(a).w = 0} at conj(z), and f meets the real
subspace cut out by forms l(x, y) at z exactly when f* meets the one cut
out by l(x, -y) at conj(z).  So every method and verdict stays, and every
exact sample keeps its modulus.

Precomposition.  A nonconstant polynomial q maps C onto C, so f o q meets
exactly the sets that f meets, and q maps each zero of a restriction of
f o q to a zero of the same restriction of f.  Every set that f settles
exactly keeps its method and verdict on f o q, and q of each exact sample
is a zero of f's restriction, checked here with cmath.  Sets that f
leaves to sampling are left out: the sampler is not invariant.

Unlike a change of coordinates, which leaves each restriction l.f as it
is, both change the exponential sums that the deciding code sees.
Samples are compared as zeros, not by bytes: the sample is the nearest
root over three branches of the logarithm (`verifier._nearest`), and a tie
between zeros of equal modulus goes to the smaller imaginary part, which
neither symmetry respects.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from curveavoid.arrangement import WITNESS_EXISTS, RealSubspace
from curveavoid.curves import ExpAffineCurve, exp_sum
from curveavoid.exact_linalg import GQ_ZERO, gq
from curveavoid.projective import ComplexHyperplane
from curveavoid.scene import Scene, parse_scene
from curveavoid.verifier import VIOLATED, SamplingPlan, verify

from test_acceptance import budget
from test_arrangement import (
    assert_meets_only_s,
    classify_tag,
    diagonal_curves,
    refutation_arrangements,
    refutation_scene,
)
from test_resultant import POWERS, components_at, gaussian, independent, relative_margin, scene_text

SCENES = Path(__file__).resolve().parent.parent / "scenes"
CORPUS = {path.name: parse_scene(path.read_text()) for path in sorted(SCENES.glob("*.scene"))}
PLAN = SamplingPlan(grid_points=41, random_points=200)


def conjugate_curve(curve):
    return ExpAffineCurve(
        tuple(
            exp_sum((t.coeff.conjugate(), [a.conjugate() for a in t.exponent]) for t in component.terms)
            for component in curve.components
        )
    )


def conjugate_scene(scene):
    """The conjugate hyperplanes, the real subspaces with each y_j coefficient negated, and the curves."""
    return Scene(
        {
            name: ComplexHyperplane([a.conjugate() for a in h.coefficients])
            for name, h in scene.hyperplanes.items()
        },
        {
            name: RealSubspace([[-a if k % 2 else a for k, a in enumerate(form)] for form in s.forms])
            for name, s in scene.reals.items()
        },
        {name: conjugate_curve(curve) for name, curve in scene.curves.items()},
        scene.order,
    )


def seeded_scenes(count, seed):
    """One-unit curves against the standard four and two integer real forms (`test_resultant`)."""
    rng = random.Random(seed)
    while count:
        coefficients = [[gaussian(rng) for _ in POWERS] for _ in range(3)]
        forms = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(2)]
        if independent(*forms):
            count -= 1
            yield parse_scene(scene_text(coefficients, forms))


def assert_conjugation_keeps_the_verdicts(scene):
    mirror = conjugate_scene(scene)
    for name, curve in scene.curves.items():
        report = verify(curve, scene, PLAN, name)
        image = verify(mirror.curves[name], mirror, PLAN, name)
        assert image.projection_constant == report.projection_constant
        for r, s in zip(report.results, image.results, strict=True):
            assert (s.set, s.method, s.verdict) == (r.set, r.method, r.verdict)
            if r.method == "exact" and r.violation_sample is not None:
                z, w = complex(*r.violation_sample), complex(*s.violation_sample)
                assert math.isclose(abs(w), abs(z), rel_tol=1e-9, abs_tol=1e-9)


def test_conjugation_maps_the_scene_to_its_mirror_image():
    scene = parse_scene(
        "hyperplane H: z1 + i*z2 = 0\nreal S: x1 + 2*y1 - y3 = 0\n"
        "curve f: (exp((1 + i)*z), i, 2*exp(-i*z^2))\n"
    )
    mirror = conjugate_scene(scene)
    assert mirror == parse_scene(
        "hyperplane H: z1 - i*z2 = 0\nreal S: x1 - 2*y1 + y3 = 0\n"
        "curve f: (exp((1 - i)*z), -i, 2*exp(i*z^2))\n"
    )
    assert conjugate_scene(mirror) == scene


@pytest.mark.parametrize("name", [name for name, scene in CORPUS.items() if scene.curves])
def test_conjugation_keeps_every_corpus_verdict(name):
    with budget(5.0):
        assert_conjugation_keeps_the_verdicts(CORPUS[name])


def test_conjugation_keeps_seeded_one_unit_verdicts():
    with budget(5.0):
        for scene in seeded_scenes(20, 12):
            assert_conjugation_keeps_the_verdicts(scene)


def test_conjugation_keeps_the_refutation_search():
    """The refutation search's arrangements and diagonal curves (`test_arrangement`, seed 9), conjugated.

    Each conjugate arrangement gets the same classify tag, and each
    conjugate curve on a diagonal is still decided exactly, with a
    nonconstant projection, meeting S and no hyperplane.
    """
    rng = random.Random(9)
    checked = 0
    with budget(5.0):
        for hyperplanes, s, tag, _, points in refutation_arrangements(rng):
            if checked == 30:
                break
            mirror = conjugate_scene(refutation_scene(hyperplanes, s))
            assert classify_tag(list(mirror.hyperplanes.values()), mirror.reals["S"]) == tag
            if tag == WITNESS_EXISTS:
                continue
            checked += 1
            for curve in diagonal_curves(rng, points, 6):
                assert_meets_only_s(conjugate_curve(curve), mirror)


def poly_times(a, b):
    out = [GQ_ZERO] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def compose(p, q):
    """p(q(z)) for coefficient lists, lowest degree first, by Horner's rule."""
    out = []
    for c in reversed(p):
        out = poly_times(out, q)
        out = [out[0] + c, *out[1:]] if out else [c]
    return out


def precompose_curve(curve, q):
    return ExpAffineCurve(
        tuple(exp_sum((t.coeff, compose(t.exponent, q)) for t in component.terms) for component in curve.components)
    )


def seeded_polynomials(rng):
    """z + b and a z + c with a, b, c in Z[i]/4 and a, b nonzero, then z^2 and z^3."""

    def quarter():
        return gq(Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4))

    a = b = GQ_ZERO
    while not (a and b):
        a, b = quarter(), quarter()
    one = gq(1)
    return [[b, one], [quarter(), a], [GQ_ZERO, GQ_ZERO, one], [GQ_ZERO, GQ_ZERO, GQ_ZERO, one]]


def poly_at(q, z):
    return sum(c.to_complex() * z**k for k, c in enumerate(q))


def hyperplane_margin(h, curve, z):
    """|a.f(z)| / |f(z)|, with f evaluated by cmath."""
    f = components_at(curve, z)
    value = sum(a.to_complex() * w for a, w in zip(h.coefficients, f))
    return abs(value) / math.sqrt(sum(abs(w) ** 2 for w in f))


def assert_precomposition_keeps_the_verdicts(scene, q):
    for name, curve in scene.curves.items():
        report = verify(curve, scene, PLAN, name)
        image = verify(precompose_curve(curve, q), scene, PLAN, name)
        for r, s in zip(report.results, image.results, strict=True):
            if r.method != "exact":
                continue
            assert (s.set, s.method, s.verdict) == (r.set, r.method, r.verdict), q
            assert (s.violation_sample is None) == (r.violation_sample is None), q
            if s.verdict == VIOLATED and s.violation_sample is not None:
                z = poly_at(q, complex(*s.violation_sample))
                if s.set in scene.hyperplanes:
                    margin = hyperplane_margin(scene.hyperplanes[s.set], curve, z)
                else:
                    margin = relative_margin(scene.reals[s.set], curve, z)
                assert margin <= PLAN.tolerance, (s.set, q, z, margin)


@pytest.mark.parametrize("name", [name for name, scene in CORPUS.items() if scene.curves])
def test_precomposition_keeps_every_exact_corpus_verdict(name):
    rng = random.Random(name)
    with budget(5.0):
        for q in seeded_polynomials(rng):
            assert_precomposition_keeps_the_verdicts(CORPUS[name], q)


def test_precomposition_keeps_seeded_one_unit_verdicts():
    rng = random.Random(23)
    with budget(10.0):
        for scene in seeded_scenes(10, 13):
            for q in seeded_polynomials(rng):
                assert_precomposition_keeps_the_verdicts(scene, q)


def test_precomposition_keeps_the_refutation_search():
    """The refutation search's diagonal curves (`test_arrangement`, seed 9), each precomposed with one q.

    q is one of `seeded_polynomials`, drawn from its own rng.  f o q meets
    exactly the sets that f meets, so each precomposed curve is still
    decided exactly, with a nonconstant projection, meeting S and no
    hyperplane.
    """
    rng, shapes = random.Random(9), random.Random(19)
    checked = curves = 0
    with budget(5.0):
        for hyperplanes, s, tag, _, points in refutation_arrangements(rng):
            if checked == 30:
                break
            if tag == WITNESS_EXISTS:
                continue
            checked += 1
            scene = refutation_scene(hyperplanes, s)
            for curve in diagonal_curves(rng, points, 6):
                q = shapes.choice(seeded_polynomials(shapes))
                assert_meets_only_s(precompose_curve(curve, q), scene)
                curves += 1
    assert curves == 540
