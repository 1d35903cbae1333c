"""Verdicts are invariant under complex conjugation of the question.

With f*(z) = conj(f(conj z)), each coefficient and each exponent
coefficient of f conjugated, f meets the hyperplane {a.w = 0} at z
exactly when f* meets {conj(a).w = 0} at conj(z), and f meets the real
subspace cut out by forms l(x, y) at z exactly when f* meets the one cut
out by l(x, -y) at conj(z).  So every method and verdict stays, and every
exact sample keeps its modulus.  Unlike a change of coordinates, which
leaves each restriction l.f as it is, conjugation changes the exponential
sums that the deciding code sees.  Samples are compared by modulus, not
by bytes: a tie between zeros of equal modulus goes to the smaller
imaginary part (`verifier._nearest`), which conjugation does not respect.
"""

import math
import random
from pathlib import Path

import pytest

from curveavoid.arrangement import RealSubspace
from curveavoid.curves import ExpAffineCurve, exp_sum
from curveavoid.projective import ComplexHyperplane
from curveavoid.scene import Scene, parse_scene
from curveavoid.verifier import SamplingPlan, verify

from test_acceptance import budget
from test_resultant import POWERS, gaussian, independent, scene_text

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
