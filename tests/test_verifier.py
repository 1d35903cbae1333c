"""Tests for the avoidance verifier: exact paths, sampling, and determinism."""

import cmath
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curveavoid.arrangement import RealSubspace, holomorphic_coefficients
from curveavoid.cli import main
from curveavoid.curves import ExpAffineCurve, apply_form, exp_sum, exp_term
from curveavoid.exact_linalg import gq
from curveavoid.projective import ComplexHyperplane
from curveavoid.scene import Scene, parse_scene
from curveavoid.verifier import (
    AVOIDED,
    MAX_GRID_POINTS,
    MAX_RANDOM_POINTS,
    VIOLATED,
    ZERO_SET_HIT,
    SamplingPlan,
    _sampled_result,
    projective_value,
    verify,
)
from curveavoid.sampling import Sampler, _margins_for_subspace, _targeted_for_subspace

DIM4_SUBSPACE_SCENE = """
hyperplane H1: z1 = 0
hyperplane H2: z2 = 0
hyperplane H3: z3 = 0
hyperplane H4: z1 + z2 + z3 = 0
real H: x1 - x2 = 0; x1 - x3 = 0
curve f: (exp(z), -exp(z), exp(2*z))
"""


SCENES = Path(__file__).resolve().parent.parent / "scenes"
# exp(z) and exp(i*z) share no unit, so its dim-4 subspace is sampled
SAMPLED_DIM4_SCENE = (SCENES / "sampled_dim4.scene").read_text()


def scene_and_curve(text, name="f"):
    scene = parse_scene(text)
    return scene, scene.curves[name]


class TestExactPaths:
    def test_single_term_avoided(self):
        scene, f = scene_and_curve("hyperplane H: z1 = 0\ncurve f: (exp(z), 1, 1)")
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict) == ("exact", AVOIDED)
        assert r.min_margin is None and r.violation_sample is None

    def test_constant_combination_avoided(self):
        # z1 + z2 composed with (1, exp(z) - 1, ...) stays the constant e^0
        scene, f = scene_and_curve(
            "hyperplane H: z1 - z2 = 0\ncurve f: (1 + exp(z), exp(z), 1)"
        )
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict) == ("exact", AVOIDED)

    def test_curve_inside_hyperplane(self):
        scene, f = scene_and_curve(
            "hyperplane H: z1 + z2 = 0\ncurve f: (exp(z), -exp(z), 1)"
        )
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict) == ("exact", ZERO_SET_HIT)

    def test_curve_inside_real_subspace(self):
        scene, f = scene_and_curve(
            "real S: x1 - x2 = 0\ncurve f: (exp(z), exp(z), 1)"
        )
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict) == ("exact", ZERO_SET_HIT)

    def test_real_subspace_with_constant_nonzero_form(self):
        scene, f = scene_and_curve(
            "real S: x1 + x2 + x3 = 0\ncurve f: (1, exp(z), -exp(z))"
        )
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict) == ("exact", AVOIDED)

    def test_imaginary_constant_is_a_hit(self):
        # the form value is the constant i, whose real part vanishes
        scene, f = scene_and_curve(
            "real S: x1 = 0\ncurve f: (i, exp(z), 1)"
        )
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict) == ("exact", ZERO_SET_HIT)

    def test_violation_near_i_pi(self):
        """1 + e^z vanishes at the odd multiples of i pi; +i pi and -i pi tie
        as nearest to the origin, and the tie goes to the smaller k."""
        scene, f = scene_and_curve(
            "hyperplane D: z1 + z2 = 0\ncurve f: (exp(z), 1, 1)"
        )
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict) == ("exact", VIOLATED)
        assert r.min_margin is None
        assert r.violation_sample == (0.0, math.pi)

    def test_far_hit_is_violated_exactly(self):
        """exp(z/100) - 2 vanishes at 100 log 2, far outside the sampling disk; S's
        form restricts to the nonconstant exp(z/100) - 3, whose real part vanishes
        at its zero 100 log 3 (little Picard decides it)."""
        scene = parse_scene((SCENES / "far_hit.scene").read_text())
        h1, h2, s = verify(scene.curves["f"], scene).results
        assert (h1.set, h1.method, h1.verdict) == ("H1", "exact", VIOLATED)
        assert h1.min_margin is None
        assert h1.violation_sample == pytest.approx((100 * math.log(2), 0.0), abs=1e-9)
        assert (h2.method, h2.verdict) == ("exact", AVOIDED)
        assert (s.set, s.method, s.verdict, s.min_margin) == ("S", "exact", VIOLATED, None)
        assert s.violation_sample == pytest.approx((100 * math.log(3), 0.0), abs=1e-9)

    def test_far_hit_exits_one(self, monkeypatch, capsys):
        monkeypatch.chdir(SCENES.parent)
        assert main(["verify", "--curve", "f", "scenes/far_hit.scene"]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        assert [(r["set"], r["verdict"]) for r in results][:2] == [
            ("H1", VIOLATED), ("H2", AVOIDED),
        ]

    def test_proportional_restrictions_are_decided_exactly(self):
        """S's forms restrict to e^z + 1 and e^z + 1 + c.  On f, c = i drops out
        and S is met where e^z = -1; on g, c = 1 + i has real part 1, so g avoids S."""
        scene = parse_scene((SCENES / "proportional_hit.scene").read_text())
        (hit,) = verify(scene.curves["f"], scene).results
        assert (hit.method, hit.verdict, hit.violation_sample) == ("exact", VIOLATED, (0.0, math.pi))
        (avoided,) = verify(scene.curves["g"], scene).results
        assert (avoided.method, avoided.verdict, avoided.min_margin) == ("exact", AVOIDED, None)

    def test_nonlinear_direction_difference_has_closed_form(self):
        """e^(z^2 + z) - e^(z^2) = e^(z^2) (e^z - 1) vanishes at 0."""
        scene, f = scene_and_curve(
            "hyperplane D: z1 + z2 = 0\ncurve f: (exp(z^2 + z), -exp(z^2), 1)"
        )
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict, r.violation_sample) == ("exact", VIOLATED, (0.0, 0.0))

    def test_closed_form_survives_an_underflowing_constant(self):
        """e^z - e^(-1000) vanishes at z = -1000, though e^(-1000) is 0.0 as a float."""
        scene, f = scene_and_curve(
            "hyperplane H: z1 + z2 = 0\ncurve f: (exp(z), -exp(-1000), 1)"
        )
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict, r.violation_sample) == ("exact", VIOLATED, (-1000.0, 0.0))

    def test_constant_cancelled_in_floating_point_has_no_closed_form(self):
        """1 - e^(10^-60) is nonzero but rounds to 0.0; the verdict still stands."""
        scene, f = scene_and_curve(
            "hyperplane H: z1 + z2 = 0\ncurve f: (exp(z), 1 - exp(1/10^60), 1)"
        )
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict, r.violation_sample) == ("exact", VIOLATED, None)

    @pytest.mark.parametrize(
        "component, sample",
        [
            # the constant group floats to 0.0, so w = -1 is the one nonzero root left;
            # the other exact root, about -10^-20, lies near |z| = 46
            ("exp(2*z) + exp(z) + exp(1/10^20) - 1", (0.0, math.pi)),
            # the e^z group floats to 0.0 as well, and no nonzero root is left
            ("exp(2*z) + exp(z + 1/10^20) - exp(z) + exp(1/10^20) - 1", None),
        ],
    )
    def test_groups_that_float_to_zero_drop_out_of_the_roots(self, component, sample):
        """e^(10^-20) - 1 is a nonzero constant that rounds to 0.0; the verdict still stands."""
        scene, f = scene_and_curve(f"hyperplane H: z1 = 0\ncurve f: ({component}, 0, 1)")
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict, r.violation_sample) == ("exact", VIOLATED, sample)

    def test_three_groups_zero_from_the_unit_quadratic(self):
        """e^(z/50) + e^(z/100) - 1 is w^2 + w - 1 in w = e^(z/100), so it
        vanishes at 100 log((sqrt 5 - 1)/2), outside the disk."""
        scene, f = scene_and_curve(
            "hyperplane H: z1 + z2 + z3 = 0\ncurve f: (exp(z/50), exp(z/100), -1)"
        )
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict, r.min_margin) == ("exact", VIOLATED, None)
        assert r.violation_sample == pytest.approx(
            (100 * math.log((math.sqrt(5) - 1) / 2), 0.0), abs=1e-9
        )
        terms = [(gq(1), gq(0), gq(Fraction(1, 50))), (gq(1), gq(0), gq(Fraction(1, 100))),
                 (gq(-1), gq(0), gq(0))]
        values = oracle_term_values(terms, complex(*r.violation_sample))
        assert abs(sum(values)) <= 1e-9 * sum(abs(v) for v in values)

    def test_three_groups_with_a_zero_in_the_disk(self):
        """e^(2z) + e^z - 1 is a quadratic in w = e^z; its zero is log((sqrt 5 - 1)/2)."""
        scene, f = scene_and_curve(
            "hyperplane H: z1 + z2 + z3 = 0\ncurve f: (exp(2*z), exp(z), -1)"
        )
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict, r.min_margin) == ("exact", VIOLATED, None)
        z = complex(*r.violation_sample)
        assert abs(z) <= 10.0
        assert abs(cmath.exp(2 * z) + cmath.exp(z) - 1) < 1e-9

    @pytest.mark.parametrize(
        "components",
        [
            "exp(z), exp(i*z), 1",  # the slopes 1 and i are not rational multiples
            "exp(z^2), exp(z), 1",  # the directions differ by a nonlinear polynomial
            "exp(z), exp(z/1000), -1",  # a unit polynomial of degree 1000, over the cap
        ],
    )
    def test_hit_without_a_unit_form_has_a_null_sample(self, components, monkeypatch):
        def no_sampler(plan):
            raise AssertionError("a hyperplane built a Sampler")

        monkeypatch.setattr("curveavoid.sampling.Sampler", no_sampler)
        scene, f = scene_and_curve(f"hyperplane H: z1 + z2 + z3 = 0\ncurve f: ({components})")
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict, r.min_margin, r.violation_sample) == (
            "exact", VIOLATED, None, None,
        )

    def test_double_root_of_the_unit_exponent(self):
        """e^(z^2) - 2e^(2z^2) + 1 = -(2w + 1)(w - 1) in w = e^(z^2); w = 1 gives z^2 = 0, a double root."""
        scene, f = scene_and_curve(
            "hyperplane H: z1 + z2 + z3 = 0\ncurve f: (exp(z^2), -2*exp(2*z^2), 1)"
        )
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict, r.violation_sample) == ("exact", VIOLATED, (0.0, 0.0))

    def test_precomposed_witness_is_avoided_exactly(self):
        """The dim-4 witness composed with z^3: its exponents are n z^3, so H is decided in w = e^(z^3)."""
        scene = parse_scene((SCENES / "precomposed_witness.scene").read_text())
        results = verify(scene.curves["f"], scene).results
        assert [(r.set, r.method, r.verdict, r.violation_sample) for r in results] == [
            (name, "exact", AVOIDED, None) for name in ("H1", "H2", "H3", "H4", "H")
        ]

    def test_shifted_hit_is_violated_exactly(self):
        """dim4_hit.scene composed with z + 1/2: its common zero moves by -1/2, to near 0.194 - 1.650i."""
        scene = parse_scene((SCENES / "shifted_hit.scene").read_text())
        r = verify(scene.curves["f"], scene).results[-1]
        assert (r.set, r.method, r.verdict, r.min_margin) == ("H", "exact", VIOLATED, None)
        assert r.violation_sample == pytest.approx((0.194272, -1.650346), abs=1e-6)
        z = np.array([complex(*r.violation_sample)])
        assert reference_margins(scene.reals["H"], scene.curves["f"], z)[0] <= 1e-9

    def test_a_rank_two_subspace_is_eliminated_once(self, monkeypatch):
        """The pivot pair comes from the kernel's own elimination, not from a second one."""
        import curveavoid.exact_linalg as exact_linalg

        scene = parse_scene((SCENES / "dim4_hit.scene").read_text())
        widths = []
        eliminate = exact_linalg._eliminate

        def counting(rows, **options):
            widths.append(len(rows[0]))
            return eliminate(rows, **options)

        monkeypatch.setattr(exact_linalg, "_eliminate", counting)
        r = verify(scene.curves["f"], scene).results[-1]
        assert (r.set, r.method, r.verdict) == ("H", "exact", VIOLATED)
        assert widths == [2]  # H's two restrictions, eliminated by `kernel_real` alone

    def test_the_pivot_pair_skips_a_dependent_restriction(self, monkeypatch):
        """e^z, e^z, e^(2z): the second restriction repeats the first, so the pair is (0, 2)."""
        import curveavoid.verifier as verifier

        pairs = []
        unit_plane_result = verifier._unit_plane_result

        def capture(name, g1, g2):
            pairs.append((g1, g2))
            return unit_plane_result(name, g1, g2)

        monkeypatch.setattr(verifier, "_unit_plane_result", capture)
        scene, f = scene_and_curve("real T: x1 = 0; x2 = 0; x3 = 0\ncurve f: (exp(z), exp(z), exp(2*z))")
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict) == ("exact", AVOIDED)
        forms = [holomorphic_coefficients(form) for form in scene.reals["T"].forms]
        assert pairs == [(apply_form(forms[0], f), apply_form(forms[2], f))]

    def test_a_rank_three_subspace_is_sampled(self):
        """Three restrictions of real rank 3 are beyond the exact scope, so the sampler decides."""
        scene, f = scene_and_curve(
            "real T: x1 - y1 = 0; x3 = 0; -2*x1 + y3 = 0\ncurve f: (exp(z), -exp(z), exp(2*z))"
        )
        r = verify(f, scene).results[0]
        assert (r.set, r.method) == ("T", "sampled")

    def test_shift_by_a_large_imaginary_constant_keeps_the_sample_near(self):
        """With z + 20i, the branches of Log w are centred on Im(Log w - 20i), not on Im(Log w).

        Centred on Im(Log w), the sample was 1.40278 - 10.6221i, two periods below this zero.
        """
        scene = parse_scene((SCENES / "shifted_hit.scene").read_text().replace("1/2", "20*i"))
        r = verify(scene.curves["f"], scene).results[-1]
        assert (r.set, r.method, r.verdict) == ("H", "exact", VIOLATED)
        assert r.violation_sample == pytest.approx((1.40278, 1.94426), abs=1e-5)
        z = np.array([complex(*r.violation_sample)])
        assert reference_margins(scene.reals["H"], scene.curves["f"], z)[0] <= 1e-9


small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
small_gaussians = st.builds(gq, small_rationals, small_rationals)


@st.composite
def grouped_sums(draw):
    """Terms (c, r, q) of sum c e^((base + q step) z + r), and base and step.

    Either one or two arbitrary directions (q = 0, 1), or one to four
    rational multiples q step of one slope, whose unit polynomial then has
    degree 1, 2, 3 or more.  Offsets are distinct within a direction and
    coefficients nonzero, so by Lindemann-Weierstrass every direction keeps
    a nonzero group.
    """
    if draw(st.booleans()):
        lams = draw(st.lists(small_gaussians, min_size=1, max_size=2, unique=True))
        base, step, qs = lams[0], lams[-1] - lams[0], [Fraction(0), Fraction(1)][: len(lams)]
    else:
        base, step = gq(0), draw(small_gaussians.filter(bool))
        qs = draw(st.lists(small_rationals, min_size=1, max_size=4, unique=True))
    terms = []
    for q in qs:
        offsets = draw(st.lists(small_gaussians, min_size=1, max_size=3, unique=True))
        terms += [(draw(small_gaussians.filter(bool)), r, q) for r in offsets]
    return terms, base, step


def to_complex(q):
    return complex(float(q.re), float(q.im))


def oracle_term_values(terms, z):
    """Each term c e^(lam z + r) at z, all scaled by one positive factor against overflow."""
    exponents = [to_complex(lam) * z + to_complex(r) for _, r, lam in terms]
    top = max(e.real for e in exponents)
    return [to_complex(c) * cmath.exp(e - top) for (c, _, _), e in zip(terms, exponents)]


def oracle_zero_moduli(terms, step):
    """|z| for the zeros z of sum c e^(q step z + r) near the origin, by numpy's roots.

    With D the common denominator of the qs, the sum is a power of
    w = e^(step z / D) times a polynomial in w; each root w != 0 gives the
    zeros (Log w + 2 pi i k) D / step.
    """
    d = math.lcm(*(q.denominator for _, _, q in terms))
    low = min(q for _, _, q in terms)
    coeffs = np.zeros(int((max(q for _, _, q in terms) - low) * d) + 1, dtype=complex)
    for c, r, q in terms:
        coeffs[int((q - low) * d)] += to_complex(c) * cmath.exp(to_complex(r))
    mu = to_complex(step) / d
    return [
        abs((cmath.log(w) + 2j * math.pi * k) / mu)
        for w in np.roots(coeffs[::-1])
        if w
        for k in range(-2, 3)
    ]


@settings(max_examples=200, deadline=None)
@given(grouped_sums())
def test_hyperplane_verdict_follows_the_group_count(case):
    """One direction group is avoided, two or more are met at the zero nearest the origin."""
    terms, base, step = case
    s = exp_sum([(c, (offset, base + step * q)) for c, offset, q in terms])
    curve = ExpAffineCurve((s, exp_term(1), exp_term(1)))
    scene = Scene(
        hyperplanes={"H": ComplexHyperplane((1, 0, 0))}, order=(("hyperplane", "H"),)
    )
    (r,) = verify(curve, scene).results
    assert (r.method, r.min_margin) == ("exact", None)
    if len({q for _, _, q in terms}) == 1:
        assert (r.verdict, r.violation_sample) == (AVOIDED, None)
    else:
        assert r.verdict == VIOLATED
        z = complex(*r.violation_sample)
        values = oracle_term_values([(c, offset, base + step * q) for c, offset, q in terms], z)
        assert abs(sum(values)) <= 1e-9 * sum(abs(v) for v in values)
        assert abs(z) <= min(oracle_zero_moduli(terms, step)) * (1 + 1e-4) + 1e-9


gaussian_pairs = st.tuples(small_rationals, small_rationals)


@st.composite
def real_hyperplane_cases(draw):
    """A form (a1, b1, a2, b2, a3, b3), per component terms (c, slope, offset) of
    c e^(slope z + offset), Gaussian rationals as (re, im) pairs, and optionally a
    coordinate k: component k is then an imaginary constant and the subspace has the
    second form x_k, which holds on the whole curve.  The curve is nonzero."""
    form = draw(st.lists(small_rationals, min_size=6, max_size=6).filter(any))
    term = st.tuples(gaussian_pairs, st.one_of(st.just((0, 0)), gaussian_pairs), gaussian_pairs)
    components = [draw(st.lists(term, max_size=3)) for _ in range(3)]
    k = draw(st.one_of(st.none(), st.integers(0, 2)))
    if k is not None:
        components[k] = [((0, draw(small_rationals)), (0, 0), (0, 0))]
    assume(any(oracle_merged([((1, 0), comp)]) for comp in components))
    return form, components, k


def oracle_merged(scaled_components):
    """sum_j c_j f_j as {(slope, offset): coefficient}, for (c_j, f_j) pairs, zeros dropped."""
    merged = {}
    for (a, b), comp in scaled_components:
        for (c, d), slope, offset in comp:
            re, im = merged.get((slope, offset), (0, 0))
            merged[(slope, offset)] = (re + a * c - b * d, im + a * d + b * c)
    return {key: value for key, value in merged.items() if any(value)}


@settings(max_examples=150, deadline=None)
@given(real_hyperplane_cases())
def test_real_hyperplane_is_met_exactly_when_its_form_is_nonconstant(case):
    """A nonconstant g = c.f omits at most one value (little Picard), so Re g
    vanishes somewhere; the sample is a point where it does.  A second form
    whose restriction is an imaginary constant changes nothing."""
    form, components, k = case
    curve = ExpAffineCurve(
        tuple(
            exp_sum((gq(*c), (gq(*offset), gq(*slope))) for c, slope, offset in comp)
            for comp in components
        )
    )
    forms = [tuple(form)] + ([] if k is None else [tuple(int(i == 2 * k) for i in range(6))])
    scene = Scene(reals={"S": RealSubspace(tuple(forms))}, order=(("real", "S"),))
    (r,) = verify(curve, scene).results
    # Re(sum c_j z_j) with c_j = a_j - i b_j is the form a_j x_j + b_j y_j
    holomorphic = [(form[2 * j], -form[2 * j + 1]) for j in range(3)]
    composed = oracle_merged(zip(holomorphic, components))
    nonconstant = any(slope != (0, 0) for slope, _ in composed)
    assert (r.method, r.min_margin) == ("exact", None)
    assert (r.verdict == VIOLATED) == nonconstant
    if r.violation_sample is not None:
        z = complex(*r.violation_sample)
        exponents = [complex(*slope) * z + complex(*offset) for slope, offset in composed]
        top = max((x.real for x in exponents), default=0.0)
        values = [complex(*c) * cmath.exp(x - top) for c, x in zip(composed.values(), exponents)]
        assert abs(sum(values).real) <= 1e-9 * sum(abs(v) for v in values)


class TestSampledPaths:
    """The sampler on its own.  `verify` decides the dim-4 witness exactly now (see
    test_resultant.py), so these call `Sampler(plan).subspace` on the same curve."""

    def test_dim4_subspace_margin(self):
        scene, f = scene_and_curve(DIM4_SUBSPACE_SCENE)
        plan = SamplingPlan()
        subspace_result = _sampled_result("H", plan, *Sampler(plan).subspace(scene.reals["H"], f))
        assert (subspace_result.method, subspace_result.verdict) == ("sampled", AVOIDED)
        assert subspace_result.min_margin > 1e-6

    def test_margin_shrinks_with_radius(self):
        """The observed margin scale follows e^x on the disk boundary."""
        scene, f = scene_and_curve(DIM4_SUBSPACE_SCENE)
        small, _ = Sampler(SamplingPlan(disk_radius=3.0)).subspace(scene.reals["H"], f)
        large, _ = Sampler(SamplingPlan(disk_radius=10.0)).subspace(scene.reals["H"], f)
        assert small > large > 0

    def test_real_violation_found_by_bisection(self):
        """A curve that crosses x1 = 0 transversally is caught."""
        scene, f = scene_and_curve("real S: x1 = 0\ncurve f: (1 + exp(z), 1, 1)")
        r = verify(f, scene).results[0]
        assert r.verdict == VIOLATED
        x, y = r.violation_sample
        # Re(1 + e^z) = 0 on a curve through x = 0, y = pi
        assert abs(1 + math.exp(x) * math.cos(y)) < 1e-9

    def test_margin_reads_each_form_at_unit_pivot(self):
        """T's forms are stored as the coprime rows (2, 0, 0, 1, 0, 0) and (0, 1, -3, 0, 0, 0).

        The margin reads x1 + y2/2, the first at unit pivot: its stored multiple 2 x1 + y2
        would double the margin to 7.77e-04.
        """
        scene, f = scene_and_curve("real T: 2*x1 + y2 = 0; 3*x2 - y1 = 0\ncurve f: (exp(z), exp(i*z), 1)")
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict, f"{r.min_margin:.6e}") == ("sampled", AVOIDED, "3.883184e-04")


class TestTargeting:
    def test_targeted_points_sit_on_individual_zero_sets(self):
        scene, f = scene_and_curve(DIM4_SUBSPACE_SCENE)
        subspace = scene.reals["H"]
        sampler = Sampler(SamplingPlan())
        points = _targeted_for_subspace(subspace, f, sampler.nodes, sampler.inside)
        assert len(points) > 100
        margins = _margins_for_subspace(subspace, f, points)
        # each point nearly kills one form, never both
        assert margins.min() > 0

    def test_base_samples_respect_the_disk(self):
        plan = SamplingPlan(disk_radius=5.0, grid_points=21, random_points=100)
        samples = Sampler(plan).base
        assert len(samples) > 100
        assert np.abs(samples).max() <= 5.0 + 1e-12


# a wrong sampled verdict fails the assert; any other error still fails the test
wrong_sampled_verdict = pytest.mark.xfail(raises=AssertionError, reason="the default plan samples a wrong verdict")


class TestKnownWrongSampledVerdicts:
    """Scenes whose true verdict the sampler gets wrong under the default plan.

    Sampled verdicts are evidence, not proof.  The xfails are strict, so a
    change that decides one of these correctly must remove its marker.
    """

    @wrong_sampled_verdict
    def test_a_rank_three_hit_off_the_grid(self):
        """f(log(1 + i)) = (1 + i, -1 - i, 2i) lies in T: x1 = y1 = 1, x3 = 0 and y3 = 2 = 2 x1.

        Sampled, the verdict is avoided with min margin 0.0111.
        """
        scene, f = scene_and_curve(
            "real T: x1 - y1 = 0; x3 = 0; -2*x1 + y3 = 0\ncurve f: (exp(z), -exp(z), exp(2*z))"
        )
        assert verify(f, scene).results[0].verdict == VIOLATED

    @wrong_sampled_verdict
    def test_a_vanishing_margin_without_a_hit(self):
        """With w = e^z = r e^(i theta), Re w^7 = Re w^6 = 0 needs 7 theta and 6 theta in pi/2 + pi Z.

        Their difference theta is then in pi Z, where cos 7 theta = +-1, so f avoids T.  The
        resultant has degree 42, above `resultant.MAX_DEGREE`, and the sampler reports violated
        with min margin 4.17e-31 at (-9.8, -0.2618), where the curve tends projectively to (0, 0, 1).
        """
        scene, f = scene_and_curve("real T: x1 = 0; x2 = 0\ncurve f: (exp(7*z), exp(6*z), 1)")
        assert verify(f, scene).results[0].verdict == AVOIDED

    @wrong_sampled_verdict
    def test_a_singular_common_zero_no_shear_settles(self):
        """In w = e^z, f1 = (w - 2)^2 and f2 = i w (w - 2)^2, so f(log 2) = (0, 0, 1) lies in T.

        Both real curves Re f_k = 0 are singular at w = 2, no shear passes, and the zero lies
        off the grid: sampled, the verdict is avoided with min margin 2.77e-05.
        """
        scene, f = scene_and_curve(
            "real T: x1 = 0; x2 = 0\n"
            "curve f: (exp(2*z) - 4*exp(z) + 4, i*exp(3*z) - 4*i*exp(2*z) + 4*i*exp(z), 1)"
        )
        assert verify(f, scene).results[0].verdict == VIOLATED

    @wrong_sampled_verdict
    def test_a_common_zero_where_neither_restriction_vanishes(self):
        """With w = e^z, f1 = (w - 2)^2 + i and f2 = i w (w - 2)^2 + i, so f(log 2) = (i, i, 1) lies in T.

        Re f1 = Re f2 = 0 there, and both real curves Re f_k = 0 are singular at w = 2, so no
        shear separates the zero and `unit_plane_zeros` returns None.  A gcd of f1 and f2 over
        Q(i) cannot decide it either: it is 1, since f1 and f2 themselves do not vanish at w = 2,
        and it sees only common zeros of the holomorphic functions, not of their real parts.  The
        subresultant that is the gcd of the two sheared real curves over a fibre can: at shear 2
        it is 3 v^2 over u = 2, which puts the common zero at w = 2.  Sampled, the verdict is
        avoided with min margin 2.77e-05.
        """
        scene, f = scene_and_curve(
            "real T: x1 = 0; x2 = 0\n"
            "curve f: (exp(2*z) - 4*exp(z) + 4 + i, i*exp(3*z) - 4*i*exp(2*z) + 4*i*exp(z) + i, 1)"
        )
        assert verify(f, scene).results[0].verdict == VIOLATED


def far_dim4_scene(slope):
    """The dim-4 witness in w = slope z: on the disk, Re w leaves the float range of e^w."""
    return (
        "real H: x1 - x2 = 0; x1 - x3 = 0\n"
        f"curve f: (exp({slope}*z), -exp({slope}*z), exp({2 * slope}*z))\n"
    )


def verify_in_fresh_process(path, *flags):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    return subprocess.run(
        [sys.executable, "-m", "curveavoid.cli", "verify", "--curve", "f", *flags, str(path)],
        env=dict(env, PYTHONPATH=str(SCENES.parent / "src")),
        capture_output=True,
        timeout=120,
    )


class TestFarExponents:
    """The components share one factor e^top per sample point, so margins stay finite.

    The curve avoids H, and `verify` decides it exactly: avoided, exit 0.
    The sampler alone, along Re e^w = 0, sees a relative margin of about
    e^(-960), below the tolerance, so its own verdict would be violated.
    """

    @pytest.mark.parametrize("slope", [100, -100])
    def test_verify_leaves_stderr_empty(self, slope, tmp_path):
        path = tmp_path / "far.scene"
        path.write_text(far_dim4_scene(slope))
        done = verify_in_fresh_process(path)
        assert (done.returncode, done.stderr) == (0, b"")
        (r,) = json.loads(done.stdout)["results"]
        assert (r["method"], r["verdict"], r["min_margin"]) == ("exact", AVOIDED, None)

    @pytest.mark.parametrize("slope", [100, -100])
    def test_sampler_margin_stays_finite(self, slope):
        scene, f = scene_and_curve(far_dim4_scene(slope))
        plan = SamplingPlan()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = _sampled_result("H", plan, *Sampler(plan).subspace(scene.reals["H"], f))
        assert (r.method, r.verdict) == ("sampled", VIOLATED)
        assert math.isfinite(r.min_margin)

    def test_infinite_exponent_is_an_input_error(self, tmp_path):
        """exp(z^64) is infinite on much of a disk of radius 10^5: exit 2, no warning."""
        path = tmp_path / "infinite.scene"
        path.write_text(
            "real H: x1 - x2 = 0; x1 - x3 = 0\ncurve f: (exp(z), -exp(z), exp(z^64))\n"
        )
        done = verify_in_fresh_process(path, "--radius", "100000", "--grid", "5", "--random", "10")
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.decode().splitlines() == [
            "error: an exponent is beyond the float range at a sample point"
        ]

    def test_coefficients_of_many_digits_keep_the_margin(self):
        """|f(z)|^2 with coefficients 10^60 on e^(50 z) would pass the float range."""
        plan = SamplingPlan(grid_points=21, random_points=100)
        margins = []
        for c in (10**60, 1):
            scene, f = scene_and_curve(
                f"real H: x1 - x2 = 0; x1 - x3 = 0\n"
                f"curve f: ({c}*exp(25*z), -{c}*exp(25*z), {c}*exp(50*z))\n"
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                margin, _ = Sampler(plan).subspace(scene.reals["H"], f)
            margins.append(margin)
        assert 0 < margins[0] == pytest.approx(margins[1], rel=1e-9)

    def test_margin_where_every_component_underflows(self):
        scene, f = scene_and_curve(far_dim4_scene(100))
        (margin,) = _margins_for_subspace(scene.reals["H"], f, np.array([-10 + 0j]))
        assert 0 < margin < math.inf

    def test_violation_sample_reproduces_the_hit(self):
        """At the sample, the relative margin from cmath lies below the tolerance."""
        scene, f = scene_and_curve(far_dim4_scene(-100))
        plan = SamplingPlan()
        r = _sampled_result("H", plan, *Sampler(plan).subspace(scene.reals["H"], f))
        assert (r.method, r.verdict) == ("sampled", VIOLATED)
        w = -100 * complex(*r.violation_sample)
        # f / e^(Re w): (e^(i Im w), -e^(i Im w), e^(w + i Im w))
        g = (cmath.exp(1j * w.imag), -cmath.exp(1j * w.imag), cmath.exp(w + 1j * w.imag))
        size = math.sqrt(sum(abs(v) ** 2 for v in g))
        # the forms are Re(z1 - z2) and Re(z1 - z3)
        assert max(abs((g[0] - g[j]).real) / size for j in (1, 2)) <= 1e-9


def _reference_poly_values(coeffs, z):
    out = np.zeros_like(z)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _reference_sum_values(terms, z):
    out = np.zeros_like(z)
    for coeff, exponent in terms:
        out = out + coeff * np.exp(_reference_poly_values(exponent, z))
    return out


def reference_margins(subspace, curve, z):
    """The margins from the plain, unscaled sums: the sampler's evaluation before scaling."""
    comps = [
        _reference_sum_values(
            [(t.coeff.to_complex(), [c.to_complex() for c in t.exponent]) for t in comp.terms], z
        )
        for comp in curve.components
    ]
    scale = np.maximum(np.sqrt(sum(np.abs(c) ** 2 for c in comps)), 1e-300)
    worst = np.zeros(z.shape)
    for form in subspace.forms:
        lead = next(a for a in form if a)  # each form at unit pivot, as the sampler reads it
        row = [(c / lead).to_complex() for c in holomorphic_coefficients(form)]
        worst = np.maximum(worst, np.abs(sum(a * comp for a, comp in zip(row, comps)).real))
    margin = worst / scale
    return np.where(np.isfinite(margin), margin, np.inf)


@st.composite
def linear_curves(draw):
    """Terms (c, s, r) of c e^(s z + r) per component, integer slopes |s| <= 20 or <= 200."""
    bound = draw(st.sampled_from((20, 200)))
    term = st.tuples(small_gaussians, st.integers(-bound, bound), small_gaussians)
    components = [draw(st.lists(term, max_size=3)) for _ in range(3)]
    assume(any(c for comp in components for c, _, _ in comp))
    return bound, components


def linear_curve(components, shift=0):
    return ExpAffineCurve(
        tuple(exp_sum((c, (r, s + shift)) for c, s, r in comp) for comp in components)
    )


real_forms = st.lists(st.integers(-2, 2), min_size=6, max_size=6).filter(any)


@settings(max_examples=100, deadline=None)
@given(
    linear_curves(),
    st.lists(real_forms, min_size=1, max_size=2),
    st.integers(0, 2**32 - 1),
    st.integers(1, 2000),
    st.integers(-100, 100),
)
def test_scaled_margins_match_the_plain_sums(case, forms, seed, count, shift):
    """Where every |Re x| < 256 the margins are the plain sums' bit for bit; beyond it
    they stay finite and do not change when every exponent gains the same real lam z."""
    bound, components = case
    subspace = RealSubspace(tuple(forms))
    f = linear_curve(components)
    rng = np.random.default_rng(seed)
    z = 10.0 * np.sqrt(rng.random(count)) * np.exp(2j * math.pi * rng.random(count))
    margins = _margins_for_subspace(subspace, f, z)
    assert np.isfinite(margins).all()
    if bound == 20:
        assert np.array_equal(margins, reference_margins(subspace, f, z))
    # e^(lam t) is a positive factor at real points t
    t = z.real + 0j
    plain = _margins_for_subspace(subspace, f, t)
    shifted = _margins_for_subspace(subspace, linear_curve(components, shift), t)
    assert np.isfinite(shifted).all()
    assert np.allclose(plain, shifted, rtol=0, atol=1e-9)


class TestPlanLimits:
    def test_the_largest_plan_is_accepted(self):
        plan = SamplingPlan(grid_points=MAX_GRID_POINTS, random_points=MAX_RANDOM_POINTS)
        assert (plan.grid_points, plan.random_points) == (1001, 1_000_000)

    @pytest.mark.parametrize("counts", [{"grid_points": 1002}, {"random_points": 1_000_001}])
    def test_a_larger_plan_is_a_value_error(self, counts):
        with pytest.raises(ValueError, match="at most 1001 grid points per axis and 1000000 random"):
            SamplingPlan(**counts)


class TestDeterminism:
    def test_reports_are_byte_identical(self):
        scene, f = scene_and_curve(SAMPLED_DIM4_SCENE)
        a = verify(f, scene, SamplingPlan()).to_json()
        b = verify(f, scene, SamplingPlan()).to_json()
        assert a == b

    def test_seed_changes_random_stream_not_verdict(self):
        scene, f = scene_and_curve(SAMPLED_DIM4_SCENE)
        a = verify(f, scene, SamplingPlan(seed=0))
        b = verify(f, scene, SamplingPlan(seed=1))
        assert a.results[-1].method == b.results[-1].method == "sampled"
        assert a.results[-1].verdict == b.results[-1].verdict == VIOLATED
        # the worst margin sits at the grid node z = 0 (seed-free), but the
        # random portion of the stream really does move
        pts_a = Sampler(SamplingPlan(seed=0, grid_points=2)).base
        pts_b = Sampler(SamplingPlan(seed=1, grid_points=2)).base
        assert not np.array_equal(pts_a, pts_b)

    def test_aggregation_is_partition_independent(self):
        """Min margins agree no matter how the samples are chunked."""
        scene, f = scene_and_curve(DIM4_SUBSPACE_SCENE)
        subspace = scene.reals["H"]
        samples = Sampler(SamplingPlan()).base
        whole = _margins_for_subspace(subspace, f, samples).min()
        pieces = [
            _margins_for_subspace(subspace, f, chunk).min()
            for chunk in np.array_split(samples, 7)
        ]
        assert min(pieces) == whole


class TestReportShape:
    def test_json_fields(self):
        scene, f = scene_and_curve(DIM4_SUBSPACE_SCENE)
        report = verify(f, scene, curve_name="f")
        data = json.loads(report.to_json())
        assert set(data) == {
            "curve", "plan", "results", "projection_constant", "projection_values",
        }
        for entry in data["results"]:
            assert set(entry) == {
                "set", "method", "verdict", "min_margin", "violation_sample",
            }
        assert data["curve"] == "f"
        assert data["projection_constant"] is False
        assert len(data["projection_values"]) == 2

    def test_projection_values_distinct_when_nonconstant(self):
        scene, f = scene_and_curve(DIM4_SUBSPACE_SCENE)
        report = verify(f, scene)
        first, second = report.projection_values
        assert first == ((1.0, 0.0), (-1.0, 0.0), (1.0, 0.0))
        assert second[2][0] == pytest.approx(math.e)

    def test_constant_projection_single_value(self):
        scene, f = scene_and_curve(
            "hyperplane H: z1 = 0\ncurve f: (exp(z), 2*exp(z), 3*exp(z))"
        )
        report = verify(f, scene)
        assert report.projection_constant
        assert report.projection_values == (((1.0, 0.0), (2.0, 0.0), (3.0, 0.0)),)

    def test_probe_where_every_component_vanishes_is_skipped(self):
        scene, f = scene_and_curve("curve f: (exp(z) - 1, exp(z) - 1, 0)")
        assert projective_value(f, 0) is None
        report = verify(f, scene)
        assert report.projection_constant
        assert report.projection_values == (((1.0, 0.0), (1.0, 0.0), (0.0, 0.0)),)

    def test_curve_description_defaults_to_canonical_text(self):
        scene, f = scene_and_curve("hyperplane H: z1 = 0\ncurve f: (1, -1, exp(z))")
        assert verify(f, scene).curve == "(1, -1, exp(z))"


class TestProjectiveValue:
    def test_normalisation(self):
        scene, f = scene_and_curve("curve f: (exp(z), -exp(z), exp(2*z))")
        assert projective_value(f, 0) == ((1.0, 0.0), (-1.0, 0.0), (1.0, 0.0))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(disk_radius=-1)
        with pytest.raises(ValueError):
            SamplingPlan(tolerance=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SamplingPlan(disk_radius=bad)
            with pytest.raises(ValueError, match="finite"):
                SamplingPlan(tolerance=bad)


def far_exponent_on_a_small_grid():
    """e^(z^64) overflows at a grid point of the disk of radius 1e5: sampling cannot evaluate the curve."""
    scene, f = scene_and_curve("curve f: (exp(z^64), exp(i*z), 1)\nreal T: x1 = 0; x2 = 0\n")
    verify(f, scene, SamplingPlan(disk_radius=1e5, grid_points=3, random_points=0))


# each argument check, with the message it raises
INVALID = [
    (far_exponent_on_a_small_grid, "an exponent is beyond the float range at a sample point"),
]


@pytest.mark.parametrize("call, message", INVALID, ids=[m for _, m in INVALID])
def test_invalid_input_names_its_fault(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
