"""Tests for the avoidance verifier: exact paths, sampling, and determinism."""

import json
import math

import numpy as np
import pytest

from curveavoid.scene import parse_scene
from curveavoid.verifier import (
    AVOIDED,
    VIOLATED,
    ZERO_SET_HIT,
    SamplingPlan,
    projective_value,
    verify,
)
from curveavoid.sampling import (
    _base_samples,
    _margins_for_subspace,
    _targeted_for_subspace,
)

DIM4_SUBSPACE_SCENE = """
hyperplane H1: z1 = 0
hyperplane H2: z2 = 0
hyperplane H3: z3 = 0
hyperplane H4: z1 + z2 + z3 = 0
real H: x1 - x2 = 0; x1 - x3 = 0
curve f: (exp(z), -exp(z), exp(2*z))
"""


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


class TestSampledPaths:
    def test_violation_near_i_pi(self):
        """1 + e^z vanishes at odd multiples of i pi; Newton polish finds it."""
        scene, f = scene_and_curve(
            "hyperplane D: z1 + z2 = 0\ncurve f: (exp(z), 1, 1)"
        )
        r = verify(f, scene).results[0]
        assert (r.method, r.verdict) == ("sampled", VIOLATED)
        assert r.min_margin < 1e-12
        x, y = r.violation_sample
        assert abs(x) < 1e-9
        assert min(abs(abs(y) - k * math.pi) for k in (1, 3)) < 1e-9

    def test_dim4_subspace_margin(self):
        scene, f = scene_and_curve(DIM4_SUBSPACE_SCENE)
        report = verify(f, scene)
        subspace_result = report.results[4]
        assert subspace_result.set == "H"
        assert (subspace_result.method, subspace_result.verdict) == ("sampled", AVOIDED)
        assert subspace_result.min_margin > 1e-6

    def test_margin_shrinks_with_radius(self):
        """The observed margin scale follows e^x on the disk boundary."""
        scene, f = scene_and_curve(DIM4_SUBSPACE_SCENE)
        small = verify(f, scene, SamplingPlan(disk_radius=3.0)).results[4]
        large = verify(f, scene, SamplingPlan(disk_radius=10.0)).results[4]
        assert small.min_margin > large.min_margin > 0

    def test_real_violation_found_by_bisection(self):
        """A curve that crosses x1 = 0 transversally is caught."""
        scene, f = scene_and_curve("real S: x1 = 0\ncurve f: (1 + exp(z), 1, 1)")
        r = verify(f, scene).results[0]
        assert r.verdict == VIOLATED
        x, y = r.violation_sample
        # Re(1 + e^z) = 0 on a curve through x = 0, y = pi
        assert abs(1 + math.exp(x) * math.cos(y)) < 1e-9


class TestTargeting:
    def test_targeted_points_sit_on_individual_zero_sets(self):
        scene, f = scene_and_curve(DIM4_SUBSPACE_SCENE)
        subspace = scene.reals["H"]
        plan = SamplingPlan()
        points = _targeted_for_subspace(subspace, f, plan)
        assert len(points) > 100
        margins = _margins_for_subspace(subspace, f, points)
        # each point nearly kills one form, never both
        assert margins.min() > 0

    def test_base_samples_respect_the_disk(self):
        plan = SamplingPlan(disk_radius=5.0, grid_points=21, random_points=100)
        samples = _base_samples(plan)
        assert len(samples) > 100
        assert np.abs(samples).max() <= 5.0 + 1e-12


class TestDeterminism:
    def test_reports_are_byte_identical(self):
        scene, f = scene_and_curve(DIM4_SUBSPACE_SCENE)
        a = verify(f, scene, SamplingPlan()).to_json()
        b = verify(f, scene, SamplingPlan()).to_json()
        assert a == b

    def test_seed_changes_random_stream_not_verdict(self):
        scene, f = scene_and_curve(DIM4_SUBSPACE_SCENE)
        a = verify(f, scene, SamplingPlan(seed=0))
        b = verify(f, scene, SamplingPlan(seed=1))
        assert a.results[4].verdict == b.results[4].verdict == AVOIDED
        # the worst margin sits at a targeted (seed-free) point, but the
        # random portion of the stream really does move
        pts_a = _base_samples(SamplingPlan(seed=0, grid_points=2))
        pts_b = _base_samples(SamplingPlan(seed=1, grid_points=2))
        assert not np.array_equal(pts_a, pts_b)

    def test_aggregation_is_partition_independent(self):
        """Min margins agree no matter how the samples are chunked."""
        scene, f = scene_and_curve(DIM4_SUBSPACE_SCENE)
        subspace = scene.reals["H"]
        samples = _base_samples(SamplingPlan())
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
