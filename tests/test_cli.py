"""End-to-end CLI tests: exit codes, JSON schema, output modes, seeding."""

import json
import math
import time
from pathlib import Path

import pytest

from curveavoid.cli import main
from curveavoid.verifier import SamplingPlan

STANDARD4 = """
hyperplane H1: z1 = 0
hyperplane H2: z2 = 0
hyperplane H3: z3 = 0
hyperplane H4: z1 + z2 + z3 = 0
"""

DEGENERATE = STANDARD4 + "real S: x1 - x2 = 0\n"
OBSTRUCTED = STANDARD4 + "real S: x1 + x2 = 0\n"
DIM4_SUBSPACE = STANDARD4 + "real H: x1 - x2 = 0; x1 - x3 = 0\n"
OPTIMALITY = """
hyperplane H1: z1 = 0
hyperplane H2: z2 = 0
hyperplane H3: z3 = 0
real S: x1 + x2 + x3 = 0
"""
# H1, H2 and H3 meet in one point of CP^2
CONCURRENT = """
hyperplane H1: z1 = 0
hyperplane H2: z2 = 0
hyperplane H3: z1 + z2 = 0
hyperplane H4: z3 = 0
"""
# H2 is H1 scaled by 2
DUPLICATE = """
hyperplane H1: z1 = 0
hyperplane H2: 2*z1 = 0
hyperplane H3: z3 = 0
hyperplane H4: z1 + z2 + z3 = 0
real S: x1 + 2*x2 + 3*x3 = 0
"""
VIOLATING = "hyperplane D: z1 + z2 = 0\ncurve f: (exp(z), 1, 1)\n"
SEVENTEEN_TERMS = " + ".join(f"exp({k}*z)" for k in range(17))
SCENES = Path(__file__).resolve().parent.parent / "scenes"


@pytest.fixture
def scene(tmp_path):
    def write(text):
        path = tmp_path / "input.scene"
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestExitCodes:
    def test_success_is_zero(self, scene, capsys):
        code, _ = run_json(capsys, "gp-check", scene(STANDARD4))
        assert code == 0

    def test_violation_is_one(self, scene, capsys):
        code, data = run_json(capsys, "verify", "--curve", "f", scene(VIOLATING))
        assert code == 1
        assert data["results"][0]["verdict"] == "violated"

    def test_failed_general_position_is_one(self, scene, capsys):
        code, data = run_json(capsys, "gp-check", scene(DIM4_SUBSPACE))
        assert code == 1
        assert data["general_position"] is False
        assert data["failing_triple"] is not None

    def test_missing_file_is_two(self, capsys):
        code, out, err = run(capsys, "gp-check", "/nonexistent/path.scene")
        assert code == 2
        assert err.startswith("error:")

    def test_scene_that_is_not_utf8_is_two(self, tmp_path, capsys):
        path = tmp_path / "bad.scene"
        path.write_bytes(b"hyperplane H1: z1 = 0\n\xff\n")
        code, out, err = run(capsys, "gp-check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_parse_error_is_two(self, scene, capsys):
        code, out, err = run(capsys, "gp-check", scene("hyperplane H z1 = 0\n"))
        assert code == 2
        assert "line 1" in err

    def test_unknown_curve_is_two(self, scene, capsys):
        code, out, err = run(capsys, "verify", "--curve", "g", scene(VIOLATING))
        assert code == 2
        assert "g" in err

    def test_obstructed_construction_is_three(self, scene, capsys):
        code, out, err = run(capsys, "classify", scene(OBSTRUCTED))
        assert code == 3
        assert "construction failed" in err


class TestGpCheck:
    def test_transverse_family(self, scene, capsys):
        code, data = run_json(capsys, "gp-check", scene(STANDARD4))
        assert data == {
            "failing_triple": None,
            "general_position": True,
            "members": ["H1", "H2", "H3", "H4"],
        }

    def test_dim4_member_breaks_general_position(self, scene, capsys):
        code, data = run_json(capsys, "gp-check", scene(DIM4_SUBSPACE))
        assert "H" in data["failing_triple"]

    def test_human_mode(self, scene, capsys):
        code, out, err = run(capsys, "gp-check", "--human", scene(STANDARD4))
        assert code == 0
        assert "general position: yes" in out

    @pytest.mark.parametrize(
        "text, members, failing",
        [
            (DIM4_SUBSPACE, ["H1", "H2", "H3", "H4", "H"], ["H1", "H2", "H"]),
            (
                "".join(
                    f"hyperplane {n}: {form} = 0\n"
                    for n, form in zip("ABCD", ("z1", "z2", "z3", "z1 + z2"))
                ),
                ["A", "B", "C", "D"],
                ["A", "B", "D"],
            ),
        ],
    )
    def test_first_failing_triple_in_lexicographic_order(
        self, scene, capsys, text, members, failing
    ):
        path = scene(text)
        code, data = run_json(capsys, "gp-check", path)
        assert code == 1
        assert data == {"failing_triple": failing, "general_position": False, "members": members}
        code, out, err = run(capsys, "gp-check", "--human", path)
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            f"members: {', '.join(members)}",
            f"general position: no (triple {', '.join(failing)})",
        ]


class TestDiagonals:
    def test_three_diagonals_of_four_planes(self, scene, capsys):
        code, data = run_json(capsys, "diagonals", scene(STANDARD4))
        assert code == 0
        assert data["count"] == 3
        lines = {entry["line"] for entry in data["diagonals"]}
        assert lines == {"z1 + z2", "z1 + z3", "z2 + z3"}
        first = data["diagonals"][0]
        assert first["partition"] == [[1, 2], [3, 4]]
        assert first["p"] == ["0", "0", "1"]
        assert first["q"] == ["1", "-1", "0"]


class TestClassify:
    def test_three_hyperplanes_are_two(self, scene, capsys):
        code, out, err = run(capsys, "classify", scene(OPTIMALITY))
        assert (code, out) == (2, "")
        assert err == "error: classification takes exactly 4 complex hyperplanes\n"

    def test_witness_exists_payload(self, scene, capsys):
        code, data = run_json(capsys, "classify", scene(DEGENERATE))
        assert code == 0
        assert data["verdict"] == "WitnessExists"
        assert data["witness"] == "(1, -1, exp(z))"
        assert {"pair": [1, 2], "rank": 4} in data["triple_ranks"]
        report = data["report"]
        assert all(r["verdict"] == "avoided" for r in report["results"])
        assert report["projection_constant"] is False

    def test_all_curves_constant(self, scene, capsys):
        code, data = run_json(
            capsys, "classify", scene(STANDARD4 + "real S: x1 + 2*x2 + 3*x3 = 0\n")
        )
        assert code == 0
        assert data["verdict"] == "AllCurvesConstant"
        assert data["witness"] is None
        assert all(entry["rank"] == 6 for entry in data["triple_ranks"])

    @pytest.mark.parametrize("form", ["x1 + 2*x2 + 3*x3", "x1 + x2"])
    def test_hyperplanes_not_in_general_position_is_two(self, scene, capsys, form):
        code, out, err = run(capsys, "classify", scene(CONCURRENT + f"real S: {form} = 0\n"))
        assert (code, out) == (2, "")
        assert err == "error: hyperplanes 1, 2, 3 are not in general position\n"

    def test_repeated_hyperplane_is_not_in_general_position(self, scene, capsys):
        code, out, err = run(capsys, "classify", scene(DUPLICATE))
        assert (code, out) == (2, "")
        assert err == "error: hyperplanes 1, 2, 3 are not in general position\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--radius", "nan"),
            ("--radius", "-1"),
            ("--tolerance", "inf"),
            ("--grid", "0"),
            ("--grid", "2", "--random", "0"),
        ],
    )
    def test_invalid_plan_is_two_without_a_witness(self, scene, capsys, flags):
        path = scene(STANDARD4 + "real S: x1 + 2*x2 + 3*x3 = 0\n")
        code, out, err = run(capsys, "classify", *flags, path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestWitness:
    def test_constant_projection(self, scene, capsys):
        code, data = run_json(
            capsys, "witness", "--construction", "constant-projection",
            scene(STANDARD4 + "hyperplane H5: z1 + 2*z2 + 3*z3 = 0\n"),
        )
        assert code == 0
        assert data["curve"] == "(exp(z), exp(z), exp(z))"
        assert all(r["method"] == "exact" for r in data["report"]["results"])
        assert data["report"]["projection_constant"] is True

    def test_dim4_subspace(self, scene, capsys):
        code, data = run_json(capsys, "witness", "--construction", "dim4-subspace", scene(STANDARD4))
        assert code == 0
        assert data["curve"] == "(exp(z), -exp(z), exp(2*z))"
        assert data["subspace"] == ["x1 - x3", "x2 - x3"]
        subspace_result = data["report"]["results"][-1]
        assert subspace_result["set"] == "H"
        assert subspace_result["verdict"] == "avoided"
        assert subspace_result["min_margin"] > 1e-6

    def test_degenerate_pair(self, scene, capsys):
        code, data = run_json(capsys, "witness", "--construction", "degenerate-pair", scene(DEGENERATE))
        assert code == 0
        assert data["pair"] == [1, 2]
        assert data["curve"] == "(1, -1, exp(z))"

    def test_degenerate_pair_needs_a_degenerate_triple(self, scene, capsys):
        code, out, err = run(
            capsys, "witness", "--construction", "degenerate-pair",
            scene(STANDARD4 + "real S: x1 + 2*x2 + 3*x3 = 0\n"),
        )
        assert code == 2
        assert "nothing to construct" in err

    def test_optimality(self, scene, capsys):
        code, data = run_json(capsys, "witness", "--construction", "three-hyperplanes", scene(OPTIMALITY))
        assert code == 0
        assert data["curve"] == "(1, exp(z), -exp(z))"
        assert all(r["method"] == "exact" for r in data["report"]["results"])


class TestVerify:
    def test_report_schema(self, scene, capsys):
        code, data = run_json(
            capsys, "verify", "--curve", "f",
            scene(DIM4_SUBSPACE + "curve f: (exp(z), -exp(z), exp(2*z))\n"),
        )
        assert code == 0
        assert set(data) == {
            "curve", "plan", "results", "projection_constant", "projection_values",
        }
        assert data["curve"] == "f"
        assert [r["set"] for r in data["results"]] == ["H1", "H2", "H3", "H4", "H"]

    def test_plan_flags_are_recorded(self, scene, capsys):
        code, data = run_json(
            capsys, "verify", "--curve", "f", "--radius", "4", "--grid", "11",
            "--random", "50", "--seed", "9", "--tolerance", "1e-6",
            scene(DIM4_SUBSPACE + "curve f: (exp(z), -exp(z), exp(2*z))\n"),
        )
        assert data["plan"] == {
            "disk_radius": 4.0,
            "grid_points": 11,
            "random_points": 50,
            "seed": 9,
            "tolerance": 1e-6,
        }

    @pytest.mark.parametrize("flag", ["--radius", "--tolerance"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_plan_is_two(self, scene, capsys, flag, value):
        code, out, err = run(capsys, "verify", "--curve", "f", flag, value, scene(VIOLATING))
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("grid", ["1", "2"])
    def test_plan_with_no_sample_in_the_disk_is_two(self, capsys, grid):
        code, out, err = run(
            capsys, "verify", "--curve", "f", "--grid", grid, "--random", "0",
            str(SCENES / "verify_demo.scene"),
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: a grid of fewer than 3 points per axis puts no sample in the disk;"
            " random points are needed\n"
        )

    @pytest.mark.parametrize("flag, value", [("--grid", "1002"), ("--random", "1000001")])
    def test_oversized_plan_is_two(self, capsys, flag, value):
        code, out, err = run(
            capsys, "verify", "--curve", "f", flag, value, str(SCENES / "verify_demo.scene")
        )
        assert (code, out) == (2, "")
        assert err == "error: at most 1001 grid points per axis and 1000000 random points\n"

    def test_three_point_grid_alone_samples_the_disk(self, capsys):
        code, data = run_json(
            capsys, "verify", "--curve", "f", "--grid", "3", "--random", "0",
            str(SCENES / "verify_demo.scene"),
        )
        assert code == 0
        assert data["results"][-1]["method"] == "sampled"

    @pytest.mark.parametrize(
        "line",
        [
            "curve f: (exp((z+1)^3000), 1, 1)",
            "curve f: (exp(z^100000000), 1, 1)",
            f"curve f: (({SEVENTEEN_TERMS}) * ({SEVENTEEN_TERMS}), 1, 1)",
            "curve f: (" + 400 * "(" + "exp(z)" + 400 * ")" + ", 1, 1)",
            "curve f: (" + 400 * "-" + "exp(z), 1, 1)",
            "curve f: (" + 5000 * "9" + "*exp(z), 1, 1)",
            "curve f: (" + 4000 * "9" + "*" + 4000 * "7" + "*exp(z), 1, 1)",
        ],
        ids=[
            "power-degree", "huge-exponent", "product-terms", "parentheses", "signs",
            "long-literal", "long-product",
        ],
    )
    def test_oversized_scene_is_two_and_fast(self, scene, capsys, line):
        path = scene(line + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--curve", "f", path)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "line 1, column" in err

    def test_far_exponent_gives_finite_projection_values(self, scene, capsys):
        code, data = run_json(
            capsys, "verify", "--curve", "f",
            scene("hyperplane H1: z2 = 0\ncurve f: (exp(z+1000), 1, 1)\n"),
        )
        assert code == 0
        assert data["results"][0]["verdict"] == "avoided"
        coords = [x for value in data["projection_values"] for c in value for x in c]
        assert coords and all(math.isfinite(x) for x in coords)

    def test_human_mode_lists_verdicts(self, scene, capsys):
        code, out, err = run(
            capsys, "verify", "--curve", "f", "--human", scene(VIOLATING)
        )
        assert code == 1
        assert "D: violated" in out


class TestSeedPrecedence:
    SCENE = DIM4_SUBSPACE + "curve f: (exp(z), -exp(z), exp(2*z))\n"

    def test_default_flags_are_the_default_plan(self, scene, capsys, monkeypatch):
        monkeypatch.delenv("AVOIDANCE_SEED", raising=False)
        _, data = run_json(capsys, "verify", "--curve", "f", scene(self.SCENE))
        assert data["plan"] == SamplingPlan().to_dict()

    def test_default_seed_is_zero(self, scene, capsys, monkeypatch):
        monkeypatch.delenv("AVOIDANCE_SEED", raising=False)
        _, data = run_json(capsys, "verify", "--curve", "f", scene(self.SCENE))
        assert data["plan"]["seed"] == 0

    def test_environment_overrides_default(self, scene, capsys, monkeypatch):
        monkeypatch.setenv("AVOIDANCE_SEED", "7")
        _, data = run_json(capsys, "verify", "--curve", "f", scene(self.SCENE))
        assert data["plan"]["seed"] == 7

    def test_flag_overrides_environment(self, scene, capsys, monkeypatch):
        monkeypatch.setenv("AVOIDANCE_SEED", "7")
        _, data = run_json(
            capsys, "verify", "--curve", "f", "--seed", "5", scene(self.SCENE)
        )
        assert data["plan"]["seed"] == 5


class TestProject:
    def test_projective_point(self, scene, capsys):
        code, data = run_json(
            capsys, "project", "--curve", "f", "--at", "0",
            scene("curve f: (exp(z), -exp(z), exp(2*z))\n"),
        )
        assert code == 0
        assert data == {
            "at": [0.0, 0.0],
            "curve": "f",
            "value": [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]],
        }

    def test_complex_evaluation_point(self, scene, capsys):
        code, data = run_json(
            capsys, "project", "--curve", "f", "--at", "1+i",
            scene("curve f: (exp(z), -exp(z), exp(2*z))\n"),
        )
        assert code == 0
        assert data["at"] == [1.0, 1.0]

    def test_far_point_stays_finite(self, capsys, monkeypatch):
        """e^2000 overflows a float; the projective point [0 : 0 : 1] does not."""
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        code, data = run_json(
            capsys, "project", "--curve", "f", "--at", "1000", "scenes/verify_demo.scene"
        )
        assert code == 0
        assert data["value"] == [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    def test_exponent_beyond_the_float_range_is_two(self, scene, capsys):
        code, out, err = run(
            capsys, "project", "--curve", "f", "--at", "1" + "0" * 60,
            scene("curve f: (exp(z^6), 1, 1)\n"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: an exponent is beyond the float range")

    def test_bad_point_is_two(self, scene, capsys):
        code, out, err = run(
            capsys, "project", "--curve", "f", "--at", "owl",
            scene("curve f: (exp(z), 1, 1)\n"),
        )
        assert code == 2
