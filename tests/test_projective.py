"""Tests for projective points, lines, and hyperplane classes."""

import pytest

from curveavoid.exact_linalg import GQ_ONE, GQ_ZERO, gq
from curveavoid.projective import (
    ComplexHyperplane,
    ProjLine,
    ProjPoint,
    dependent_subset,
    incident,
    line_through,
    require_general_position,
)


class TestCanonicalisation:
    def test_point_scaling(self):
        assert ProjPoint((2, 4, 6)) == ProjPoint((1, 2, 3))
        assert ProjPoint((gq(0, 2), gq(0, 4), GQ_ZERO)) == ProjPoint((1, 2, 0))

    def test_first_nonzero_becomes_one(self):
        p = ProjPoint((0, gq(0, 3), gq(3)))
        assert p.coords[1] == GQ_ONE
        assert p.coords[2] == gq(0, -1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint((0, 0, 0))

    def test_too_short(self):
        with pytest.raises(ValueError):
            ProjLine((1,))

    def test_hyperplane_equality_is_projective(self):
        a = ComplexHyperplane((1, 2, 3))
        b = ComplexHyperplane((gq(0, 1), gq(0, 2), gq(0, 3)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.coefficients != b.coefficients  # raw coefficients preserved

    def test_hyperplane_inequality(self):
        assert ComplexHyperplane((1, 2, 3)) != ComplexHyperplane((1, 2, 4))

    def test_a_line_is_a_complex_hyperplane(self):
        assert ProjLine is ComplexHyperplane
        line = line_through(ProjPoint((gq(1, 2), 3, gq(0, -1))), ProjPoint((5, gq(2, 2), 7)))
        scaled = ProjLine(tuple(gq(2, -3) * c for c in line.coefficients))
        assert line == scaled
        assert hash(line) == hash(scaled)
        assert line.coefficients == line.canonical()


class TestIncidence:
    def test_line_through_standard_points(self):
        line = line_through(ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0)))
        assert line == ProjLine((0, 0, 1))

    def test_line_through_equal_points(self):
        with pytest.raises(ValueError):
            line_through(ProjPoint((1, 1, 1)), ProjPoint((2, 2, 2)))

    def test_incident(self):
        line = ProjLine((1, 1, 1))
        assert incident(ProjPoint((1, -1, 0)), line)
        assert not incident(ProjPoint((1, 1, 1)), line)

    def test_incidence_of_join(self):
        p = ProjPoint((gq(1, 2), 3, gq(0, -1)))
        q = ProjPoint((5, gq(2, 2), 7))
        line = line_through(p, q)
        assert incident(p, line)
        assert incident(q, line)


class TestGeneralPosition:
    """`dependent_subset` on complex hyperplanes: each member is one coefficient row."""

    def test_standard_triple(self):
        members = [[(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)]]
        assert dependent_subset(members, 3) is None

    def test_concurrent_triple_fails(self):
        # all three pass through [0:0:1]
        members = [[(1, 0, 0)], [(0, 1, 0)], [(1, 1, 0)]]
        assert dependent_subset(members, 3) == (0, 1, 2)

    def test_four_lines(self):
        members = [[(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)], [(1, 1, 1)]]
        assert dependent_subset(members, 3) is None

    def test_needs_three(self):
        # fewer members than the subset size have no dependent subset
        assert dependent_subset([[(1, 0, 0)], [(0, 1, 0)]], 3) is None

    def test_first_dependent_subset_in_lexicographic_order(self):
        members = [[v] for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]]
        assert dependent_subset(members, 3) == (0, 1, 3)
        assert dependent_subset(members[2:], 3) is None
        assert dependent_subset([[(1, 0)], [(1, 1)], [(2, 2)]], 2) == (1, 2)

    def test_members_of_several_rows(self):
        """Real codimension-2 subspaces: a triple is dependent when its six forms are."""
        e = [tuple(int(j == k) for j in range(6)) for k in range(6)]
        members = [[e[0], e[1]], [e[2], e[3]], [e[4], e[5]]]
        assert dependent_subset(members, 3) is None
        members[2] = [e[4], (1, 0, 1, 0, 0, 0)]
        assert dependent_subset(members, 3) == (0, 1, 2)
        assert dependent_subset(members, 2) is None

    def test_require_general_position_labels_from_one(self):
        hyperplanes = [ComplexHyperplane(v) for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]]
        with pytest.raises(ValueError, match="^hyperplanes 1, 2, 4 are not in general position$"):
            require_general_position(hyperplanes, 3)
        require_general_position(hyperplanes[:3], 3)
