"""Tests for balanced-partition enumeration and diagonal lines."""

from math import comb

import pytest

from curveavoid.diagonals import (
    Partition,
    enumerate_diagonals,
    enumerate_partitions,
    intersection_point,
)
from curveavoid.exact_linalg import GQ_ZERO, gq
from curveavoid.projective import ComplexHyperplane, ProjLine, ProjPoint, incident

from test_curves import CP3

STANDARD = [
    ComplexHyperplane((1, 0, 0)),
    ComplexHyperplane((0, 1, 0)),
    ComplexHyperplane((0, 0, 1)),
    ComplexHyperplane((1, 1, 1)),
]


class TestPartition:
    def test_blocks_are_sorted(self):
        p = Partition((4, 1), (3, 2))
        assert p.left == (1, 4)
        assert p.right == (2, 3)

    def test_block_with_one_comes_first(self):
        p = Partition((3, 4), (1, 2))
        assert p.left == (1, 2)
        assert p.right == (3, 4)

    def test_must_partition_everything(self):
        with pytest.raises(ValueError):
            Partition((1, 2), (2, 3))
        with pytest.raises(ValueError):
            Partition((1, 2), (3, 5))

    def test_blocks_must_balance(self):
        with pytest.raises(ValueError):
            Partition((1,), (2, 3, 4))

    def test_count(self):
        for n in (2, 3, 4):
            assert len(enumerate_partitions(n)) == comb(2 * n, n) // 2

    def test_enumeration_is_canonical_and_unique(self):
        parts = enumerate_partitions(3)
        assert len(set(parts)) == len(parts)
        assert all(p.left[0] == 1 for p in parts)


class TestIntersectionPoint:
    def test_two_planes(self):
        p = intersection_point(STANDARD[:2])
        assert p == ProjPoint((0, 0, 1))

    def test_dependent_planes_rejected(self):
        with pytest.raises(ValueError):
            intersection_point([STANDARD[0], ComplexHyperplane((2, 0, 0))])


class TestDiagonalsOfFour:
    def test_three_lines_with_expected_forms(self):
        """The three diagonals are z1+z2, z1+z3, and z2+z3."""
        diagonals = enumerate_diagonals(STANDARD)
        assert len(diagonals) == 3
        by_partition = {
            (d.partition.left, d.partition.right): d.form for d in diagonals
        }
        assert by_partition[(1, 2), (3, 4)] == ProjLine((1, 1, 0))
        assert by_partition[(1, 3), (2, 4)] == ProjLine((1, 0, 1))
        assert by_partition[(1, 4), (2, 3)] == ProjLine((0, 1, 1))

    def test_lines_pass_through_their_points(self):
        for d in enumerate_diagonals(STANDARD):
            assert incident(d.p, d.form)
            assert incident(d.q, d.form)

    def test_frozen_intersection_points(self):
        d12 = enumerate_diagonals(STANDARD)[0]
        assert d12.p == ProjPoint((0, 0, 1))
        assert d12.q == ProjPoint((1, -1, 0))

    def test_relabelling_gives_same_lines(self):
        """Permuting the hyperplanes permutes labels but not the line set."""
        shuffled = [STANDARD[2], STANDARD[0], STANDARD[3], STANDARD[1]]
        original = {d.form for d in enumerate_diagonals(STANDARD)}
        relabelled = {d.form for d in enumerate_diagonals(shuffled)}
        assert original == relabelled

    def test_general_position_required(self):
        bad = STANDARD[:3] + [ComplexHyperplane((1, 1, 0))]
        with pytest.raises(ValueError):
            enumerate_diagonals(bad)

    def test_general_position_error_names_the_first_dependent_triple(self):
        bad = STANDARD[:3] + [ComplexHyperplane((1, 1, 0))]
        with pytest.raises(ValueError, match="^hyperplanes 1, 2, 4 are not in general position$"):
            enumerate_diagonals(bad)

    def test_even_count_required(self):
        with pytest.raises(ValueError):
            enumerate_diagonals(STANDARD[:3])


class TestDiagonalsOfSix:
    HYPERPLANES = [
        ComplexHyperplane((1, 0, 0, 0)),
        ComplexHyperplane((0, 1, 0, 0)),
        ComplexHyperplane((0, 0, 1, 0)),
        ComplexHyperplane((0, 0, 0, 1)),
        ComplexHyperplane((1, 1, 1, 1)),
        ComplexHyperplane((1, 2, 3, 4)),
    ]

    def test_ten_diagonals(self):
        diagonals = enumerate_diagonals(self.HYPERPLANES)
        assert len(diagonals) == 10
        assert all(d.form is None for d in diagonals)

    def test_points_lie_in_their_defining_hyperplanes(self):
        for d in enumerate_diagonals(self.HYPERPLANES):
            for point, block in ((d.p, d.partition.left), (d.q, d.partition.right)):
                for index in block:
                    value = sum(
                        (
                            a * c
                            for a, c in zip(
                                self.HYPERPLANES[index - 1].coefficients, point.coords
                            )
                        ),
                        GQ_ZERO,
                    )
                    assert value == GQ_ZERO

    def test_points_of_one_diagonal_differ(self):
        for d in enumerate_diagonals(self.HYPERPLANES):
            assert d.p != d.q


# each argument check, with the message it raises
INVALID = [
    (lambda: enumerate_partitions(0), "n must be positive"),
    (lambda: intersection_point([]), "no hyperplanes given"),
    (lambda: intersection_point(STANDARD[:1]), "need exactly 2 hyperplanes in CP^2"),
    (lambda: enumerate_diagonals([STANDARD[0], CP3[0]]), "hyperplanes live in the same CP^n"),
    (lambda: enumerate_diagonals(CP3), "4 hyperplanes must live in CP^2"),
]


@pytest.mark.parametrize("call, message", INVALID, ids=[m for _, m in INVALID])
def test_invalid_input_names_its_fault(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
