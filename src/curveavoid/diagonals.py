"""Diagonal lines of an arrangement of 2n hyperplanes in CP^n.

A balanced partition of the index set {1..2n} into halves I | J picks two
intersection points p = cap_{i in I} H_i and q = cap_{j in J} H_j; the
diagonal is the line through p and q.  For 4 lines in CP^2 this yields the
three classical diagonals of the complete quadrilateral.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence

from .exact_linalg import kernel_complex
from .projective import (
    ComplexHyperplane,
    ProjPoint,
    line_through,
    require_general_position,
)


@dataclass(frozen=True, slots=True)
class Partition:
    """A balanced two-block partition of {1..2n}, canonically oriented.

    The block containing the smallest index is stored first.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        left = tuple(sorted(self.left))
        right = tuple(sorted(self.right))
        members = left + right
        n2 = len(members)
        if len(left) != len(right):
            raise ValueError("blocks must have equal size")
        if sorted(members) != list(range(1, n2 + 1)):
            raise ValueError(f"blocks must partition 1..{n2}")
        if right and (not left or right[0] < left[0]):
            left, right = right, left
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


@dataclass(frozen=True, slots=True)
class DiagonalLine:
    """The line through the two intersection points of a balanced partition.

    `form` is the line's coefficient vector, available in CP^2 only; in
    CP^1 the two points span the whole space and there is no cutting form.
    """

    partition: Partition
    p: ProjPoint
    q: ProjPoint
    form: ComplexHyperplane | None

    def __post_init__(self) -> None:
        if self.p == self.q:
            raise ValueError("a diagonal needs two distinct points")


def enumerate_partitions(n: int) -> list[Partition]:
    """All balanced partitions of {1..2n}, in lexicographic order of the left block."""
    if n < 1:
        raise ValueError("n must be positive")
    out = [
        Partition((1,) + rest, tuple(sorted(set(range(2, 2 * n + 1)) - set(rest))))
        for rest in combinations(range(2, 2 * n + 1), n - 1)
    ]
    assert len(out) == comb(2 * n, n) // 2
    return out


def intersection_point(hyperplanes: Sequence[ComplexHyperplane]) -> ProjPoint:
    """The single point where n hyperplanes of CP^n meet."""
    if not hyperplanes:
        raise ValueError("no hyperplanes given")
    width = len(hyperplanes[0].coefficients)
    if len(hyperplanes) != width - 1:
        raise ValueError(f"need exactly {width - 1} hyperplanes in CP^{width - 1}")
    basis = kernel_complex([h.coefficients for h in hyperplanes])
    if len(basis) != 1:
        raise ValueError("hyperplanes are dependent; intersection is not a point")
    return ProjPoint(basis[0])


def enumerate_diagonals(hyperplanes: Sequence[ComplexHyperplane]) -> list[DiagonalLine]:
    """All diagonal lines of 2n hyperplanes of CP^n in general position.

    General position means every n+1 of the coefficient vectors are
    independent; a violation is reported with the offending indices.
    """
    count = len(hyperplanes)
    if count < 2 or count % 2:
        raise ValueError("an even number (2n) of hyperplanes is required")
    width = len(hyperplanes[0].coefficients)
    if any(len(h.coefficients) != width for h in hyperplanes):
        raise ValueError("hyperplanes live in the same CP^n")
    n = count // 2
    if width != n + 1:
        raise ValueError(f"{count} hyperplanes must live in CP^{n}")
    require_general_position(hyperplanes, width)
    diagonals = []
    for part in enumerate_partitions(n):
        p = intersection_point([hyperplanes[i - 1] for i in part.left])
        q = intersection_point([hyperplanes[j - 1] for j in part.right])
        form = line_through(p, q) if n == 2 else None
        diagonals.append(DiagonalLine(part, p, q, form))
    return diagonals
