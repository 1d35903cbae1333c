"""Points, lines, and hyperplanes in small complex projective spaces.

A point is stored in a canonical scaling (first nonzero coordinate equal
to 1), so structural equality is projective equality.  A line of CP^2 is
a `ComplexHyperplane`, which keeps its coefficients as given and compares
projective classes.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

from .exact_linalg import (
    ComplexVector,
    GQLike,
    gq,
    kernel_complex,
    rank_complex,
    _Record,
    _scale_first_nonzero,
)


class ProjPoint(_Record, NamedTuple("ProjPoint", [("coords", ComplexVector)])):
    """A point of CP^n, canonically scaled."""

    __slots__ = ()

    def __new__(cls, coords: Sequence[GQLike]) -> "ProjPoint":
        v = tuple(gq(x) for x in coords)
        if len(v) < 2:
            raise ValueError("point needs at least 2 homogeneous coordinates")
        if not any(v):
            raise ValueError("zero vector does not determine a point")
        return super().__new__(cls, _scale_first_nonzero(v))


class ComplexHyperplane(_Record, NamedTuple("ComplexHyperplane", [("coefficients", ComplexVector)])):
    """The zero set of a nonzero linear form on C^(n+1).

    Coefficients are kept as given; equality compares projective classes.
    """

    __slots__ = ()

    def __new__(cls, coefficients: Sequence[GQLike]) -> "ComplexHyperplane":
        v = tuple(gq(x) for x in coefficients)
        if len(v) < 2:
            raise ValueError("a hyperplane needs at least 2 coefficients")
        if not any(v):
            raise ValueError("zero form does not define a hyperplane")
        return super().__new__(cls, v)

    def canonical(self) -> ComplexVector:
        return _scale_first_nonzero(self.coefficients)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexHyperplane):
            return NotImplemented
        return self.canonical() == other.canonical()

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's comparison

    def __hash__(self) -> int:
        return hash(self.canonical())


# a line of CP^2 is a hyperplane
ProjLine = ComplexHyperplane


def incident(p: ProjPoint, line: ComplexHyperplane) -> bool:
    if len(p.coords) != len(line.coefficients):
        raise ValueError("dimension mismatch")
    return not sum((c * x for c, x in zip(line.coefficients, p.coords)), gq(0))


def line_through(p: ProjPoint, q: ProjPoint) -> ComplexHyperplane:
    """The unique line of CP^2 through two distinct points, canonically scaled."""
    if len(p.coords) != 3 or len(q.coords) != 3:
        raise ValueError("line_through works in CP^2")
    if p == q:
        raise ValueError("two distinct points are needed to span a line")
    basis = kernel_complex([p.coords, q.coords])
    assert len(basis) == 1
    return ComplexHyperplane(basis[0])


def dependent_subset(
    members: Sequence[Sequence[Sequence[GQLike]]], size: int
) -> tuple[int, ...] | None:
    """The first `size` members, in lexicographic order, whose stacked rows are dependent.

    A member is the list of rows that cut it out: [h.coefficients] for a
    complex hyperplane, s.forms for a real subspace.  A rational matrix has
    the same rank over Q and over Q(i), so one complex rank serves both.
    """
    for subset in combinations(range(len(members)), size):
        rows = [row for i in subset for row in members[i]]
        if rank_complex(rows) < len(rows):
            return subset
    return None


def require_general_position(hyperplanes: Sequence[ComplexHyperplane], size: int) -> None:
    """Raise unless every `size` of the coefficient vectors are independent."""
    subset = dependent_subset([[h.coefficients] for h in hyperplanes], size)
    if subset is not None:
        labels = ", ".join(str(i + 1) for i in subset)
        raise ValueError(f"hyperplanes {labels} are not in general position")
