"""Real subspaces of R^6 = C^3, general position, and the classification rule.

A complex hyperplane realifies to a codimension-2 real subspace.  A triple
of codimension-2 subspaces is "in general position" when the orthogonal
complements together span R^6; since each subspace is the kernel of its
defining forms, the complement is the row span of those forms and the
predicate is `projective.dependent_subset` on the three stacks of forms.

The classifier only ever stacks the realified forms of complex hyperplanes
(H~, H_j, H_k).  The real span of Re(c.z) and Im(c.z) is the realification
of the complex line C.c, so the real rank of such a stack is 2 * rank_C of
the three complex coefficient vectors: 4 or 6.  `triple_rank` computes it
that way, on a 3x3 Gaussian-rational matrix instead of a 6x6 rational one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from .exact_linalg import (
    ComplexVector,
    GaussianRational,
    GQLike,
    RationalLike,
    RationalVector,
    _frac,
    _rref,
    GQ_I,
    gq,
    rank_complex,
)
from .projective import ComplexHyperplane, dependent_subset, require_general_position

if TYPE_CHECKING:
    from .curves import ExpAffineCurve

ALL_CURVES_CONSTANT = "AllCurvesConstant"
WITNESS_EXISTS = "WitnessExists"


@dataclass(frozen=True, slots=True)
class RealSubspace:
    """A linear subspace of R^6 cut out by independent linear forms.

    Coordinates are ordered (x1, y1, x2, y2, x3, y3) with z_j = x_j + i y_j.
    The forms are stored in reduced row echelon form, so two values are
    equal exactly when they describe the same subspace.
    """

    forms: tuple[RationalVector, ...]

    def __post_init__(self) -> None:
        rows = [[_frac(x) for x in f] for f in self.forms]
        if not rows:
            raise ValueError("a real subspace needs at least one defining form")
        if any(len(r) != 6 for r in rows):
            raise ValueError("defining forms have 6 coefficients")
        reduced, _ = _rref(rows)
        if not reduced:
            raise ValueError("zero form does not cut out a proper subspace")
        object.__setattr__(self, "forms", tuple(tuple(r) for r in reduced))

    @property
    def dimension(self) -> int:
        return 6 - len(self.forms)

    def contains(self, other: "RealSubspace") -> bool:
        """Exact containment other <= self: a rank test, the same over Q(i) as over Q."""
        return rank_complex(list(self.forms) + list(other.forms)) == len(other.forms)


@dataclass(frozen=True, slots=True)
class TripleRank:
    """Span dimension of the stacked complements for one triple (H~, H_j, H_k)."""

    pair: tuple[int, int]
    rank: int


@dataclass(frozen=True, slots=True)
class Verdict:
    tag: str
    witness: "ExpAffineCurve | None"
    evidence: tuple[TripleRank, ...]


def re_part_form(a: Sequence[GaussianRational]) -> RationalVector:
    """The real form Re(a.z) on (x1, y1, x2, y2, x3, y3)."""
    return tuple(x for c in a for x in (c.re, -c.im))


def realify(h: ComplexHyperplane) -> RealSubspace:
    """The codimension-2 real subspace {Re(a.z) = 0, Im(a.z) = Re(-i a.z) = 0}."""
    if len(h.coefficients) != 3:
        raise ValueError("realification lives in C^3 = R^6")
    a = h.coefficients
    return RealSubspace((re_part_form(a), re_part_form([-GQ_I * c for c in a])))


def triple_rank(alpha: Sequence[GQLike], a: Sequence[GQLike], b: Sequence[GQLike]) -> int:
    """Real rank of the stacked realified forms of three complex forms on C^3.

    The real span of Re(c.z) and Im(c.z) is the realification of the line
    C.c, so the stack spans the realified complex span of alpha, a and b.
    """
    return 2 * rank_complex([alpha, a, b])


def holomorphic_coefficients(form: Sequence[RationalLike]) -> ComplexVector:
    """Complex coefficients c with form(x, y) = Re(sum c_j z_j).

    The form acts on (x1, y1, x2, y2, x3, y3); c_j = a_j - i b_j where a_j
    and b_j multiply x_j and y_j.
    """
    f = [_frac(x) for x in form]
    if len(f) != 6:
        raise ValueError("expected a form on R^6")
    return tuple(gq(f[2 * j], -f[2 * j + 1]) for j in range(3))


def triple_in_general_position(a: RealSubspace, b: RealSubspace, c: RealSubspace) -> bool:
    """Whether the orthogonal complements of three codim-2 subspaces span R^6."""
    for s in (a, b, c):
        if s.dimension != 4:
            raise ValueError("general position is defined for codimension-2 subspaces")
    return dependent_subset([s.forms for s in (a, b, c)], 3) is None


def extract_complex_hyperplane(s: RealSubspace) -> ComplexHyperplane:
    """The unique complex hyperplane contained in a real hyperplane of R^6.

    For {sum a_j x_j + b_j y_j = 0} it is {sum (a_j - i b_j) z_j = 0}.
    """
    if s.dimension != 5:
        raise ValueError("only real hyperplanes contain a unique complex hyperplane")
    return ComplexHyperplane(holomorphic_coefficients(s.forms[0]))


@dataclass(frozen=True, slots=True)
class CollapsedRealForm:
    """Restriction of a form on R^6 to the plane w -> (w, c2 w, c3 w).

    The restriction is a*Re(w) + b*Im(w); both coefficients are exact.
    """

    a: Fraction
    b: Fraction

    def evaluate(self, re_w: RationalLike, im_w: RationalLike) -> Fraction:
        return self.a * _frac(re_w) + self.b * _frac(im_w)


def collapse_real_form(s: RealSubspace, c2: GQLike, c3: GQLike) -> CollapsedRealForm:
    """Collapse the defining form of a real hyperplane along (w, c2 w, c3 w).

    The form is Re(alpha . z) with alpha = `holomorphic_coefficients`, so
    along the plane it is Re(g w) = Re(g) Re(w) - Im(g) Im(w) with
    g = alpha1 + alpha2 c2 + alpha3 c3.
    """
    if s.dimension != 5:
        raise ValueError("collapse is defined for real hyperplanes")
    alpha = holomorphic_coefficients(s.forms[0])
    g = alpha[0] + alpha[1] * gq(c2) + alpha[2] * gq(c3)
    return CollapsedRealForm(g.re, -g.im)


def _validate_four(hyperplanes: Sequence[ComplexHyperplane]) -> None:
    if len(hyperplanes) != 4:
        raise ValueError("classification takes exactly 4 complex hyperplanes")
    if any(len(h.coefficients) != 3 for h in hyperplanes):
        raise ValueError("hyperplanes live in C^3")


def triple_ranks(
    hyperplanes: Sequence[ComplexHyperplane], s: RealSubspace
) -> tuple[TripleRank, ...]:
    """Span dimension of (H~, H_j, H_k) complements for every pair j < k."""
    _validate_four(hyperplanes)
    if s.dimension != 5:
        raise ValueError("classification takes a real hyperplane")
    alpha = holomorphic_coefficients(s.forms[0])
    rows = [h.coefficients for h in hyperplanes]
    return tuple(
        TripleRank((j + 1, k + 1), triple_rank(alpha, rows[j], rows[k]))
        for j, k in combinations(range(4), 2)
    )


def classify(hyperplanes: Sequence[ComplexHyperplane], s: RealSubspace) -> Verdict:
    """Decide whether curves avoiding the arrangement can have nonconstant image.

    The four hyperplanes must be in general position (else a ValueError).
    With H~ the complex hyperplane inside s: if every triple (H~, H_j, H_k)
    is in general position, every entire curve avoiding the four hyperplanes
    and s projects to a constant in CP^2.  Otherwise a nonconstant witness
    is built on the diagonal through p = H_j cap H_k and q, the meet of the
    other two hyperplanes, for the first deficient pair.  With alpha the
    form of H~, three facts free of coordinates decide it: each H_i
    vanishes at exactly one of p and q; alpha(p) = 0; and alpha(q) = 0
    exactly when H~ is the line pq, the one case with no witness (see
    `curves.witness_degenerate_pair`).  General position is checked once
    on either path: here before a constant verdict, and by the witness
    constructor before a witness.

    Why the constant verdict holds: an entire curve that avoids four lines
    of CP^2 in general position and does not project to a point lies on
    one of their three diagonals (Borel's lemma; Green 1975).  On the
    diagonal through p' and q' it is e^h q' + e^g p' with e^(g - h)
    nonconstant, and alpha restricts to alpha(q') e^h + alpha(p') e^g.
    A triple of rank 6 puts alpha(H_j cap H_k) != 0, so with every triple
    at rank 6 both coefficients are nonzero.  If the real part of the
    restriction never vanishes, it omits a line and is a constant c != 0
    (little Picard); then e^h omits 0 and c / alpha(q'), so it is constant,
    and so are e^g and the projection.
    """
    evidence = triple_ranks(hyperplanes, s)
    degenerate = [t.pair for t in evidence if t.rank < 6]
    if not degenerate:
        require_general_position(hyperplanes, 3)
        return Verdict(ALL_CURVES_CONSTANT, None, evidence)
    from .curves import witness_degenerate_pair

    witness = witness_degenerate_pair(hyperplanes, s, degenerate[0])
    return Verdict(WITNESS_EXISTS, witness, evidence)
