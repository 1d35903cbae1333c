"""Entire curves assembled from exponentials of polynomials.

A term is c * e^(p(z)) with a Gaussian-rational coefficient and a
polynomial exponent.  Sums of such terms admit exact identity tests:
exponentials of distinct polynomials are linearly independent, and for
constant exponents independence over the algebraic numbers is the
Lindemann-Weierstrass theorem.  So a sum is zero exactly when it has no
terms: `ExpSum` truthiness is the exact zero test.  Everything symbolic
here is exact; floating point enters only through `terms_at` and the
scale rule of `scaled_values`, which the verifier uses for its
projection values and the sampler applies to arrays of sample points.

Each value is canonicalised once, where it enters (`poly`, `exp_term`,
`exp_sum`); `ExpSum` merges and orders the canonical terms it is given,
and an operation whose exponents can end in a zero calls `poly` itself.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations, count, product, zip_longest
from typing import Iterable, NamedTuple, Sequence

from .arrangement import RealSubspace, holomorphic_coefficients, re_part_form
from .diagonals import intersection_point
from .exact_linalg import (
    GaussianRational,
    GQLike,
    GQ_I,
    GQ_ONE,
    GQ_ZERO,
    gq,
    kernel_complex,
)
from .projective import ComplexHyperplane, require_general_position


class ConstructionError(RuntimeError):
    """Raised when a witness construction has no curve for its input.

    `witness_degenerate_pair` raises it exactly when H~ is the diagonal
    line its curve would lie on.
    """


# ---------------------------------------------------------------------------
# polynomials with Gaussian-rational coefficients, low degree first

Poly = tuple[GaussianRational, ...]

POLY_ZERO: Poly = ()
POLY_Z: Poly = (GQ_ZERO, GQ_ONE)


def poly(coeffs: Sequence[GQLike]) -> Poly:
    """Canonical polynomial: coerced coefficients, trailing zeros stripped."""
    p = [gq(c) for c in coeffs]
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def poly_eval(p: Poly, z: complex) -> complex:
    acc = 0j
    for c in reversed(p):
        acc = acc * z + c.to_complex()
    return acc


def _gq_key(c: GaussianRational) -> tuple[Fraction, Fraction]:
    return (c.re, c.im)


def _poly_key(p: Poly) -> tuple:
    return (len(p), tuple(_gq_key(c) for c in p))


_SCALE_STEP = 512


def scaled_values(sums: Sequence[Sequence[tuple[complex, complex]]]) -> tuple[int, list[complex]]:
    """Sums of terms c e^x, each as e^top times its returned value, one top for all.

    top is the largest Re x rounded to a multiple of 512.  It is 0 while
    every e^x is of moderate size, so the values are then the plain sums;
    otherwise the largest term lies between e^-256 and e^256, and neither
    overflows nor underflows a float.  An exponent that is not finite, NaN
    included, is a ValueError.
    """
    if not all(cmath.isfinite(x) for terms in sums for _, x in terms):
        raise ValueError("an exponent is beyond the float range at this point")
    largest = max((x.real for terms in sums for _, x in terms), default=0.0)
    top = _SCALE_STEP * round(largest / _SCALE_STEP)
    return top, [sum((c * cmath.exp(x - top) for c, x in terms), 0j) for terms in sums]


# ---------------------------------------------------------------------------
# exponential sums

def _merge(acc: dict, m, c: GaussianRational) -> GaussianRational:
    """Add c to the coefficient of m in acc, dropping it if it cancels; the new coefficient."""
    total = acc.get(m, GQ_ZERO) + c
    if total:
        acc[m] = total
    else:
        acc.pop(m, None)
    return total


class ExpPoly(NamedTuple):
    """One term c * e^(p(z)): a `GaussianRational` c and a canonical `poly` p, taken as given."""

    coeff: GaussianRational
    exponent: Poly

    @property
    def offset(self) -> GaussianRational:
        """The constant term of the exponent: r for a term c e^r."""
        return self.exponent[0] if self.exponent else GQ_ZERO


class ExpSum:
    """A finite sum of exponential terms in canonical grouped form.

    `ExpSum(terms)` takes canonical terms: Gaussian-rational coefficients
    and exponents built by `poly`.  It merges like exponents, drops zero
    coefficients and orders the terms.  It is an immutable value, not a sequence.

    With constant exponents it is a formal constant, a sum of c e^r over
    distinct r; by Lindemann-Weierstrass it is zero exactly when it has no
    terms.  `real_part`, `float_terms` and `log` take formal constants.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[ExpPoly, ...]) -> None:
        grouped: dict[Poly, GaussianRational] = {}
        for t in terms:
            _merge(grouped, t.exponent, t.coeff)
        ordered = tuple(
            ExpPoly(c, p) for p, c in sorted(grouped.items(), key=lambda pc: _poly_key(pc[0]))
        )
        object.__setattr__(self, "terms", ordered)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self) -> tuple:
        return ExpSum, (self.terms,)

    def __repr__(self) -> str:
        return f"ExpSum(terms={self.terms!r})"

    def __eq__(self, other: object) -> bool:
        return self.terms == other.terms if other.__class__ is ExpSum else NotImplemented

    def __hash__(self) -> int:
        return hash((self.terms,))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "ExpSum") -> "ExpSum":
        return ExpSum(self.terms + other.terms)

    def __sub__(self, other: "ExpSum") -> "ExpSum":
        return self + -other

    def __neg__(self) -> "ExpSum":
        return self.scale(gq(-1))

    def __mul__(self, other: "ExpSum") -> "ExpSum":
        """The product: c e^p times d e^q is cd e^(p + q)."""
        products = []
        for a, b in product(self.terms, other.terms):
            exponent = poly([x + y for x, y in zip_longest(a.exponent, b.exponent, fillvalue=GQ_ZERO)])
            products.append(ExpPoly(a.coeff * b.coeff, exponent))
        return ExpSum(tuple(products))

    def scale(self, c: GQLike) -> "ExpSum":
        k = gq(c)
        return ExpSum(tuple(ExpPoly(t.coeff * k, t.exponent) for t in self.terms))

    def real_part(self) -> "ExpSum":
        """The real part of a formal constant, as half of c e^r plus conj(c) e^(conj r) per term."""
        conjugates = tuple(ExpPoly(t.coeff.conjugate(), poly([t.offset.conjugate()])) for t in self.terms)
        return (self + ExpSum(conjugates)).scale(Fraction(1, 2))

    def float_terms(self, top: Fraction) -> list[tuple[complex, complex]]:
        """The terms c e^r of a formal constant as (c, r - top) pairs in floating point.

        r - top is taken exactly, and the pairs come in increasing r (`_gq_key`),
        which fixes the order of any float sum over them.
        """
        ordered = sorted(self.terms, key=lambda t: _gq_key(t.offset))
        return [(t.coeff.to_complex(), (t.offset - top).to_complex()) for t in ordered]

    def log(self) -> complex | None:
        """A logarithm of a nonzero formal constant, or None where floating point cancels it to zero.

        The factor e^(top), top the largest real part of an r, is taken out
        exactly, so the value's size never overflows or underflows a float.
        """
        top = max(t.offset.re for t in self.terms)
        shift, (rest,) = scaled_values([self.float_terms(top)])
        return float(top) + shift + cmath.log(rest) if rest else None


def exp_term(coeff: GQLike, exponent: Sequence[GQLike] = POLY_ZERO) -> ExpSum:
    return ExpSum((ExpPoly(gq(coeff), poly(exponent)),))


def exp_sum(terms: Iterable[tuple[GQLike, Sequence[GQLike]]]) -> ExpSum:
    return ExpSum(tuple(ExpPoly(gq(c), poly(p)) for c, p in terms))


def is_nowhere_zero(s: ExpSum) -> str:
    """'yes' when s has no zero, else 'no'; decided by the direction groups of s.

    A single group c e^(d(z)) with c != 0 has no zero.  The zero sum
    vanishes everywhere.  A sum with two or more groups has a zero: a
    zero-free entire function of finite order is e^(g) with g a polynomial
    (Hadamard), and Borel's theorem on sums of exponentials whose exponents
    differ by nonconstant polynomials then leaves a single group.
    """
    return "yes" if len(_direction_groups(s)) == 1 else "no"


def constant_value(s: ExpSum) -> ExpSum | None:
    """s itself when every exponent is constant, so that s is a formal constant; else None."""
    return None if any(len(t.exponent) > 1 for t in s.terms) else s


def terms_at(s: ExpSum, z: complex) -> list[tuple[complex, complex]]:
    """The terms of s at z as (c, exponent value) pairs, for `scaled_values`.

    z may be a numpy array; a zero exponent then stays the scalar 0j.
    """
    return [(t.coeff.to_complex(), poly_eval(t.exponent, z)) for t in s.terms]


# ---------------------------------------------------------------------------
# curves

class ExpAffineCurve:
    """An entire curve C -> C^3 whose components are exponential sums; an immutable value like `ExpSum`."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[ExpSum, ExpSum, ExpSum]) -> None:
        if len(components) != 3:
            raise ValueError("curves here have exactly 3 components")
        if not any(components):
            raise ValueError("the zero curve has no projective image")
        object.__setattr__(self, "components", components)

    __setattr__ = ExpSum.__setattr__

    def __reduce__(self) -> tuple:
        return ExpAffineCurve, (self.components,)

    def __repr__(self) -> str:
        return f"ExpAffineCurve(components={self.components!r})"

    def __eq__(self, other: object) -> bool:
        return self.components == other.components if other.__class__ is ExpAffineCurve else NotImplemented

    def __hash__(self) -> int:
        return hash((self.components,))

    @classmethod
    def from_terms(cls, *terms: tuple[GQLike, Sequence[GQLike]]) -> "ExpAffineCurve":
        if len(terms) != 3:
            raise ValueError("three components expected")
        return cls(tuple(exp_term(c, p) for c, p in terms))


def apply_form(h: ComplexHyperplane | Sequence[GQLike], f: ExpAffineCurve) -> ExpSum:
    """The exponential sum a1 f1 + a2 f2 + a3 f3, its terms grouped in one pass."""
    coeffs = h.coefficients if isinstance(h, ComplexHyperplane) else tuple(gq(x) for x in h)
    if len(coeffs) != 3:
        raise ValueError("forms on C^3 have 3 coefficients")
    terms = (ExpPoly(a * t.coeff, t.exponent) for a, comp in zip(coeffs, f.components) for t in comp.terms)
    return ExpSum(tuple(terms))


def _direction_groups(s: ExpSum) -> dict[Poly, ExpSum]:
    """Group terms by exponent modulo constants, each group as the formal constant of its c e^r.

    No group is zero: the exponents of s, and so the r within a group, are distinct.
    """
    groups: dict[Poly, list[ExpPoly]] = {}
    for t in s.terms:
        p = t.exponent
        direction = (GQ_ZERO,) + p[1:] if len(p) > 1 else POLY_ZERO
        groups.setdefault(direction, []).append(ExpPoly(t.coeff, poly(p[:1])))
    return {d: ExpSum(tuple(terms)) for d, terms in groups.items()}


UNIT_DEGREE_CAP = 64


def unit_exponent(polys: Sequence[Poly]) -> tuple[Poly, list[int]] | None:
    """P and integers n with polys[j] - polys[0] = n_j P, P nonconstant; None if there are none.

    This is the one scope test for a unit: the exponentials e^(polys[j]) are
    then e^(polys[0]) w^(n_j) in w = e^(P(z)), which takes every value in
    C* since P maps C onto C.  A subspace pair passes its exponents with
    the zero polynomial first, so that each exponent is n P; a hyperplane
    sum passes its directions (`_direction_groups`).  P is polys[0] minus
    the first other one, divided by the least integer that makes every n
    an integer.  None when two differences are not rational multiples of
    one nonconstant polynomial (slopes 1 and i, or z^2 and z), or when the
    powers span more than UNIT_DEGREE_CAP.
    """
    first = polys[0]
    diffs = [poly([a - b for a, b in zip_longest(first, d, fillvalue=GQ_ZERO)]) for d in polys]
    ref = next((d for d in diffs if d), POLY_Z)
    if len(ref) < 2:
        return None
    ratios = [d[-1] / ref[-1] if len(d) == len(ref) else GQ_ZERO for d in diffs]
    if any(q.im or (d and d != tuple(q * c for c in ref)) for d, q in zip(diffs, ratios)):
        return None
    denominator = math.lcm(*(q.re.denominator for q in ratios))
    powers = [-int(q.re * denominator) for q in ratios]
    if max(powers) - min(powers) > UNIT_DEGREE_CAP:
        return None
    return tuple(c / denominator for c in ref), powers


def _constant_ratio(f: ExpSum, g: ExpSum) -> bool:
    """Whether f / g is a constant function, decided exactly.

    f = lambda * g forces the exponent directions to match group by group;
    the scalar is then consistent exactly when all cross products of the
    group coefficients agree, which is a formal identity of constant sums.
    """
    gf, gg = _direction_groups(f), _direction_groups(g)
    if set(gf) != set(gg):
        return False
    directions = sorted(gf, key=_poly_key)
    ref = directions[0]
    return all(not (gf[d] * gg[ref] - gf[ref] * gg[d]) for d in directions[1:])


def is_projectively_constant(f: ExpAffineCurve) -> bool:
    """Whether the image of f in CP^2 is a single point.

    For single-term components this is the classical criterion that the
    exponent differences are constant polynomials.
    """
    nonzero = [c for c in f.components if c]
    return all(_constant_ratio(a, b) for a, b in combinations(nonzero, 2))


# ---------------------------------------------------------------------------
# witness constructions

def first_constant_with_nonzero_re(b: GaussianRational) -> GaussianRational:
    """A constant c with Re(b e^c) != 0: 0 if Re b != 0, else i.

    Write c = u + vi.  For v = 0 the value is e^u Re(b), so a real c works
    exactly when Re b != 0.  For rational v != 0, Re(b e^c) = 0 would force
    e^(2iv) to equal the algebraic number -conj(b)/b, which Lindemann rules
    out; so c = i works for every b != 0.  b = 0 has none: a ValueError.
    """
    if not b:
        raise ValueError("Re(0 * e^c) is 0 for every c")
    return GQ_ZERO if b.re else GQ_I


def witness_constant_projection(hyperplanes: Sequence[ComplexHyperplane]) -> ExpAffineCurve:
    """A curve (e^z, t e^z, t^2 e^z) avoiding every listed hyperplane.

    Its projective image is the single point [1 : t : t^2] of the conic,
    for the first integer t = 0, 1, 2, ... with a1 + a2 t + a3 t^2 != 0 for
    every distinct listed form a; each form then restricts to a nonzero
    multiple of e^z.  That polynomial in t is nonzero because a is, so it
    has at most two roots: m distinct forms rule out at most 2m of the
    2m + 1 integers 0..2m, and t <= 2m.
    """
    if len(hyperplanes) < 5:
        raise ValueError("this construction is for five or more hyperplanes")
    if any(len(h.coefficients) != 3 for h in hyperplanes):
        raise ValueError("hyperplanes live in C^3")
    forms = {h.canonical() for h in hyperplanes}
    t = next(t for t in count() if all(a[0] + a[1] * t + a[2] * t * t for a in forms))
    return ExpAffineCurve.from_terms((1, POLY_Z), (t, POLY_Z), (t * t, POLY_Z))


def _at(form: Sequence[GaussianRational], point: Sequence[GaussianRational]) -> GaussianRational:
    return sum((a * x for a, x in zip(form, point)), GQ_ZERO)


def _meets(hyperplanes: Sequence[ComplexHyperplane], pair: tuple[int, int]) -> list[Sequence[GaussianRational]]:
    """The coordinates of H_j cap H_k for pair = (j, k), then of the meet of the other two."""
    if len(hyperplanes) != 4:
        raise ValueError("exactly four hyperplanes are required")
    if any(len(h.coefficients) != 3 for h in hyperplanes):
        raise ValueError("hyperplanes live in C^3")
    require_general_position(hyperplanes, 3)
    sides = ([h for i, h in enumerate(hyperplanes, 1) if (i in pair) is side] for side in (True, False))
    return [intersection_point(side).coords for side in sides]


def witness_dim4_subspace(
    hyperplanes: Sequence[ComplexHyperplane],
) -> tuple[RealSubspace, ExpAffineCurve]:
    """A 4-dimensional real subspace and a curve with nonconstant projection.

    Write a4 = lambda1 a1 + lambda2 a2 + lambda3 a3.  The curve is
    e^z q + e^(2z) p, on the diagonal 1,2 | 3,4 through p = H1 cap H2,
    scaled to a4(p) = 1, and q = H3 cap H4, scaled to lambda1 a1(q) = 1.
    Each H_i vanishes at exactly one of p and q, since no three of the four
    meet, so it restricts to a single nowhere-zero term.  In the
    coordinates w_i = lambda_i a_i(z) the points are p = (0, 0, 1) and
    q = (1, -1, 0), so the curve is (e^z, -e^z, e^(2z)) and the subspace is
    {Re(w1 - w2) = 0, Re(w1 - w3) = 0}; where Re(e^z) vanishes, Re(e^(2z))
    equals -Im(e^z)^2 < 0, so the two forms never vanish together on it.
    """
    p, q = _meets(hyperplanes, (1, 2))
    a = [h.coefficients for h in hyperplanes]
    # the relations among the columns (a4, a1, a2, a3) are spanned by one
    # kernel vector, scaled to (1, -lambda1, -lambda2, -lambda3)
    (mu,) = kernel_complex([[row[j] for row in (a[3], *a[:3])] for j in range(3)])
    w = [[-m * x for x in row] for m, row in zip(mu[1:], a[:3])]
    at_p, at_q = _at(a[3], p), _at(w[0], q)
    curve = ExpAffineCurve(
        tuple(exp_term(y / at_q, POLY_Z) + exp_term(x / at_p, (0, 2)) for x, y in zip(p, q))
    )
    subspace = RealSubspace(tuple(re_part_form([x - y for x, y in zip(w[0], w[k])]) for k in (1, 2)))
    assert all(is_nowhere_zero(apply_form(h, curve)) == "yes" for h in hyperplanes)
    assert not is_projectively_constant(curve)
    return subspace, curve


def witness_degenerate_pair(
    hyperplanes: Sequence[ComplexHyperplane],
    s: RealSubspace,
    pair: tuple[int, int],
) -> ExpAffineCurve:
    """A nonconstant-projection curve avoiding four hyperplanes and a real hyperplane.

    The curve is e^c q + e^z p, on the diagonal through p = H_j cap H_k and
    q, the meet of the other two hyperplanes.  With alpha the form of s,
    three facts free of coordinates make it a witness:

    - each H_i vanishes at exactly one of p and q, since no three of the
      four meet, so it restricts to a single nowhere-zero term;
    - alpha(p) = 0, since the degenerate triple puts alpha in the span of
      a_j and a_k; so alpha restricts to the constant e^c alpha(q), and
      `first_constant_with_nonzero_re` picks c to make its real part nonzero;
    - alpha(q) = 0 exactly when H~ is the line pq, and then the
      construction raises.  No other diagonal helps: pq meets each H_i
      only at p or q, so alpha vanishes at neither point of another
      diagonal, and the real part of its restriction to a curve there
      vanishes somewhere unless the curve projects to a point.
    """
    if s.dimension != 5:
        raise ValueError("a real hyperplane is required")
    j, k = pair
    if not (1 <= j < k <= 4):
        raise ValueError("pair indices must satisfy 1 <= j < k <= 4")
    p, q = _meets(hyperplanes, pair)
    alpha = holomorphic_coefficients(s.forms[0])
    at_p, at_q = _at(alpha, p), _at(alpha, q)
    if at_p:
        raise ValueError(f"triple for pair {pair} is in general position")
    if not at_q:
        raise ConstructionError(
            "construction failed: the form vanishes somewhere on every diagonal"
        )
    c = first_constant_with_nonzero_re(at_q)
    curve = ExpAffineCurve(tuple(exp_term(x, (c,)) + exp_term(y, POLY_Z) for x, y in zip(q, p)))
    assert all(is_nowhere_zero(apply_form(h, curve)) == "yes" for h in hyperplanes)
    value = constant_value(apply_form(alpha, curve))
    assert value is not None and value.real_part()
    assert not is_projectively_constant(curve)
    return curve


_STANDARD_TRIPLE = {
    (GQ_ONE, GQ_ZERO, GQ_ZERO),
    (GQ_ZERO, GQ_ONE, GQ_ZERO),
    (GQ_ZERO, GQ_ZERO, GQ_ONE),
}


def witness_three_hyperplanes(
    hyperplanes: Sequence[ComplexHyperplane], s: RealSubspace
) -> ExpAffineCurve:
    """The curve (1, e^z, -e^z) for the coordinate hyperplanes and x1+x2+x3 = 0.

    The defining form of the subspace restricts to the constant 1 on the
    curve.  This constructor accepts exactly that configuration; three
    hyperplanes admit no diagonal, so there is nothing to search.
    """
    if len(hyperplanes) != 3 or {h.canonical() for h in hyperplanes} != _STANDARD_TRIPLE:
        raise ValueError("expected the three coordinate hyperplanes")
    expected = RealSubspace(((Fraction(1), Fraction(0)) * 3,))
    if s != expected:
        raise ValueError("expected the subspace x1 + x2 + x3 = 0")
    curve = ExpAffineCurve.from_terms((1, POLY_ZERO), (1, POLY_Z), (-1, POLY_Z))
    value = constant_value(apply_form(holomorphic_coefficients(s.forms[0]), curve))
    assert value is not None and value.real_part()
    return curve
