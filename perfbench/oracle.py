"""Reference arithmetic for checking the package's answers.

Nothing here imports `curveavoid`.  Gaussian rationals are `(re, im)` pairs
of `Fraction`; exponential sums are dicts from an exponent polynomial (a
tuple of Gaussian rationals, low degree first, no trailing zeros) to a
nonzero coefficient.  The exact tests rest on the same theorems the paper
uses: exponentials of distinct polynomials are linearly independent, and
for constant exponents Lindemann-Weierstrass makes a formal sum of
`c * e^r` zero exactly when every merged coefficient is zero.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def g(re, im=0):
    return (Fraction(re), Fraction(im))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def neg(a):
    return (-a[0], -a[1])


def conj(a):
    return (a[0], -a[1])


def div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def nonzero(a) -> bool:
    return bool(a[0]) or bool(a[1])


def to_complex(a) -> complex:
    return complex(float(a[0]), float(a[1]))


def dot(u, v):
    acc = ZERO
    for x, y in zip(u, v):
        acc = add(acc, mul(x, y))
    return acc


def scale(c, v):
    return tuple(mul(c, x) for x in v)


def row_times(v, m):
    """Row vector v times the 3x3 matrix m."""
    return tuple(dot(v, [m[i][j] for i in range(3)]) for j in range(3))


def det3(m):
    (a, b, c), (d, e, f), (p, q, r) = m
    return sub(
        add(mul(a, sub(mul(e, r), mul(f, q))), mul(c, sub(mul(d, q), mul(e, p)))),
        mul(b, sub(mul(d, r), mul(f, p))),
    )


def inverse3(m):
    """Inverse by the adjugate; the caller guarantees det(m) != 0."""
    d = det3(m)
    cof = [
        [
            det2(
                [
                    [m[r][c] for c in range(3) if c != j]
                    for r in range(3)
                    if r != i
                ]
            )
            for j in range(3)
        ]
        for i in range(3)
    ]
    return tuple(
        tuple(div(cof[j][i] if (i + j) % 2 == 0 else neg(cof[j][i]), d) for j in range(3))
        for i in range(3)
    )


def det2(m):
    return sub(mul(m[0][0], m[1][1]), mul(m[0][1], m[1][0]))


# ---------------------------------------------------------------------------
# the rank dichotomy

PAIRS = tuple(combinations(range(1, 5), 2))


def triple_ranks(alpha, rows):
    """Real rank of (H~, H_j, H_k) for each pair: twice the complex rank.

    All three are complex hyperplanes, so the realified span has dimension
    2 * rank_C(alpha, a_j, a_k); the four hyperplanes are in general
    position, so that rank is 3 or 2, decided by one determinant.
    """
    return {
        (j, k): 6 if nonzero(det3([alpha, rows[j - 1], rows[k - 1]])) else 4
        for j, k in PAIRS
    }


def expected_class(ranks) -> str:
    """'general', 'deficient' or 'obstructed' from the triple ranks.

    A deficient form lies on one line span(a_j, a_k) of the dual plane.  It
    lies on two complementary lines exactly when it is one of the three
    diagonal points of the quadrilateral; on every diagonal of the
    arrangement its restriction is then a non-constant linear function,
    which vanishes somewhere, so no diagonal witness exists.
    """
    low = {pair for pair, r in ranks.items() if r < 6}
    if not low:
        return "general"
    if len(low) == 1:
        return "deficient"
    if len(low) == 2:
        (j, k), (l, m) = sorted(low)
        if not {j, k} & {l, m}:
            return "obstructed"
    raise ValueError(f"unexpected degenerate pairs {sorted(low)}")


# ---------------------------------------------------------------------------
# exponential sums and curves

def compose(coeffs, components):
    """sum_j coeffs[j] * components[j], merged by exponent."""
    out: dict = {}
    for c, comp in zip(coeffs, components):
        for p, d in comp.items():
            out[p] = add(out.get(p, ZERO), mul(c, d))
    return {p: d for p, d in out.items() if nonzero(d)}


def _constant_real_part(s) -> bool | None:
    """None if s has a nonconstant exponent, else whether Re(s) != 0."""
    if any(len(p) > 1 for p in s):
        return None
    half = g(Fraction(1, 2))
    merged: dict = {}
    for p, c in s.items():
        r = p[0] if p else ZERO
        for rr, cc in ((r, c), (conj(r), conj(c))):
            merged[rr] = add(merged.get(rr, ZERO), mul(half, cc))
    return any(nonzero(c) for c in merged.values())


def real_form_avoided(alpha, components) -> bool:
    """Whether Re(alpha . f) is a nonzero constant (so f avoids Re = 0)."""
    return bool(_constant_real_part(compose(alpha, components)))


def _formal_mul(a, b):
    out: dict = {}
    for r1, c1 in a.items():
        for r2, c2 in b.items():
            r = add(r1, r2)
            out[r] = add(out.get(r, ZERO), mul(c1, c2))
    return {r: c for r, c in out.items() if nonzero(c)}


def _formal_sub(a, b):
    out = dict(a)
    for r, c in b.items():
        out[r] = sub(out.get(r, ZERO), c)
    return {r: c for r, c in out.items() if nonzero(c)}


def projectively_constant(components) -> bool:
    """Whether f = phi(z) * v for a fixed vector v.

    Group every component by exponent direction (the exponent without its
    constant term); the coefficient of a direction is a formal constant
    sum c e^r.  f is projectively constant exactly when the 3 x m matrix of
    these formal constants has rank at most 1, i.e. every 2x2 minor is
    formally zero.
    """
    columns: dict = {}
    for i, comp in enumerate(components):
        for p, c in comp.items():
            direction = (ZERO,) + p[1:] if p else ()
            r = p[0] if p else ZERO
            col = columns.setdefault(direction, [{}, {}, {}])
            col[i][r] = add(col[i].get(r, ZERO), c)
    cols = [[{r: c for r, c in e.items() if nonzero(c)} for e in col] for col in columns.values()]
    for a, b in combinations(cols, 2):
        for i, j in combinations(range(3), 2):
            if _formal_sub(_formal_mul(a[i], b[j]), _formal_mul(a[j], b[i])):
                return False
    return True


def two_term_zeros_near(c1, q1, c2, q2, z: complex) -> float:
    """Distance from z to the nearest zero of c1 e^(q1 z) + c2 e^(q2 z).

    The zeros are (Log(-c2/c1) + 2 pi i k) / (q1 - q2) for integer k.
    """
    d = to_complex(sub(q1, q2))
    base = cmath.log(-to_complex(c2) / to_complex(c1))
    k0 = round(((z * d - base) / (2j * math.pi)).real)
    return min(abs((base + 2j * math.pi * k) / d - z) for k in (k0 - 1, k0, k0 + 1))


def two_term_nearest_zero_modulus(c1, q1, c2, q2) -> float:
    """|z| of the zero of c1 e^(q1 z) + c2 e^(q2 z) closest to the origin."""
    return two_term_zeros_near(c1, q1, c2, q2, 0j)


# ---------------------------------------------------------------------------
# scene text, written without the package's printer

def fmt_gq(c) -> str:
    re, im = c
    if not im:
        return f"({re})"
    return f"({re} + ({im})*i)"


def fmt_complex_form(coeffs) -> str:
    return " + ".join(f"{fmt_gq(c)}*z{j + 1}" for j, c in enumerate(coeffs) if nonzero(c)) + " = 0"


def real_form_of(alpha):
    """Coefficients on (x1, y1, x2, y2, x3, y3) of Re(alpha . z)."""
    out = []
    for re, im in alpha:
        out.extend((re, -im))
    return tuple(out)


def fmt_real_form(form) -> str:
    names = ("x1", "y1", "x2", "y2", "x3", "y3")
    return " + ".join(f"({c})*{v}" for c, v in zip(form, names) if c) + " = 0"


def fmt_exp_sum(s) -> str:
    if not s:
        return "0"
    pieces = []
    for p, c in s.items():
        exponent = " + ".join(
            fmt_gq(a) + ("" if k == 0 else "*z" if k == 1 else f"*z^{k}")
            for k, a in enumerate(p)
            if nonzero(a)
        )
        pieces.append(f"{fmt_gq(c)}*exp({exponent or '0'})")
    return " + ".join(pieces)
