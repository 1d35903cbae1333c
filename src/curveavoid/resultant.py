"""Exact common real zeros of two real parts on a one-unit curve.

`verifier` calls this for a real subspace whose two restrictions g_1, g_2
have nonconstant parts of real rank 2.  In scope, the exponents of g_1
and g_2 share a unit (`curves.unit_exponent`): each is n P for integers n
and one polynomial P, so g_k = sum b_(k,n) w^n is a Laurent polynomial
over Q(i) in w = e^(P(z)), which takes every value in C*.  The curve
meets the subspace exactly when Re g_1 = Re g_2 = 0 at some w != 0.

With w = u + iv, R_k = Re(|w|^(2 N_k) g_k) lies in Q[u, v] and has the
zeros of Re g_k off w = 0.  N_k is the least power that clears the
negative n of g_k: one more would give both R_k the factor u^2 + v^2,
whose only real zero is w = 0, and their resultant would vanish.

The elimination follows Basu, Pollack and Roy, *Algorithms in Real
Algebraic Geometry*.  The shear u -> u + lam v, lam = 0, 1, 2, ..., makes
both leading coefficients in v constants, so no common zero escapes to
v = infinity and the subresultants in v, taken over Z[u], specialise to
those of R_1(u0, v) and R_2(u0, v) at every u0.  One subresultant
remainder sequence in Z[u][v] (`_subresultants`) gives r(u) =
Res_v(R_1, R_2), of degree at most deg R_1 deg R_2, and the first
subresultant s11 v + s10.  r vanishes exactly at the u of the common
complex zeros; r = 0 means a common factor, which stays undecided.  At a
root u0 of r where s11(u0) != 0, the first subresultant is the gcd of
R_1(u0, v) and R_2(u0, v), so u0 carries exactly one common zero, v0 =
-s10(u0)/s11(u0), real when u0 is.  So once gcd(sqfree(r), s11) = 1, the
real roots of sqfree(r) and the real common zeros correspond one to one.
The origin is a common zero when both R_k vanish there; its root u = 0
is divided out after checking that the line u = 0 carries no other common
zero.  The remainder sequence r, r', -rem, ... ends in gcd(r, r'), and
divided by it is a Sturm sequence whose first member is sqfree(r).  No
real root means avoidance.  Each one is isolated by bisection on Sturm
counts and refined by rational bisection on the sign of sqfree(r).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .curves import POLY_ZERO, ExpSum, Poly, _order, unit_exponent
from .exact_linalg import GaussianRational, _integers

# deg r <= deg R_1 * deg R_2.  One subspace takes a median 4 ms at 16, 8 ms at 36 and
# 45-90 ms at 64 and 81, two thirds of it in isolating and refining the roots (CPython
# 3.11, one x86 core), so larger ones stay sampled.
MAX_DEGREE = 36
_SHEARS = 16  # shears tried before the pair stays sampled
_BITS = 64  # relative width of a refined root

# univariate polynomials over Q: coefficient lists, lowest degree first, no trailing zeros


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _primitive(p: list[int]) -> list[int]:
    """p != 0 divided by the gcd of its integer coefficients."""
    g = math.gcd(*p)
    return [c // g for c in p]


def _eval(p: list, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sign_at(p: list[int], x: Fraction) -> int:
    """The sign of p(a/b), from b^deg p(a/b) in integers."""
    acc, power = 0, 1
    for c in reversed(p):
        acc = acc * x.numerator + c * power
        power *= x.denominator
    return (acc > 0) - (acc < 0)


def _rem(a: list[int], b: list[int]) -> list[int]:
    """c a mod b for some integer c > 0, in integers: the remainder of pseudo-division."""
    lead, sign, r = abs(b[-1]), 1 if b[-1] > 0 else -1, list(a)
    while len(r) >= len(b):
        shift, c = len(r) - len(b), r[-1] * sign
        r = [x * lead for x in r]
        for i, y in enumerate(b):
            r[shift + i] -= c * y
        _trim(r)
    return r


def _sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """a, b, then the primitive -rem of the last two until degree 0 or rem 0; the last is +-gcd(a, b)."""
    chain = [a, b]
    while len(chain[-1]) > 1 and (r := _rem(chain[-2], chain[-1])):
        chain.append(_primitive([-c for c in r]))
    return chain


def _derivative(p: list) -> list:
    return [n * c for n, c in enumerate(p)][1:]


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pow(a: list[int], n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out = _mul(out, a)
    return out


def _exquo(a: list[int], b: list[int]) -> list[int]:
    """a / b for a b that divides a in Z[u]: long division, each leading quotient an exact int."""
    q, r = [], list(a)
    while len(r) >= len(b):
        c, shift = r[-1] // b[-1], len(r) - len(b)
        for i, y in enumerate(b):
            r[shift + i] -= c * y
        r.pop()
        q.append(c)
    return q[::-1]


# ---------------------------------------------------------------------------
# real roots


def _variations(chain: list[list[int]], x: Fraction) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _refine(p: list[int], lo: Fraction, hi: Fraction) -> Fraction:
    """The one root of p in (lo, hi], to a relative 2^-_BITS, by bisection on the sign of p."""
    side = _sign_at(p, hi)
    while side and hi - lo > max(-lo, hi) / 2**_BITS:
        mid = (lo + hi) / 2
        s = _sign_at(p, mid)
        if not s:
            return mid
        lo, hi = (lo, mid) if s == side else (mid, hi)
    return hi


def _real_roots(r: list[int]) -> tuple[list[int], list[Fraction]]:
    """q = sqfree(r), with the content of r, and its real roots, for r of degree 1 or more.

    r, r', -rem, ... ends in g = gcd(r, r'); divided by g (exactly, by Gauss's
    lemma) it is a Sturm sequence of q = r / g.  Bisection from (-2^k, 2^k],
    past Cauchy's bound, isolates each root; 0 is the first midpoint, so a
    root at 0 is found exactly.  Each interval carries the variations at its
    ends, so the chain is evaluated once per point.
    """
    chain = _sequence(r, _primitive(_derivative(r)))
    chain = [_exquo(p, chain[-1]) for p in chain]
    q = chain[0]
    bound = 2 ** (2 + max(map(abs, q[:-1])) // abs(q[-1])).bit_length()
    lo, hi = Fraction(-bound), Fraction(bound)
    roots, stack = [], [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            roots.append(_refine(q, lo, hi))
        elif v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            v_mid = _variations(chain, mid)
            stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return q, roots


# ---------------------------------------------------------------------------
# the plane curves R_k = 0


def _degree(powers: list[int]) -> int:
    """The degree of R for a g with these powers n of w: max n + 2N."""
    return max(powers) + 2 * max(0, -min(powers))


def _laurent(restrictions) -> tuple[Poly, list[dict[int, GaussianRational]]] | None:
    """P and each g as {n: b_n} with g = sum b_n e^(n P(z)); None out of scope.

    The scope is `curves.unit_exponent` on the exponents, 0 first.  Of P
    and -P, the one that gives the smaller product of degrees of R.
    """
    exponents = list({t.exponent for g in restrictions for t in g.terms} | {POLY_ZERO})
    exponents = [exponents[i] for i in _order(exponents)]
    found = unit_exponent(exponents)
    if found is None:
        return None
    p, powers = found
    power = dict(zip(exponents, powers))
    used = [[power[t.exponent] for t in g.terms] for g in restrictions]
    if math.prod(_degree([-n for n in ns]) for ns in used) < math.prod(map(_degree, used)):
        p, power = tuple(-c for c in p), {e: -n for e, n in power.items()}
    return p, [{power[t.exponent]: t.coeff for t in g.terms} for g in restrictions]


def _real_part(laurent: dict[int, GaussianRational]) -> dict[tuple[int, int], int]:
    """R = Re(|w|^(2N) g) as {(i, j): coefficient of u^i v^j}, primitive.

    A term b w^n gives (u^2 + v^2)^N Re(b w^n) for n >= 0 and
    (u^2 + v^2)^(N + n) Re(b conj(w)^(-n)) for n < 0; the coefficient of
    u^(m-k) v^k in Re(b (u +- iv)^m) is C(m, k) Re(b (+-i)^k).  The b are
    read by `exact_linalg._integers`, which only scales R.
    """
    top = max(0, -min(laurent))
    out: dict[tuple[int, int], int] = {}
    for n, re, im in zip(laurent, *_integers(laurent.values())):
        m, e, im = abs(n), top + min(n, 0), im if n >= 0 else -im
        for k in range(m + 1):
            c = math.comb(m, k) * (re, -im, -re, im)[k % 4]
            for j in range(e + 1):
                key = (m - k + 2 * (e - j), k + 2 * j)
                out[key] = out.get(key, 0) + math.comb(e, j) * c
    out = {key: c for key, c in out.items() if c}
    return dict(zip(out, _primitive(list(out.values()))))


def _shear(r: dict[tuple[int, int], int], lam: int) -> list[list[int]]:
    """R(u + lam v, v) as its coefficients in v, lowest first, each a polynomial in u."""
    d = max(i + j for i, j in r)
    out = [[0] * (d + 1) for _ in range(d + 1)]
    for (i, j), c in r.items():
        for t in range(i + 1):
            out[t + j][i - t] += math.comb(i, t) * lam**t * c
    return _trim([_trim(p) for p in out])


def _prem(f: list[list[int]], g: list[list[int]]) -> list[list[int]]:
    """lc(g)^(deg f - deg g + 1) f mod g, for polynomials in v over Z[u]."""
    lead, r = g[-1], list(f)
    for shift in range(len(f) - len(g), -1, -1):
        c = r.pop()  # the top coefficient, which the step cancels
        r = [_mul(lead, x) for x in r]
        for i, y in enumerate(g[:-1]):
            r[shift + i] = _trim([s - t for s, t in zip_longest(r[shift + i], _mul(c, y), fillvalue=0)])
    return _trim(r)


def _subresultants(a: list[list[int]], b: list[list[int]]) -> tuple[list[int], tuple[list[int], list[int]]]:
    """r = Res_v(a, b) and (s11, s10), the first subresultant's coefficients, up to sign.

    The subresultant remainder sequence (Collins 1967; Brown 1978): with
    deg a >= deg b in v, the pseudo-remainder of a by b divided by
    lc(a) psc(a)^d, d = deg a - deg b, is the subresultant below b, exact
    even where degrees are skipped.  The principal coefficient psc(b) is
    lc(b)^d / psc(a)^(d - 1), with psc = 1 before the first pair, the only
    one that can have d = 0.  The chain ends in r, of degree 0, unless a
    common factor stops it early (r = 0).  A member h of degree 1 below a
    higher degree, times psc(h) / lc(h), is the first subresultant, so
    s11 = psc(h) and s10 = psc(h) h0 / h1; without one it is 0.
    """
    if len(a) < len(b):
        a, b = b, a
    lead, psc, first = [1], [1], ([], [])
    while True:
        d = len(a) - len(b)
        h = [_exquo(c, _mul(lead, _pow(psc, d))) for c in _prem(a, b)]
        lead = b[-1]
        psc = _exquo(_pow(lead, d), _pow(psc, d - 1))
        if len(b) == 2 < len(a):
            first = psc, _exquo(_mul(psc, b[0]), b[1])
        if not h:
            return (psc if len(b) == 1 else []), first
        a, b = b, h


def unit_plane_zeros(g1: ExpSum, g2: ExpSum) -> tuple[Poly, list[complex]] | None:
    """P and the unit w = e^(P(z)) at each common zero of Re g1 and Re g2 (w != 0).

    The list is empty when the real parts never vanish together.  None
    when the pair is out of scope, r = 0, or no shear up to _SHEARS
    passes the checks.
    """
    found = _laurent((g1, g2))
    if found is None:
        return None
    p, laurents = found
    r1, r2 = (_real_part(g) for g in laurents)
    d1, d2 = (max(i + j for i, j in r) for r in (r1, r2))
    if d1 * d2 > MAX_DEGREE:
        return None
    origin = (0, 0) not in r1 and (0, 0) not in r2
    for lam in range(_SHEARS):
        s1, s2 = _shear(r1, lam), _shear(r2, lam)
        if len(s1[-1]) > 1 or len(s2[-1]) > 1:
            continue
        r, (s11, s10) = _subresultants(s1, s2)
        if not r:
            return None
        if origin:
            on_line = _sequence([c[0] if c else 0 for c in s1], [c[0] if c else 0 for c in s2])[-1]
            if any(on_line[:-1]):
                continue
            r = r[next(i for i, c in enumerate(r) if c) :]  # sqfree(r / u^m) = sqfree(r) / u
        q, roots = _real_roots(r) if len(r) > 1 else (r, [])
        if not roots:
            return p, []
        if min(len(s1), len(s2)) == 2:  # a factor of degree 1 in v is its own first subresultant
            s11, s10 = (s1 if len(s1) == 2 else s2)[::-1]
        if not s11 or len(_sequence(q, s11)[-1]) > 1:
            continue
        vs = [-_eval(s10, u) / _eval(s11, u) for u in roots]
        return p, [complex(float(u + lam * v), float(v)) for u, v in zip(roots, vs)]
    return None
