"""Parsing and printing of scene files.

A scene is a line-oriented description of named geometric objects:

    hyperplane H1: z1 + (1/2 - 3i)*z2 = 0
    real      S:  x1 - x2 = 0; x1 - x3 = 0
    curve     f:  (exp(z), -exp(z), exp(2*z))
    # comments and blank lines are allowed

Coefficients are rationals and the literal i; exponents of exp() are
polynomials in z.  Printing produces a canonical text whose reparse is
equal to the original scene.

So that no scene can stall or overflow the parser, exponent polynomials
have degree at most MAX_DEGREE, a curve component at most MAX_TERMS terms,
and parentheses and signs nest at most MAX_DEPTH levels deep, each checked
before the arithmetic or recursion that would exceed it.  Every constant
the parser reads or builds has numerators and denominators of at most
MAX_DIGITS digits in its real and imaginary parts, since the cost of exact
elimination grows with the size of the entries.

A line's code, the text before its first '#', is first searched for a
character that no token may contain, an error at its column; every other
character starts or continues a number, a name or an operator, so the
code's tokens are then the strings of one `findall`.  A number token
starts with a digit and is read as integers, and a name is an identifier.
The token list ends in a sentinel, a string that no token equals, so the
parser looks ahead by one index with no bounds check.  An error is raised
at the index of its token and located only when it is reported: at the
token's column, or one past the line's end for the sentinel.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, NamedTuple, Sequence

from .arrangement import RealSubspace
from .curves import (
    POLY_ZERO,
    ExpAffineCurve,
    ExpPoly,
    ExpSum,
    GaussianRational,
    Poly,
    _merge,
    poly,
)
from .exact_linalg import GQ_I, GQ_ONE, GQ_ZERO, _integers, _lowest, _Record, _reduced, gq
from .projective import ComplexHyperplane


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _TokenError(Exception):
    """A parse error at the index-th token of a line, located when it is reported."""

    def at(self, line: int, text: str) -> ParseError:
        """The error at its column in text, the line's raw text."""
        index, message = self.args
        starts = [m.start() + 1 for m in _TOKEN_RE.finditer(text.partition("#")[0])]
        return ParseError(message, line, starts[index] if index < len(starts) else len(text) + 1)


# lines end at \n, \r\n and \r, as in a file read with universal newlines;
# the other breaks of `str.splitlines` (form feed, U+2028, ...) match \s
_LINE_END = re.compile(r"\r\n|\r|\n")
_BAD_CHAR = re.compile(r"[^0-9A-Za-z_\s\-+*/^()=:;,]")
_TOKEN_RE = re.compile(r"[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()=:;,]")
# no token, and no substring of "+-", "*/" or "^", which the parser tests with `in`
_END = "\n"

MAX_DEGREE = 64
MAX_TERMS = 256
MAX_DEPTH = 64
MAX_DIGITS = 64
_HEIGHT_LIMIT = 10**MAX_DIGITS

COMPLEX_VARS = ("z1", "z2", "z3")
REAL_VARS = ("x1", "y1", "x2", "y2", "x3", "y3")


def _tokenize_line(text: str, line_no: int) -> list[str]:
    """The tokens of one line, then the end-of-line sentinel."""
    code = text.partition("#")[0]
    if bad := _BAD_CHAR.search(code):
        raise ParseError(f"unexpected character {bad[0]!r}", line_no, bad.start() + 1)
    tokens = _TOKEN_RE.findall(code)
    tokens.append(_END)
    return tokens


class _Cursor:
    """A line's tokens, the index of the next and the nesting depth; no read passes the sentinel.

    The parser looks ahead with `tokens[index]` and steps over a token it has
    matched, never the sentinel, with `index += 1`.  `next` takes a required
    token and raises at the sentinel; `expect` calls it only on a mismatch.
    """

    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def next(self) -> str:
        tok = self.tokens[self.index]
        if tok == _END:
            raise _TokenError(self.index, "unexpected end of line")
        self.index += 1
        return tok

    def expect(self, text: str) -> None:
        if self.tokens[self.index] != text:
            # at the sentinel `next` raises; any other token is the one reported
            raise _TokenError(self.index, f"expected {text!r}, got {self.next()!r}")
        self.index += 1

    def descend(self) -> None:
        """Enter one more level of nesting, opened by the token just read; the caller leaves it."""
        if self.depth == MAX_DEPTH:
            raise _TokenError(self.index - 1, f"expressions nest at most {MAX_DEPTH} levels deep")
        self.depth += 1


def _height_error(at: int) -> _TokenError:
    return _TokenError(at, f"numerators and denominators have at most {MAX_DIGITS} digits")


def _bounded(c: GaussianRational, at: int) -> GaussianRational:
    """c, unless one of its four integers has more than MAX_DIGITS digits; its triple's height bounds all four."""
    if abs(c._a) < _HEIGHT_LIMIT and abs(c._b) < _HEIGHT_LIMIT and c._d < _HEIGHT_LIMIT:
        return c
    re, im = c.re, c.im
    if max(abs(re.numerator), re.denominator, abs(im.numerator), im.denominator) >= _HEIGHT_LIMIT:
        raise _height_error(at)
    return c


def _literal(tok: str, at: int) -> GaussianRational:
    """A number token as a reduced triple, its digits counted before Python converts them."""
    num, _, den = tok.partition("/")
    num, den = num.lstrip("0"), den.lstrip("0") if den else "1"
    if len(num) > MAX_DIGITS or len(den) > MAX_DIGITS:
        raise _height_error(at)
    if not den:
        raise _TokenError(at, "zero denominator")
    return _reduced(int(num or 0), 0, int(den))


# ---------------------------------------------------------------------------
# expression evaluation
#
# One recursive-descent core serves three value domains: linear forms in
# named variables, polynomials in z, and exponential sums.  It has one
# function per precedence level, `_parse_expression` (+ -), `_parse_term`
# (* /) and `_parse_factor`, so an operand costs three calls.  A value
# is a sparse sum, a dict from monomials to nonzero coefficients, so
# `_Domain` holds all the arithmetic and a subclass only says what its
# monomials are.  Binary operations receive the index of their operator
# token (of the exponent for '^'), where any error they raise is reported,
# and pass each coefficient they build through `_bounded`.  A value belongs
# to the one expression being parsed, so a sum merges its right operand
# into its left in place (`curves._merge`): n terms cost n dict updates.

class _Domain:
    """Arithmetic on sparse sums, the same in every domain.

    A subclass supplies `one`, its constant monomial; `variable(cur, name)`,
    which raises at the name, the token just read; `check_product(a, b, op)`,
    which raises at op if a*b leaves the domain; and `monomial_product(m, n, op)`,
    needed only where `check_product` admits two nonconstant factors.
    """

    one: object

    def add(self, a: dict, b: dict, op: int) -> dict:
        for m, c in b.items():
            _bounded(_merge(a, m, c), op)
        # only curve components can have this many terms
        if len(a) > MAX_TERMS:
            raise _TokenError(op, f"a curve component has at most {MAX_TERMS} terms")
        return a

    def negate(self, a: dict) -> dict:
        return {m: -c for m, c in a.items()}

    def multiply(self, a: dict, b: dict, op: int) -> dict:
        if len(a) == 1 and self.one in a:
            a, b = b, a
        if len(b) == 1 and self.one in b:
            # Scaling by a constant k adds no variable, degree or factor, so
            # check_product passes and the loop below would build this dict.  A
            # unit coefficient, a variable's, scales to k, and i to k rotated.
            k = b[self.one]
            return {m: k if c is GQ_ONE else _lowest(-k._b, k._a, k._d) if c is GQ_I else _bounded(c * k, op)
                    for m, c in a.items()}
        self.check_product(a, b, op)
        product: dict = {}
        for m, c in a.items():
            for n, d in b.items():
                _merge(product, self.monomial_product(m, n, op), c * d)
        for c in product.values():
            _bounded(c, op)
        return product

    def divide(self, a: dict, b: dict, op: int) -> dict:
        if b.keys() != {self.one}:
            raise _TokenError(op, "division is only by nonzero constants")
        k = b[self.one]
        return {m: _bounded(c / k, op) for m, c in a.items()}

    def power(self, a: dict, exponent: int, op: int) -> dict:
        raise _TokenError(op, "'^' is not allowed here")


def _parse_expression(cur: _Cursor, domain: _Domain):
    value = _parse_term(cur, domain)
    while (tok := cur.tokens[cur.index]) in "+-":
        op = cur.index
        cur.index += 1
        rhs = _parse_term(cur, domain)
        value = domain.add(value, domain.negate(rhs) if tok == "-" else rhs, op)
    return value


def _parse_term(cur: _Cursor, domain: _Domain):
    value = _parse_factor(cur, domain)
    while (tok := cur.tokens[cur.index]) in "*/":
        op = cur.index
        cur.index += 1
        rhs = _parse_factor(cur, domain)
        if tok == "*":
            value = domain.multiply(value, rhs, op)
        else:
            value = domain.divide(value, rhs, op)
    return value


def _parse_factor(cur: _Cursor, domain: _Domain):
    """A signed factor, or a parenthesis, a number with an optional i, i or a name, then its '^' exponents."""
    tokens = cur.tokens
    tok = tokens[cur.index]
    if tok == _END:
        raise _TokenError(cur.index, "unexpected end of line")
    cur.index += 1
    if tok in "+-":
        cur.descend()
        value = _parse_factor(cur, domain)
        cur.depth -= 1
        return domain.negate(value) if tok == "-" else value
    if tok == "(":
        cur.descend()
        value = _parse_expression(cur, domain)
        cur.expect(")")
        cur.depth -= 1
    elif tok[0].isdigit():
        c = _literal(tok, cur.index - 1)
        if tokens[cur.index] == "i":
            cur.index += 1
            c = _lowest(0, c._a, c._d)  # c is real: c*i is (0 + a i)/d, still in lowest terms
        value = {domain.one: c} if c else {}
    elif tok == "i":
        value = {domain.one: GQ_I}
    elif tok.isidentifier():
        value = domain.variable(cur, tok)
    else:
        raise _TokenError(cur.index - 1, f"unexpected token {tok!r}")
    while tokens[cur.index] == "^":
        cur.index += 1
        exponent = cur.next()
        if not exponent.isdigit():
            raise _TokenError(cur.index - 1, "exponent must be a nonnegative integer")
        # digits counted first, as in `_literal`: so many are above any degree bound
        digits = exponent.lstrip("0")
        n = int(digits or 0) if len(digits) <= MAX_DIGITS else MAX_DEGREE + 1
        value = domain.power(value, n, cur.index - 1)
    return value


class _LinearDomain(_Domain):
    """Monomials: the named variables, and 1."""

    one = 1

    def __init__(self, variables: Sequence[str]) -> None:
        self.variables = variables

    def variable(self, cur, name):
        if name not in self.variables:
            raise _TokenError(cur.index - 1, f"unknown variable {name!r}")
        return {name: GQ_ONE}

    def check_product(self, a, b, op):
        if a.keys() - {1} and b.keys() - {1}:
            raise _TokenError(op, "products of variables are not linear")


class _PolyDomain(_Domain):
    """Monomials: the powers of z, as their exponents."""

    one = 0

    def variable(self, cur, name):
        if name != "z":
            raise _TokenError(cur.index - 1, f"only z may appear inside exp(), not {name!r}")
        return {1: GQ_ONE}

    def check_product(self, a, b, op):
        if a and b and max(a) + max(b) > MAX_DEGREE:
            raise _TokenError(op, f"exponent polynomials have degree at most {MAX_DEGREE}")

    def monomial_product(self, m, n, op):
        return m + n

    def power(self, a, exponent, op):
        if exponent > MAX_DEGREE or max(a, default=0) * exponent > MAX_DEGREE:
            raise _TokenError(op, f"exponent polynomials have degree at most {MAX_DEGREE}")
        out = {self.one: GQ_ONE}
        for _ in range(exponent):
            out = self.multiply(out, a, op)
        return out


class _CurveDomain(_Domain):
    """Monomials: exponentials e^p, as their exponent polynomials p; exp(...) descends into p."""

    one = POLY_ZERO

    def variable(self, cur, name):
        if name != "exp":
            raise _TokenError(cur.index - 1, f"unexpected name {name!r} in a curve component")
        cur.expect("(")
        cur.descend()
        p = _parse_expression(cur, _PolyDomain())
        cur.expect(")")
        cur.depth -= 1
        return {poly([p.get(k, GQ_ZERO) for k in range(max(p, default=-1) + 1)]): GQ_ONE}

    def check_product(self, a, b, op):
        if len(a) * len(b) > MAX_TERMS:
            raise _TokenError(op, f"a curve component has at most {MAX_TERMS} terms")

    def monomial_product(self, p, q, op):
        return poly([_bounded(x + y, op) for x, y in zip_longest(p, q, fillvalue=GQ_ZERO)])


class _ConstantDomain(_CurveDomain):
    """A curve component's arithmetic, where a name other than exp is not a constant."""

    def variable(self, cur, name):
        if name != "exp":
            raise _TokenError(cur.index - 1, "expected a constant")
        return super().variable(cur, name)


def _parse_component(cur: _Cursor) -> ExpSum:
    terms = _parse_expression(cur, _CurveDomain())
    return ExpSum(tuple(ExpPoly(c, p) for p, c in terms.items()))


# ---------------------------------------------------------------------------
# declarations

class _SceneFields(NamedTuple):
    hyperplanes: dict[str, ComplexHyperplane]
    reals: dict[str, RealSubspace]
    curves: dict[str, ExpAffineCurve]
    order: tuple[tuple[str, str], ...]


class Scene(_Record, _SceneFields):
    """Named hyperplanes, real subspaces, and curves, in declaration order; an omitted table is a new dict."""

    __slots__ = ()

    def __new__(cls, hyperplanes=None, reals=None, curves=None, order=()) -> "Scene":
        tables = ({} if t is None else t for t in (hyperplanes, reals, curves))
        return super().__new__(cls, *tables, order)


def _parse_zero_form(cur: _Cursor, variables: Sequence[str]) -> tuple[GaussianRational, ...]:
    value = _parse_expression(cur, _LinearDomain(variables))
    cur.expect("=")
    if cur.next() != "0":
        raise _TokenError(cur.index - 1, "declarations end with '= 0'")
    if 1 in value:
        raise _TokenError(cur.index, "a linear form may not have a constant part")
    vec = tuple(value.get(v, GQ_ZERO) for v in variables)
    if not any(vec):
        raise _TokenError(cur.index, "the zero form defines nothing")
    return vec


def parse_scene(text: str) -> Scene:
    hyperplanes: dict[str, ComplexHyperplane] = {}
    reals: dict[str, RealSubspace] = {}
    curves: dict[str, ExpAffineCurve] = {}
    order: list[tuple[str, str]] = []
    for line_no, raw in enumerate(_LINE_END.split(text), start=1):
        tokens = _tokenize_line(raw, line_no)
        if len(tokens) == 1:  # the sentinel alone: a blank or comment line
            continue
        cur = _Cursor(tokens)
        try:
            head = cur.next()
            if head not in ("hyperplane", "real", "curve"):
                raise _TokenError(0, f"expected 'hyperplane', 'real' or 'curve', got {head!r}")
            name = cur.next()
            if not name.isidentifier():
                raise _TokenError(1, "expected a name")
            if name in hyperplanes or name in reals or name in curves:
                raise _TokenError(1, f"duplicate name {name!r}")
            cur.expect(":")
            try:
                if head == "hyperplane":
                    vec = _parse_zero_form(cur, COMPLEX_VARS)
                    hyperplanes[name] = ComplexHyperplane(vec)
                elif head == "real":
                    forms = []
                    while True:
                        # scaled to ints by a positive s, which spans the same form
                        form, im = _integers(_parse_zero_form(cur, REAL_VARS))
                        if any(im):
                            raise _TokenError(cur.index, "real forms need rational coefficients")
                        forms.append(form)
                        if cur.tokens[cur.index] == _END:
                            break
                        cur.expect(";")
                    reals[name] = RealSubspace(tuple(forms))
                else:
                    cur.expect("(")
                    comps = [_parse_component(cur)]
                    for _ in range(2):
                        cur.expect(",")
                        comps.append(_parse_component(cur))
                    cur.expect(")")
                    curves[name] = ExpAffineCurve(tuple(comps))
            except ValueError as exc:
                raise _TokenError(0, str(exc)) from exc
            if (extra := cur.tokens[cur.index]) != _END:
                raise _TokenError(cur.index, f"unexpected trailing {extra!r}")
        except _TokenError as exc:
            raise exc.at(line_no, raw) from exc.__cause__
        order.append((head, name))
    return Scene(hyperplanes, reals, curves, tuple(order))


# ---------------------------------------------------------------------------
# canonical printing

def _format_sum(terms: Iterable[tuple[GaussianRational, str]]) -> str:
    """c1*m1 + c2*m2 - ... over (coefficient, monomial text) pairs, "" the monomial 1."""
    out = ""
    for c, body in terms:
        if not c:
            continue
        if body and c == GQ_ONE:
            piece = body
        elif body and c == -GQ_ONE:
            piece = f"-{body}"
        else:
            piece = f"({c})" if c._a and c._b else str(c)
            if body:
                piece += f"*{body}"
        if not out:
            out = piece
        elif piece.startswith("-"):
            out += f" - {piece[1:]}"
        else:
            out += f" + {piece}"
    return out or "0"


def format_complex_form(coeffs: Sequence[GaussianRational]) -> str:
    return _format_sum(zip(coeffs, COMPLEX_VARS))


def format_real_form(coeffs: Sequence[int | Fraction]) -> str:
    return _format_sum((gq(c), v) for c, v in zip(coeffs, REAL_VARS))


def format_poly(p: Poly) -> str:
    return _format_sum(
        (p[k], "" if k == 0 else "z" if k == 1 else f"z^{k}") for k in reversed(range(len(p)))
    )


def format_exp_sum(s: ExpSum) -> str:
    return _format_sum(
        (t.coeff, f"exp({format_poly(t.exponent)})" if t.exponent else "") for t in s.terms
    )


def format_scene(scene: Scene) -> str:
    lines = []
    for kind, name in scene.order:
        if kind == "hyperplane":
            form = format_complex_form(scene.hyperplanes[name].coefficients)
            lines.append(f"hyperplane {name}: {form} = 0")
        elif kind == "real":
            forms = "; ".join(
                f"{format_real_form(f)} = 0" for f in scene.reals[name].forms
            )
            lines.append(f"real {name}: {forms}")
        else:
            comps = ", ".join(format_exp_sum(c) for c in scene.curves[name].components)
            lines.append(f"curve {name}: ({comps})")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_constant(text: str) -> GaussianRational:
    """A standalone Gaussian-rational literal such as '1/2 - 3i'."""
    cur = _Cursor(_tokenize_line(text, 1))
    try:
        value = _parse_expression(cur, _ConstantDomain())
        if cur.tokens[cur.index] != _END:
            raise _TokenError(cur.index, "expected a constant")
    except _TokenError as exc:
        raise exc.at(1, text) from None
    if value.keys() - {POLY_ZERO}:
        raise ParseError("expected a constant", 1, 1)
    return value.get(POLY_ZERO, GQ_ZERO)
