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

A line is scanned in one pass of one pattern: each match is a token with
the whitespace before it, a '#' ends the line's tokens, and any other
character is an error at its column.  The token list ends in a sentinel
whose column is one past the line's end, so the parser looks ahead by one
index with no bounds check and reports an error at the end of a line, as
at any token, at the sentinel.  Number tokens are read as integers.
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
from .exact_linalg import GQ_I, GQ_ONE, GQ_ZERO, _reduced, gq
from .projective import ComplexHyperplane


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.column)


# lines end at \n, \r\n and \r, as in a file read with universal newlines;
# the other breaks of `str.splitlines` (form feed, U+2028, ...) match \s
_LINE_END = re.compile(r"\r\n|\r|\n")
# The last alternative is \S, not '.': a '.' would back up into the
# whitespace before the line's end and match it.  Trailing whitespace thus
# matches nothing, and every other match starts where the last one ended.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>[0-9]+(?:/[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()=:;,])"
    r"|(?P<comment>#)"
    r"|(?P<error>\S))"
)

MAX_DEGREE = 64
MAX_TERMS = 256
MAX_DEPTH = 64
MAX_DIGITS = 64
_HEIGHT_LIMIT = 10**MAX_DIGITS

COMPLEX_VARS = ("z1", "z2", "z3")
REAL_VARS = ("x1", "y1", "x2", "y2", "x3", "y3")


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    """The tokens of one line, then the end-of-line sentinel."""
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "comment":
            break
        tok = Token(kind, m[kind], line_no, m.start(kind) + 1)
        if kind == "error":
            raise tok.error(f"unexpected character {tok.text!r}")
        tokens.append(tok)
    # its text is no operator, and not "", which `in "+-"` would match
    tokens.append(Token("end", "end of line", line_no, len(text) + 1))
    return tokens


class _Cursor:
    """Reads a line's tokens in order; `next` never moves past the sentinel."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind == "end":
            raise tok.error("unexpected end of line")
        self.index += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise tok.error(f"expected {text!r}, got {tok.text!r}")
        return tok

    def descend(self, tok: Token) -> None:
        """Enter one more level of nesting, opened by tok; the caller leaves it."""
        if self.depth == MAX_DEPTH:
            raise tok.error(f"expressions nest at most {MAX_DEPTH} levels deep")
        self.depth += 1


def _height_error(tok: Token) -> ParseError:
    return tok.error(f"numerators and denominators have at most {MAX_DIGITS} digits")


def _bounded(c: GaussianRational, tok: Token) -> GaussianRational:
    """c, unless one of its four integers has more than MAX_DIGITS digits; its height bounds all four."""
    if c.height() < _HEIGHT_LIMIT:
        return c
    re, im = c.re, c.im
    if max(abs(re.numerator), re.denominator, abs(im.numerator), im.denominator) >= _HEIGHT_LIMIT:
        raise _height_error(tok)
    return c


def _literal(tok: Token) -> GaussianRational:
    """A number token as a reduced triple, its digits counted before Python converts them."""
    num, _, den = tok.text.partition("/")
    num, den = num.lstrip("0"), den.lstrip("0") if den else "1"
    if len(num) > MAX_DIGITS or len(den) > MAX_DIGITS:
        raise _height_error(tok)
    if not den:
        raise tok.error("zero denominator")
    return _reduced(int(num or 0), 0, int(den))


# ---------------------------------------------------------------------------
# expression evaluation
#
# One recursive-descent core serves three value domains: linear forms in
# named variables, polynomials in z, and exponential sums.  In each a value
# is a sparse sum, a dict from monomials to nonzero coefficients, so
# `_Domain` holds all the arithmetic and a subclass only says what its
# monomials are.  Binary operations receive their operator token (the
# exponent for '^'), where any error they raise is reported, and pass each
# coefficient they build through `_bounded`.  A value belongs to the one
# expression being parsed, so a sum merges its right operand into its left
# in place (`curves._merge`): n terms cost n dict updates.

class _Domain:
    """Arithmetic on sparse sums, the same in every domain.

    A subclass supplies `one`, its constant monomial; `variable`;
    `check_product(a, b, op)`, which raises at op if a*b leaves the domain;
    and `monomial_product(m, n, op)`.
    """

    one: object

    def number(self, c: GaussianRational) -> dict:
        return {self.one: c} if c else {}

    def add(self, a: dict, b: dict, op: Token) -> dict:
        for m, c in b.items():
            _bounded(_merge(a, m, c), op)
        # only curve components can have this many terms
        if len(a) > MAX_TERMS:
            raise op.error(f"a curve component has at most {MAX_TERMS} terms")
        return a

    def negate(self, a: dict) -> dict:
        return {m: -c for m, c in a.items()}

    def multiply(self, a: dict, b: dict, op: Token) -> dict:
        if len(a) == 1 and self.one in a:
            a, b = b, a
        if len(b) == 1 and self.one in b:
            # Scaling by a constant k.  check_product cannot fire: a constant
            # adds no variable, degree 0 and one factor to a value already in
            # the domain.  The loop below would build the same dict in the
            # same order, since m*1 is m, the m are distinct and c*k != 0.
            k = b[self.one]
            return {m: _bounded(c * k, op) for m, c in a.items()}
        self.check_product(a, b, op)
        product: dict = {}
        for m, c in a.items():
            for n, d in b.items():
                _merge(product, self.monomial_product(m, n, op), c * d)
        for c in product.values():
            _bounded(c, op)
        return product

    def divide(self, a: dict, b: dict, op: Token) -> dict:
        if b.keys() != {self.one}:
            raise op.error("division is only by nonzero constants")
        k = b[self.one]
        return {m: _bounded(c / k, op) for m, c in a.items()}

    def power(self, a: dict, exponent: int, op: Token) -> dict:
        raise op.error("'^' is not allowed here")


def _parse_expression(cur: _Cursor, domain: _Domain):
    value = _parse_term(cur, domain)
    while (tok := cur.peek()).text in "+-":
        cur.next()
        rhs = _parse_term(cur, domain)
        value = domain.add(value, domain.negate(rhs) if tok.text == "-" else rhs, tok)
    return value


def _parse_term(cur: _Cursor, domain: _Domain):
    value = _parse_factor(cur, domain)
    while (tok := cur.peek()).text in "*/":
        cur.next()
        rhs = _parse_factor(cur, domain)
        if tok.text == "*":
            value = domain.multiply(value, rhs, tok)
        else:
            value = domain.divide(value, rhs, tok)
    return value


def _parse_factor(cur: _Cursor, domain: _Domain):
    tok = cur.peek()
    if tok.text in "+-":
        cur.next()
        cur.descend(tok)
        value = _parse_factor(cur, domain)
        cur.depth -= 1
        return domain.negate(value) if tok.text == "-" else value
    value = _parse_atom(cur, domain)
    while cur.peek().text == "^":
        cur.next()
        etok = cur.next()
        if etok.kind != "number" or "/" in etok.text:
            raise etok.error("exponent must be a nonnegative integer")
        # digits counted first, as in `_literal`: so many are above any degree bound
        digits = etok.text.lstrip("0")
        value = domain.power(value, int(digits or 0) if len(digits) <= MAX_DIGITS else MAX_DEGREE + 1, etok)
    return value


def _parse_atom(cur: _Cursor, domain: _Domain):
    tok = cur.next()
    if tok.text == "(":
        cur.descend(tok)
        value = _parse_expression(cur, domain)
        cur.expect(")")
        cur.depth -= 1
        return value
    if tok.kind == "number":
        c = _literal(tok)
        if cur.peek().text == "i":
            cur.next()
            c = c * GQ_I
        return domain.number(c)
    if tok.text == "i":
        return domain.number(GQ_I)
    if tok.kind == "name":
        return domain.variable(cur, tok)
    raise tok.error(f"unexpected token {tok.text!r}")


class _LinearDomain(_Domain):
    """Monomials: the named variables, and 1."""

    one = 1

    def __init__(self, variables: Sequence[str]) -> None:
        self.variables = variables

    def variable(self, cur, tok):
        if tok.text not in self.variables:
            raise tok.error(f"unknown variable {tok.text!r}")
        return {tok.text: GQ_ONE}

    def check_product(self, a, b, op):
        if a.keys() - {1} and b.keys() - {1}:
            raise op.error("products of variables are not linear")

    def monomial_product(self, m, n, op):
        return n if m == 1 else m


class _PolyDomain(_Domain):
    """Monomials: the powers of z, as their exponents."""

    one = 0

    def variable(self, cur, tok):
        if tok.text != "z":
            raise tok.error(f"only z may appear inside exp(), not {tok.text!r}")
        return {1: GQ_ONE}

    def check_product(self, a, b, op):
        if a and b and max(a) + max(b) > MAX_DEGREE:
            raise op.error(f"exponent polynomials have degree at most {MAX_DEGREE}")

    def monomial_product(self, m, n, op):
        return m + n

    def power(self, a, exponent, op):
        if exponent > MAX_DEGREE or max(a, default=0) * exponent > MAX_DEGREE:
            raise op.error(f"exponent polynomials have degree at most {MAX_DEGREE}")
        out = self.number(GQ_ONE)
        for _ in range(exponent):
            out = self.multiply(out, a, op)
        return out


class _CurveDomain(_Domain):
    """Monomials: exponentials e^p, as their exponent polynomials p; exp(...) descends into p."""

    one = POLY_ZERO

    def variable(self, cur, tok):
        if tok.text != "exp":
            raise tok.error(f"unexpected name {tok.text!r} in a curve component")
        cur.descend(cur.expect("("))
        p = _parse_expression(cur, _PolyDomain())
        cur.expect(")")
        cur.depth -= 1
        return {poly([p.get(k, GQ_ZERO) for k in range(max(p, default=-1) + 1)]): GQ_ONE}

    def check_product(self, a, b, op):
        if len(a) * len(b) > MAX_TERMS:
            raise op.error(f"a curve component has at most {MAX_TERMS} terms")

    def monomial_product(self, p, q, op):
        return poly([_bounded(x + y, op) for x, y in zip_longest(p, q, fillvalue=GQ_ZERO)])


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


class Scene(_SceneFields):
    """Named hyperplanes, real subspaces, and curves, in declaration order; an omitted table is a new dict."""

    __slots__ = ()
    # `_replace` builds through `_make`, so both run the checks in `__new__`
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, hyperplanes=None, reals=None, curves=None, order=()) -> "Scene":
        tables = ({} if t is None else t for t in (hyperplanes, reals, curves))
        return super().__new__(cls, *tables, order)


def _parse_zero_form(cur: _Cursor, variables: Sequence[str]) -> tuple[GaussianRational, ...]:
    value = _parse_expression(cur, _LinearDomain(variables))
    cur.expect("=")
    zero = cur.next()
    if zero.text != "0":
        raise zero.error("declarations end with '= 0'")
    if 1 in value:
        raise cur.peek().error("a linear form may not have a constant part")
    vec = tuple(value.get(v, GQ_ZERO) for v in variables)
    if not any(vec):
        raise cur.peek().error("the zero form defines nothing")
    return vec


def parse_scene(text: str) -> Scene:
    hyperplanes: dict[str, ComplexHyperplane] = {}
    reals: dict[str, RealSubspace] = {}
    curves: dict[str, ExpAffineCurve] = {}
    order: list[tuple[str, str]] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(_LINE_END.split(text), start=1):
        tokens = _tokenize_line(raw, line_no)
        if len(tokens) == 1:  # the sentinel alone: a blank or comment line
            continue
        cur = _Cursor(tokens)
        head = cur.next()
        if head.text not in ("hyperplane", "real", "curve"):
            raise head.error(f"expected 'hyperplane', 'real' or 'curve', got {head.text!r}")
        name_tok = cur.next()
        if name_tok.kind != "name":
            raise name_tok.error("expected a name")
        name = name_tok.text
        if name in seen:
            raise name_tok.error(f"duplicate name {name!r}")
        cur.expect(":")
        try:
            if head.text == "hyperplane":
                vec = _parse_zero_form(cur, COMPLEX_VARS)
                hyperplanes[name] = ComplexHyperplane(vec)
            elif head.text == "real":
                forms = []
                while True:
                    vec = _parse_zero_form(cur, REAL_VARS)
                    if any(c.im for c in vec):
                        raise cur.peek().error("real forms need rational coefficients")
                    forms.append(tuple(c.re for c in vec))
                    if cur.peek().kind == "end":
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
            if isinstance(exc, ParseError):
                raise
            raise head.error(str(exc)) from exc
        if (extra := cur.peek()).kind != "end":
            raise extra.error(f"unexpected trailing {extra.text!r}")
        seen.add(name)
        order.append((head.text, name))
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
            piece = f"({c})" if c.re and c.im else str(c)
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


def format_real_form(coeffs: Sequence[Fraction]) -> str:
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
    value = _parse_expression(cur, _CurveDomain())
    if cur.peek().kind != "end":
        raise cur.peek().error("expected a constant")
    if value.keys() - {POLY_ZERO}:
        raise ParseError("expected a constant", 1, 1)
    return value.get(POLY_ZERO, GQ_ZERO)
