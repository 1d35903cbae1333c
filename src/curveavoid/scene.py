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
before the arithmetic or recursion that would exceed it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .arrangement import RealSubspace
from .curves import (
    POLY_ZERO,
    ExpAffineCurve,
    ExpPoly,
    ExpSum,
    GaussianRational,
    Poly,
    poly,
)
from .exact_linalg import GQ_ONE, GQ_ZERO, gq
from .projective import ComplexHyperplane


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    line: int
    column: int

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.column)


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()=:;,])"
)

MAX_DEGREE = 64
MAX_TERMS = 256
MAX_DEPTH = 64

COMPLEX_VARS = ("z1", "z2", "z3")
REAL_VARS = ("x1", "y1", "x2", "y2", "x3", "y3")


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        if text[pos] == "#":
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, m.group(), line_no, pos + 1))
        pos = m.end()
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token], line_no: int, line_len: int) -> None:
        self.tokens = tokens
        self.index = 0
        self.line_no = line_no
        self.line_len = line_len
        self.depth = 0

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.line_no, self.line_len + 1)
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

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        if tok is None:
            return ParseError(message, self.line_no, self.line_len + 1)
        return tok.error(message)


# ---------------------------------------------------------------------------
# expression evaluation
#
# One recursive-descent core serves three value domains: linear forms in
# named variables, polynomials in z, and exponential sums.  A domain
# supplies atoms and arithmetic; the core handles precedence and errors.
# Binary operations receive their operator token (the exponent for '^'),
# where any error they raise is reported.

class _Domain:
    def number(self, c: GaussianRational):
        raise NotImplementedError

    def variable(self, cur: _Cursor, tok: Token):
        raise cur.fail(f"unexpected name {tok.text!r}")

    def add(self, a, b, op: Token):
        raise NotImplementedError

    def negate(self, a):
        raise NotImplementedError

    def multiply(self, a, b, op: Token):
        raise NotImplementedError

    def divide(self, a, b, op: Token):
        raise NotImplementedError

    def power(self, a, exponent: int, op: Token):
        raise op.error("'^' is not allowed here")


def _parse_expression(cur: _Cursor, domain: _Domain):
    value = _parse_term(cur, domain)
    while (tok := cur.peek()) is not None and tok.text in "+-":
        cur.next()
        rhs = _parse_term(cur, domain)
        value = domain.add(value, domain.negate(rhs) if tok.text == "-" else rhs, tok)
    return value


def _parse_term(cur: _Cursor, domain: _Domain):
    value = _parse_factor(cur, domain)
    while (tok := cur.peek()) is not None and tok.text in "*/":
        cur.next()
        rhs = _parse_factor(cur, domain)
        if tok.text == "*":
            value = domain.multiply(value, rhs, tok)
        else:
            value = domain.divide(value, rhs, tok)
    return value


def _parse_factor(cur: _Cursor, domain: _Domain):
    tok = cur.peek()
    if tok is not None and tok.text in "+-":
        cur.next()
        cur.descend(tok)
        value = _parse_factor(cur, domain)
        cur.depth -= 1
        return domain.negate(value) if tok.text == "-" else value
    value = _parse_atom(cur, domain)
    while (nxt := cur.peek()) is not None and nxt.text == "^":
        cur.next()
        etok = cur.next()
        if etok.kind != "number" or "/" in etok.text:
            raise etok.error("exponent must be a nonnegative integer")
        value = domain.power(value, int(etok.text), etok)
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
        try:
            c = gq(Fraction(tok.text))
        except ZeroDivisionError:
            raise tok.error("zero denominator") from None
        nxt = cur.peek()
        if nxt is not None and nxt.text == "i":
            cur.next()
            c = c * gq(0, 1)
        return domain.number(c)
    if tok.text == "i":
        return domain.number(gq(0, 1))
    if tok.kind == "name":
        return domain.variable(cur, tok)
    raise tok.error(f"unexpected token {tok.text!r}")


class _LinearDomain(_Domain):
    """Value: (constant, coefficient dict); multiplication must stay linear."""

    def __init__(self, variables: Sequence[str]) -> None:
        self.variables = variables

    def number(self, c):
        return (c, {})

    def variable(self, cur, tok):
        if tok.text not in self.variables:
            raise tok.error(f"unknown variable {tok.text!r}")
        return (GQ_ZERO, {tok.text: GQ_ONE})

    def add(self, a, b, op):
        coeffs = dict(a[1])
        for v, c in b[1].items():
            coeffs[v] = coeffs.get(v, GQ_ZERO) + c
        return (a[0] + b[0], coeffs)

    def negate(self, a):
        return (-a[0], {v: -c for v, c in a[1].items()})

    def multiply(self, a, b, op):
        if a[1] and b[1]:
            raise op.error("products of variables are not linear")
        if b[1]:
            a, b = b, a
        k = b[0]
        return (a[0] * k, {v: c * k for v, c in a[1].items()})

    def divide(self, a, b, op):
        if b[1] or not b[0]:
            raise op.error("division is only by nonzero constants")
        return (a[0] / b[0], {v: c / b[0] for v, c in a[1].items()})


class _PolyDomain(_Domain):
    """Value: a polynomial in z."""

    def number(self, c):
        return poly((c,))

    def variable(self, cur, tok):
        if tok.text != "z":
            raise tok.error(f"only z may appear inside exp(), not {tok.text!r}")
        return poly((0, 1))

    def add(self, a, b, op):
        n = max(len(a), len(b))
        return poly(
            [
                (a[i] if i < len(a) else GQ_ZERO) + (b[i] if i < len(b) else GQ_ZERO)
                for i in range(n)
            ]
        )

    def negate(self, a):
        return poly([-c for c in a])

    def multiply(self, a, b, op):
        if not a or not b:
            return poly(())
        if len(a) + len(b) - 2 > MAX_DEGREE:
            raise op.error(f"exponent polynomials have degree at most {MAX_DEGREE}")
        prod = [GQ_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                prod[i + j] = prod[i + j] + ca * cb
        return poly(prod)

    def divide(self, a, b, op):
        if len(b) > 1 or not b:
            raise op.error("division is only by nonzero constants")
        return poly([c / b[0] for c in a])

    def power(self, a, exponent, op):
        if exponent > MAX_DEGREE or (len(a) - 1) * exponent > MAX_DEGREE:
            raise op.error(f"exponent polynomials have degree at most {MAX_DEGREE}")
        out = poly((1,))
        for _ in range(exponent):
            out = self.multiply(out, a, op)
        return out


def _merge(acc: dict[Poly, GaussianRational], p: Poly, c: GaussianRational) -> None:
    total = acc.get(p, GQ_ZERO) + c
    if total:
        acc[p] = total
    else:
        acc.pop(p, None)


class _CurveDomain(_Domain):
    """Value: an exponential sum as an exponent -> nonzero coefficient dict.

    Each value belongs to the one expression being parsed, so a sum merges
    its right operand into its left in place: n terms cost n dict updates,
    and `_parse_component` builds one ExpSum at the end.  exp(...)
    descends into the poly domain.
    """

    def number(self, c):
        return {POLY_ZERO: c} if c else {}

    def variable(self, cur, tok):
        if tok.text != "exp":
            raise tok.error(f"unexpected name {tok.text!r} in a curve component")
        cur.descend(cur.expect("("))
        p = _parse_expression(cur, _PolyDomain())
        cur.expect(")")
        cur.depth -= 1
        return {p: GQ_ONE}

    def add(self, a, b, op):
        for p, c in b.items():
            _merge(a, p, c)
        if len(a) > MAX_TERMS:
            raise op.error(f"a curve component has at most {MAX_TERMS} terms")
        return a

    def negate(self, a):
        return {p: -c for p, c in a.items()}

    def multiply(self, a, b, op):
        if len(a) * len(b) > MAX_TERMS:
            raise op.error(f"a curve component has at most {MAX_TERMS} terms")
        product: dict[Poly, GaussianRational] = {}
        for pa, ca in a.items():
            for pb, cb in b.items():
                _merge(product, _PolyDomain().add(pa, pb, op), ca * cb)
        return product

    def divide(self, a, b, op):
        if len(b) != 1 or POLY_ZERO not in b:
            raise op.error("division is only by nonzero constants")
        k = GQ_ONE / b[POLY_ZERO]
        return {p: c * k for p, c in a.items()}


def _parse_component(cur: _Cursor) -> ExpSum:
    terms = _parse_expression(cur, _CurveDomain())
    return ExpSum(tuple(ExpPoly(c, p) for p, c in terms.items()))


# ---------------------------------------------------------------------------
# declarations

@dataclass(frozen=True)
class Scene:
    """Named hyperplanes, real subspaces, and curves, in declaration order."""

    hyperplanes: dict[str, ComplexHyperplane] = field(default_factory=dict)
    reals: dict[str, RealSubspace] = field(default_factory=dict)
    curves: dict[str, ExpAffineCurve] = field(default_factory=dict)
    order: tuple[tuple[str, str], ...] = ()


def _parse_zero_form(cur: _Cursor, variables: Sequence[str]) -> tuple[GaussianRational, ...]:
    value = _parse_expression(cur, _LinearDomain(variables))
    cur.expect("=")
    zero = cur.next()
    if zero.text != "0":
        raise zero.error("declarations end with '= 0'")
    constant, coeffs = value
    if constant:
        raise cur.fail("a linear form may not have a constant part")
    vec = tuple(coeffs.get(v, GQ_ZERO) for v in variables)
    if not any(vec):
        raise cur.fail("the zero form defines nothing")
    return vec


def parse_scene(text: str) -> Scene:
    hyperplanes: dict[str, ComplexHyperplane] = {}
    reals: dict[str, RealSubspace] = {}
    curves: dict[str, ExpAffineCurve] = {}
    order: list[tuple[str, str]] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        cur = _Cursor(tokens, line_no, len(raw))
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
                        raise cur.fail("real forms need rational coefficients")
                    forms.append(tuple(c.re for c in vec))
                    if cur.peek() is None:
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
        if (extra := cur.peek()) is not None:
            raise extra.error(f"unexpected trailing {extra.text!r}")
        seen.add(name)
        order.append((head.text, name))
    return Scene(hyperplanes, reals, curves, tuple(order))


# ---------------------------------------------------------------------------
# canonical printing

def _coeff_times(c: GaussianRational, body: str) -> str:
    if c == GQ_ONE:
        return body
    if c == gq(-1):
        return f"-{body}"
    cs = str(c)
    if c.re and c.im:
        cs = f"({cs})"
    return f"{cs}*{body}"


def _join_terms(pieces: list[str]) -> str:
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += f" - {piece[1:]}"
        else:
            out += f" + {piece}"
    return out


def format_complex_form(coeffs: Sequence[GaussianRational], variables: Sequence[str]) -> str:
    pieces = [_coeff_times(c, v) for c, v in zip(coeffs, variables) if c]
    return _join_terms(pieces) if pieces else "0"


def format_real_form(coeffs: Sequence[Fraction], variables: Sequence[str] = REAL_VARS) -> str:
    pieces = [_coeff_times(gq(c), v) for c, v in zip(coeffs, variables) if c]
    return _join_terms(pieces) if pieces else "0"


def format_poly(p: Poly) -> str:
    if not p:
        return "0"
    pieces = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        if k == 0:
            cs = str(c)
            pieces.append(f"({cs})" if c.re and c.im else cs)
        else:
            body = "z" if k == 1 else f"z^{k}"
            pieces.append(_coeff_times(c, body))
    return _join_terms(pieces)


def format_exp_sum(s: ExpSum) -> str:
    if not s.terms:
        return "0"
    pieces = []
    for t in s.terms:
        if not t.exponent:
            cs = str(t.coeff)
            pieces.append(f"({cs})" if t.coeff.re and t.coeff.im else cs)
        else:
            pieces.append(_coeff_times(t.coeff, f"exp({format_poly(t.exponent)})"))
    return _join_terms(pieces)


def format_scene(scene: Scene) -> str:
    lines = []
    for kind, name in scene.order:
        if kind == "hyperplane":
            form = format_complex_form(scene.hyperplanes[name].coefficients, COMPLEX_VARS)
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
    tokens = _tokenize_line(text, 1)
    cur = _Cursor(tokens, 1, len(text))
    value = _parse_expression(cur, _CurveDomain())
    if cur.peek() is not None or value.keys() - {POLY_ZERO}:
        raise ParseError("expected a constant", 1, 1)
    return value.get(POLY_ZERO, GQ_ZERO)
