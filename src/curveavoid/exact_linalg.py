"""Exact linear algebra over the rationals and the Gaussian rationals.

Every geometric predicate in this package reduces to a rank, kernel, or
complement computation on a small matrix.  All of it is exact: entries are
`fractions.Fraction` or `GaussianRational`, and elimination never rounds,
so "in general position" is decided by arithmetic, not by tolerances.  A
`GaussianRational` is one reduced integer triple, (a + bi)/d with d > 0
and gcd(a, b, d) = 1: each of its operations works on ints and ends in a
single gcd, and its real and imaginary parts become `Fraction`s only when
asked for.

Every rank and kernel comes from one kernel, `_eliminate`:
fraction-free elimination after Bareiss (1968, "Sylvester's identity and
multistep integer-preserving Gaussian elimination").  Every entry is read
straight from its integers as a triple (a, b, d) for (a + bi)/d, an int
or a `Fraction` as (n, 0, d), and each row is multiplied by the lcm of
its d, which keeps its row space, so the entries become pairs of Python
ints.  With p the new pivot, in row r and column c, and prev the pivot
before it (1 at the start), row i becomes

    m[i][j] = (p * m[i][j] - m[i][c] * m[r][j]) / prev.

By Sylvester's identity each entry after k pivots is, up to sign, a minor
of order k or k + 1 of the scaled matrix.  The identity holds over any
commutative integral domain, so the entries stay in the ring the rows
span and prev divides each numerator exactly.  The ring is read off the
input, not chosen by the caller:

- If every imaginary part is 0 (the rows of `rank_real`, `kernel_real`,
  `_rref`, and any rational rows given to the complex entry points), the
  recurrence runs in Z on one int per entry, and `//` never rounds.  The
  imaginary parts are returned as the zero rows they are.
- Otherwise it runs in Z[i] on pairs of ints, and `x * conj(prev) //
  |prev|^2` never rounds.

The pass is as long as the caller reads.  `rank_real` and `rank_complex`
read only the pivot count, so they clear only the rows below each pivot
(forward elimination); the pivots are the same.  `_kernel` and `_rref`
take the full Gauss-Jordan pass, which also clears the rows above, so at
the end every pivot entry equals the last pivot.  `_rref` divides each
rational row by its pivot once, for the unique unit-pivot echelon form.
Kernel vectors are built in Q(i) only, and `kernel_real` reads their real
parts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, TypeVar, Union

RationalLike = Union[int, Fraction]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


class _Record:
    """A base for validated records: `_replace` and `_make` build through `__new__`, so both run its checks."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))


class GaussianRational:
    """A complex number with rational real and imaginary parts.

    It is stored as (a + bi)/d with Python ints a, b, d, d > 0 and
    gcd(a, b, d) = 1, so each value has one triple, which equality and
    hashing use.  Like `Fraction`, it is immutable: `re` and `im` are
    read-only, and nothing outside this module writes the triple.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike, im: RationalLike) -> None:
        re, im = _frac(re), _frac(im)
        # with both parts in lowest terms, (a + bi)/d over the lcm d is too
        d = math.lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def height(self) -> int:
        """max(|a|, |b|, d), which bounds the numerators and denominators of both parts."""
        return max(abs(self._a), abs(self._b), self._d)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __add__(self, other: GQLike) -> "GaussianRational":
        o = other if other.__class__ is GaussianRational else gq(other)
        d, e = self._d, o._d
        return _reduced(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: GQLike) -> "GaussianRational":
        return self + -(other if other.__class__ is GaussianRational else gq(other))

    def __rsub__(self, other: GQLike) -> "GaussianRational":
        return gq(other) - self

    def __neg__(self) -> "GaussianRational":
        return _reduced(-self._a, -self._b, self._d)

    def __mul__(self, other: GQLike) -> "GaussianRational":
        o = other if other.__class__ is GaussianRational else gq(other)
        a, b, c, e = self._a, self._b, o._a, o._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other: GQLike) -> "GaussianRational":
        o = other if other.__class__ is GaussianRational else gq(other)
        a, b, c, e = self._a, self._b, o._a, o._b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + bi)/d divided by (c + ei)/f is (a + bi)(c - ei) f / (d (c^2 + e^2))
        f = o._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __rtruediv__(self, other: GQLike) -> "GaussianRational":
        return gq(other) / self

    def conjugate(self) -> "GaussianRational":
        return _reduced(self._a, -self._b, self._d)

    def to_complex(self) -> complex:
        # int true division rounds correctly, as Fraction.__float__ does
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        sign = "-" if im < 0 else "+" if re else ""
        mag = "" if abs(im) == 1 else abs(im)
        return f"{re or ''}{sign}{mag}i"


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + bi)/d for ints with d > 0, brought to lowest terms by one gcd."""
    g = math.gcd(a, b, d)
    x = object.__new__(GaussianRational)
    x._a, x._b, x._d = (a, b, d) if g == 1 else (a // g, b // g, d // g)
    return x


GQLike = Union[int, Fraction, GaussianRational]


def gq(x: GQLike, im: RationalLike = 0) -> GaussianRational:
    """Coerce to a Gaussian rational; `gq(a, b)` builds a + bi."""
    if isinstance(x, GaussianRational):
        if im:
            raise ValueError("imaginary part given twice")
        return x
    return GaussianRational(x, im)


GQ_ZERO = GaussianRational(Fraction(0), Fraction(0))
GQ_ONE = GaussianRational(Fraction(1), Fraction(0))
GQ_I = GaussianRational(Fraction(0), Fraction(1))

RationalVector = tuple[Fraction, ...]
ComplexVector = tuple[GaussianRational, ...]

T = TypeVar("T", Fraction, GaussianRational)


def _check_rect(rows: Sequence[Sequence[T]]) -> int:
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValueError("ragged matrix")
    return widths.pop() if widths else 0


def _parts(x: GQLike) -> tuple[int, int, int]:
    """The ints (a, b, d) of an entry (a + bi)/d; a float or any other type is a TypeError."""
    if x.__class__ is GaussianRational:
        return x._a, x._b, x._d
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def _check_rational(rows: Sequence[Sequence[RationalLike]]) -> None:
    """The real-only entry points' TypeError for a Gaussian rational; `_parts` rejects the rest."""
    if any(x.__class__ is GaussianRational for r in rows for x in r):
        raise TypeError("expected a rational, got GaussianRational")


def _eliminate(
    rows: Sequence[Sequence[GQLike]], *, forward: bool = False
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Fraction-free elimination over Z, or over Z[i] if an entry is not real.

    Returns the real and imaginary parts of the integer rows, zero rows
    dropped, and the pivot columns.  The full pass is Gauss-Jordan: every
    pivot entry of its result equals the last pivot.  With `forward` only
    the rows below each pivot are cleared, which finds the same pivots;
    the rows above them are left as they were reached.
    """
    m_re: list[list[int]] = []
    m_im: list[list[int]] = []
    for r in rows:
        entries = [_parts(x) for x in r]
        scale = math.lcm(*(d for _, _, d in entries))
        m_re.append([a * (scale // d) for a, _, d in entries])
        m_im.append([b * (scale // d) for _, b, d in entries])
    n = len(m_re)
    real = not any(map(any, m_im))
    prev_re, prev_im = 1, 0
    pivots: list[int] = []
    row = 0
    for col in range(len(m_re[0]) if m_re else 0):
        pivot = next((i for i in range(row, n) if m_re[i][col] or m_im[i][col]), None)
        if pivot is None:
            continue
        m_re[row], m_re[pivot] = m_re[pivot], m_re[row]
        m_im[row], m_im[pivot] = m_im[pivot], m_im[row]
        y_re, y_im = m_re[row], m_im[row]
        p_re, p_im = y_re[col], y_im[col]
        norm = prev_re * prev_re + prev_im * prev_im
        for i in range(row + 1 if forward else 0, n):
            if i == row:
                continue
            x_re, x_im = m_re[i], m_im[i]
            b_re, b_im = x_re[col], x_im[col]
            if real:
                # the same recurrence in Z; every imaginary part is 0 and stays 0
                m_re[i] = [(p_re * a - b_re * c) // prev_re for a, c in zip(x_re, y_re)]
                continue
            new_re: list[int] = []
            new_im: list[int] = []
            for a_re, a_im, c_re, c_im in zip(x_re, x_im, y_re, y_im):
                # p*a - b*c, then the exact division by prev
                t_re = p_re * a_re - p_im * a_im - b_re * c_re + b_im * c_im
                t_im = p_re * a_im + p_im * a_re - b_re * c_im - b_im * c_re
                new_re.append((t_re * prev_re + t_im * prev_im) // norm)
                new_im.append((t_im * prev_re - t_re * prev_im) // norm)
            m_re[i], m_im[i] = new_re, new_im
        prev_re, prev_im = p_re, p_im
        pivots.append(col)
        row += 1
        if row == n:
            break
    return m_re[:row], m_im[:row], pivots


def _rref(rows: Sequence[Sequence[RationalLike]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q with unit pivots; returns (rows, pivot cols)."""
    _check_rational(rows)
    m_re, _, pivots = _eliminate(rows)
    reduced = [[Fraction(a, x[pc]) for a in x] for x, pc in zip(m_re, pivots)]
    return reduced, pivots


def _kernel(rows: Sequence[Sequence[GQLike]], width: int) -> list[ComplexVector]:
    """Kernel basis over Q(i), each vector scaled so its first nonzero entry is 1.

    With d the common pivot, d*e_fc - sum_r m[r][fc]*e_pc(r) is d times the
    vector the unit-pivot RREF gives for free column fc.
    """
    m_re, m_im, pivots = _eliminate(rows)
    d_re, d_im = (m_re[0][pivots[0]], m_im[0][pivots[0]]) if pivots else (1, 0)
    basis: list[ComplexVector] = []
    for fc in (c for c in range(width) if c not in pivots):
        v_re, v_im = [0] * width, [0] * width
        v_re[fc], v_im[fc] = d_re, d_im
        for x_re, x_im, pc in zip(m_re, m_im, pivots):
            v_re[pc], v_im[pc] = -x_re[fc], -x_im[fc]
        l_re, l_im = next((a, b) for a, b in zip(v_re, v_im) if a or b)
        n = l_re * l_re + l_im * l_im
        basis.append(tuple(_reduced(a * l_re + b * l_im, b * l_re - a * l_im, n) for a, b in zip(v_re, v_im)))
    return basis


def _scale_first_nonzero(v: tuple[T, ...]) -> tuple[T, ...]:
    lead = next(x for x in v if x)
    return tuple(x / lead for x in v)


def rank_real(rows: Sequence[Sequence[RationalLike]]) -> int:
    """Rank of a matrix with 6 rational columns."""
    _check_rational(rows)
    if rows and _check_rect(rows) != 6:
        raise ValueError("real matrices here have exactly 6 columns")
    return len(_eliminate(rows, forward=True)[2])


def rank_complex(rows: Sequence[Sequence[GQLike]]) -> int:
    _check_rect(rows)
    return len(_eliminate(rows, forward=True)[2])


def kernel_real(rows: Sequence[Sequence[RationalLike]], width: int) -> list[RationalVector]:
    """Basis of the right kernel, each vector scaled so its first nonzero entry is 1.

    Vector k ends at the k-th free column of the echelon form, so the
    columns at which no vector ends are exactly the pivot columns.
    """
    _check_rational(rows)
    if rows and _check_rect(rows) != width:
        raise ValueError(f"expected {width} columns")
    return [tuple(x.re for x in v) for v in _kernel(rows, width)]


def kernel_complex(rows: Sequence[Sequence[GQLike]], width: int | None = None) -> list[ComplexVector]:
    """Basis of the right kernel over Q(i), canonically scaled."""
    w = _check_rect(rows) if rows else width
    if w is None:
        raise ValueError("width required for an empty matrix")
    if rows and width is not None and w != width:
        raise ValueError(f"expected {width} columns")
    return _kernel(rows, w)


def orthogonal_complement(rows: Sequence[Sequence[RationalLike]]) -> list[RationalVector]:
    """Basis of the Euclidean orthogonal complement in R^6 of the row span.

    It is the right kernel; applying this twice returns a basis of the
    original span, and the two dimensions always add up to 6.
    """
    return kernel_real(rows, 6)
