"""Exact linear algebra over the rationals and the Gaussian rationals.

Every geometric predicate in this package reduces to a rank, kernel, or
complement computation on a small matrix.  All of it is exact: entries are
`fractions.Fraction` or `GaussianRational`, and elimination never rounds,
so "in general position" is decided by arithmetic, not by tolerances.

Every rank, kernel, solution and inverse comes from one kernel,
`_eliminate`: fraction-free Gauss-Jordan elimination over the Gaussian
integers Z[i], after Bareiss (1968, "Sylvester's identity and multistep
integer-preserving Gaussian elimination").  Each row is first multiplied by
the lcm of the denominators of its entries' real and imaginary parts, which
keeps its row space, so the entries become pairs of Python ints.  With p
the new pivot, in row r and column c, and prev the pivot before it (1 at
the start), every other row i becomes

    m[i][j] = (p * m[i][j] - m[i][c] * m[r][j]) / prev.

By Sylvester's identity each entry after k pivots is, up to sign, a minor
of order k or k + 1 of the scaled matrix, so it lies in Z[i]: prev divides
the numerator exactly, and `x * conj(prev) // |prev|^2` on ints never
rounds.  The identity holds over any commutative integral domain, so one
kernel serves Q and Q(i): a real row enters with imaginary parts 0 and
keeps them.  At the end every pivot entry equals the last pivot.  Ranks
read the pivot count and convert nothing; `_rref` divides each row by its
pivot once, in the input's field, which gives the unique reduced row
echelon form with unit pivots, the one rational elimination gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, TypeVar, Union

RationalLike = Union[int, Fraction]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """A complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: GQLike) -> "GaussianRational":
        o = gq(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: GQLike) -> "GaussianRational":
        o = gq(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: GQLike) -> "GaussianRational":
        return gq(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: GQLike) -> "GaussianRational":
        o = gq(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: GQLike) -> "GaussianRational":
        o = gq(other)
        n = o.norm2()
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other: GQLike) -> "GaussianRational":
        return gq(other) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Squared modulus, exact."""
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if self.im == 1:
            istr = "i"
        elif self.im == -1:
            istr = "-i"
        else:
            istr = f"{self.im}i"
        if not self.re:
            return istr
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        tail = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{tail}"


GQLike = Union[int, Fraction, GaussianRational]


def gq(x: GQLike, im: RationalLike = 0) -> GaussianRational:
    """Coerce to a Gaussian rational; `gq(a, b)` builds a + bi."""
    if isinstance(x, GaussianRational):
        if im:
            raise ValueError("imaginary part given twice")
        return x
    return GaussianRational(_frac(x), _frac(im))


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


def _eliminate(
    rows: Sequence[Sequence[T]], complex_field: bool
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination over Z[i].

    Returns the real and imaginary parts of the reduced integer rows, zero
    rows dropped, and the pivot columns.  Every pivot entry of the result
    equals the last pivot.
    """
    m_re: list[list[int]] = []
    m_im: list[list[int]] = []
    for r in rows:
        parts = [p for x in r for p in (x.re, x.im)] if complex_field else r
        scale = math.lcm(*(p.denominator for p in parts))
        ints = [p.numerator * (scale // p.denominator) for p in parts]
        m_re.append(ints[0::2] if complex_field else ints)
        m_im.append(ints[1::2] if complex_field else [0] * len(ints))
    n = len(m_re)
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
        for i in range(n):
            if i == row:
                continue
            x_re, x_im = m_re[i], m_im[i]
            b_re, b_im = x_re[col], x_im[col]
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


def _quotient(x_re: int, x_im: int, d_re: int, d_im: int, complex_field: bool):
    """(x_re + i x_im) / (d_re + i d_im) in the input's field."""
    if not complex_field:
        return Fraction(x_re, d_re)
    n = d_re * d_re + d_im * d_im
    return GaussianRational(
        Fraction(x_re * d_re + x_im * d_im, n), Fraction(x_im * d_re - x_re * d_im, n)
    )


def _rref(rows: Sequence[Sequence[T]]) -> tuple[list[list[T]], list[int]]:
    """Reduced row echelon form with unit pivots; returns (rows, pivot cols)."""
    if not rows or not rows[0]:
        return [], []
    complex_field = isinstance(rows[0][0], GaussianRational)
    m_re, m_im, pivots = _eliminate(rows, complex_field)
    reduced = []
    for x_re, x_im, pc in zip(m_re, m_im, pivots):
        d_re, d_im = x_re[pc], x_im[pc]
        reduced.append(
            [_quotient(a, b, d_re, d_im, complex_field) for a, b in zip(x_re, x_im)]
        )
    return reduced, pivots


def _kernel(
    rows: Sequence[Sequence[T]], width: int, complex_field: bool
) -> list[tuple[T, ...]]:
    """Kernel basis, each vector scaled so its first nonzero entry is 1.

    With d the common pivot, d*e_fc - sum_r m[r][fc]*e_pc(r) is d times the
    vector the unit-pivot RREF gives for free column fc.
    """
    m_re, m_im, pivots = _eliminate(rows, complex_field)
    d_re, d_im = (m_re[0][pivots[0]], m_im[0][pivots[0]]) if pivots else (1, 0)
    basis: list[tuple[T, ...]] = []
    for fc in range(width):
        if fc in pivots:
            continue
        v_re, v_im = [0] * width, [0] * width
        v_re[fc], v_im[fc] = d_re, d_im
        for x_re, x_im, pc in zip(m_re, m_im, pivots):
            v_re[pc], v_im[pc] = -x_re[fc], -x_im[fc]
        l_re, l_im = next((a, b) for a, b in zip(v_re, v_im) if a or b)
        basis.append(
            tuple(_quotient(a, b, l_re, l_im, complex_field) for a, b in zip(v_re, v_im))
        )
    return basis


def _scale_first_nonzero(v: tuple[T, ...]) -> tuple[T, ...]:
    lead = next((x for x in v if x), None)
    if lead is None:
        return v
    return tuple(x / lead for x in v)


def _real_rows(rows: Sequence[Sequence[RationalLike]]) -> list[list[Fraction]]:
    return [[_frac(x) for x in r] for r in rows]


def _complex_rows(rows: Sequence[Sequence[GQLike]]) -> list[list[GaussianRational]]:
    return [[gq(x) for x in r] for r in rows]


def rank_real(rows: Sequence[Sequence[RationalLike]]) -> int:
    """Rank of a matrix with 6 rational columns."""
    m = _real_rows(rows)
    if m and _check_rect(m) != 6:
        raise ValueError("real matrices here have exactly 6 columns")
    return len(_eliminate(m, False)[2])


def rank_complex(rows: Sequence[Sequence[GQLike]]) -> int:
    m = _complex_rows(rows)
    _check_rect(m)
    return len(_eliminate(m, True)[2])


def kernel_real(rows: Sequence[Sequence[RationalLike]], width: int) -> list[RationalVector]:
    """Basis of the right kernel, each vector scaled so its first nonzero entry is 1."""
    m = _real_rows(rows)
    if m and _check_rect(m) != width:
        raise ValueError(f"expected {width} columns")
    return _kernel(m, width, False)


def kernel_complex(rows: Sequence[Sequence[GQLike]], width: int | None = None) -> list[ComplexVector]:
    """Basis of the right kernel over Q(i), canonically scaled."""
    m = _complex_rows(rows)
    w = _check_rect(m) if m else width
    if w is None:
        raise ValueError("width required for an empty matrix")
    if m and width is not None and w != width:
        raise ValueError(f"expected {width} columns")
    return _kernel(m, w, True)


def orthogonal_complement(rows: Sequence[Sequence[RationalLike]]) -> list[RationalVector]:
    """Basis of the Euclidean orthogonal complement in R^6 of the row span.

    Applying this twice returns a basis of the original span, and the two
    dimensions always add up to 6.
    """
    m = _real_rows(rows)
    if m and _check_rect(m) != 6:
        raise ValueError("complements are taken inside R^6")
    return _kernel(m, 6, False)


def solve_complex(
    rows: Sequence[Sequence[GQLike]], rhs: Sequence[GQLike]
) -> ComplexVector | None:
    """One exact solution of m x = rhs, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    m = _complex_rows(rows)
    b = [gq(x) for x in rhs]
    if len(m) != len(b):
        raise ValueError("right-hand side length mismatch")
    width = _check_rect(m)
    augmented = [row + [val] for row, val in zip(m, b)]
    reduced, pivots = _rref(augmented)
    if width in pivots:
        return None
    x = [GQ_ZERO] * width
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][width]
    return tuple(x)


def inverse_complex(rows: Sequence[Sequence[GQLike]]) -> list[ComplexVector]:
    """Exact inverse of a square matrix over Q(i)."""
    m = _complex_rows(rows)
    n = len(m)
    if n == 0 or _check_rect(m) != n:
        raise ValueError("inverse of a non-square matrix")
    augmented = [row + [GQ_ONE if i == j else GQ_ZERO for j in range(n)] for i, row in enumerate(m)]
    reduced, pivots = _rref(augmented)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [tuple(reduced[i][n:]) for i in range(n)]
