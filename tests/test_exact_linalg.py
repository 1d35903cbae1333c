"""Tests for exact linear algebra over Q and Q(i)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curveavoid.exact_linalg import (
    GQ_ONE,
    GQ_ZERO,
    GaussianRational,
    _rref,
    gq,
    inverse_complex,
    kernel_complex,
    kernel_real,
    orthogonal_complement,
    rank_complex,
    rank_real,
    solve_complex,
)

F = Fraction


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)
gaussians = st.builds(gq, rationals, rationals)


class TestGaussianRational:
    def test_construction_coerces(self):
        assert gq(2) == GaussianRational(F(2), F(0))
        assert gq(F(1, 2), 3) == GaussianRational(F(1, 2), F(3))

    def test_arithmetic(self):
        assert gq(1, 2) + gq(3, -1) == gq(4, 1)
        assert gq(1, 2) * gq(3, -1) == gq(5, 5)
        assert -gq(1, -2) == gq(-1, 2)
        assert gq(2, 1) - gq(2, 1) == GQ_ZERO

    def test_division_exact(self):
        a = gq(F(3, 4), F(-2, 5))
        b = gq(F(1, 7), F(6))
        assert (a / b) * b == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gq(1) / GQ_ZERO

    def test_conjugate_and_norm(self):
        a = gq(2, -3)
        assert a.conjugate() == gq(2, 3)
        assert a.norm2() == F(13)
        assert a * a.conjugate() == gq(13)

    def test_bool(self):
        assert not GQ_ZERO
        assert gq(0, 1)
        assert gq(F(1, 9))

    def test_str_canonical(self):
        cases = {
            gq(0): "0",
            gq(F(3, 2)): "3/2",
            gq(0, 1): "i",
            gq(0, -1): "-i",
            gq(0, 2): "2i",
            gq(1, 1): "1+i",
            gq(F(1, 2), F(-3, 4)): "1/2-3/4i",
        }
        for value, text in cases.items():
            assert str(value) == text

    def test_to_complex(self):
        assert gq(F(1, 2), -2).to_complex() == complex(0.5, -2.0)

    @given(gaussians, gaussians)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(gaussians)
    def test_division_roundtrip(self, a):
        if a:
            assert (GQ_ONE / a) * a == GQ_ONE


class TestRankAndKernel:
    def test_kernel_frozen_example(self):
        rows = [(F(1), F(1), F(1)), (F(1), F(0), F(0))]
        assert kernel_real(rows, 3) == [(F(0), F(1), F(-1))]

    def test_kernel_scaling_is_canonical(self):
        rows = [(F(2), F(2), F(2)), (F(3), F(0), F(0))]
        assert kernel_real(rows, 3) == [(F(0), F(1), F(-1))]

    def test_rank_real_requires_width_six(self):
        with pytest.raises(ValueError):
            rank_real([(F(1), F(0), F(0))])

    def test_rank_real(self):
        rows = [
            (F(1), F(0), F(0), F(0), F(0), F(0)),
            (F(0), F(1), F(0), F(0), F(0), F(0)),
            (F(1), F(1), F(0), F(0), F(0), F(0)),
        ]
        assert rank_real(rows) == 2

    def test_rank_complex(self):
        rows = [(gq(1), gq(0, 1), GQ_ZERO), (gq(0, 1), gq(-1), GQ_ZERO)]
        # second row is i times the first
        assert rank_complex(rows) == 1

    def test_kernel_complex(self):
        rows = [(GQ_ONE, GQ_ONE, GQ_ONE)]
        basis = kernel_complex(rows)
        assert len(basis) == 2
        for vec in basis:
            assert sum(vec, GQ_ZERO) == GQ_ZERO


class TestSolveAndInverse:
    def test_solve_unique(self):
        rows = [(gq(1), gq(1), gq(0)), (gq(0), gq(1), gq(0)), (gq(0), gq(0), gq(2))]
        x = solve_complex([[r[i] for i in range(3)] for r in rows], (gq(3), gq(1), gq(4)))
        assert x == (gq(2), gq(1), gq(2))

    def test_solve_inconsistent(self):
        rows = [(gq(1), gq(0), gq(0)), (gq(1), gq(0), gq(0))]
        assert solve_complex(rows, (gq(1), gq(2))) is None

    def test_inverse(self):
        m = [(gq(1), gq(2), gq(0)), (gq(0), gq(1), gq(0)), (gq(0, 1), gq(0), gq(1))]
        inv = inverse_complex(m)
        for i in range(3):
            for j in range(3):
                entry = sum((m[i][k] * inv[k][j] for k in range(3)), GQ_ZERO)
                assert entry == (GQ_ONE if i == j else GQ_ZERO)

    def test_inverse_singular(self):
        m = [(gq(1), gq(1), gq(0)), (gq(2), gq(2), gq(0)), (gq(0), gq(0), gq(1))]
        with pytest.raises(ValueError):
            inverse_complex(m)


@st.composite
def rational_matrices(draw, width=6):
    depth = draw(st.integers(min_value=0, max_value=width))
    entries = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    return [
        tuple(draw(entries) for _ in range(width)) for _ in range(depth)
    ]


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rank_nullity(rows):
    assert rank_real(rows) + len(kernel_real(rows, 6)) == 6


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_orthogonal_complement_involution(rows):
    """The complement of the complement spans the original row space."""
    once = orthogonal_complement(rows)
    twice = orthogonal_complement(once)
    r = rank_real(rows)
    assert rank_real(twice) == r
    assert rank_real(list(rows) + list(twice)) == r


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_kernel_vectors_annihilate(rows):
    for vec in kernel_real(rows, 6):
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


# ---------------------------------------------------------------------------
# the fraction-free kernel against rational Gauss-Jordan elimination


def reference_rref(rows):
    """Gauss-Jordan elimination on Fraction or GaussianRational entries.

    The unit-pivot reduced row echelon form is unique, so the fraction-free
    kernel behind `_rref` must return exactly these rows and pivots.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    width = len(m[0])
    pivots = []
    row = 0
    for col in range(width):
        pivot = next((i for i in range(row, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = m[row][col]
        m[row] = [x / inv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m[:row], pivots


def reference_kernel(rows, width, one):
    """Kernel basis read off `reference_rref`, first nonzero entry scaled to 1."""
    reduced, pivots = reference_rref(rows)
    basis = []
    for fc in range(width):
        if fc in pivots:
            continue
        v = [one - one] * width
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        lead = next(x for x in v if x)
        basis.append(tuple(x / lead for x in v))
    return basis


def reference_solve(rows, rhs):
    reduced, pivots = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    width = len(rows[0])
    if width in pivots:
        return None
    x = [GQ_ZERO] * width
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][width]
    return tuple(x)


def reference_inverse(rows):
    n = len(rows)
    eye = [[GQ_ONE if i == j else GQ_ZERO for j in range(n)] for i in range(n)]
    reduced, pivots = reference_rref([list(r) + e for r, e in zip(rows, eye)])
    if pivots != list(range(n)):
        return None
    return [tuple(r[n:]) for r in reduced]


# Entries of 30 to 40 digits make the integers of the kernel long, so a
# division that were not exact would show as a wrong rank or entry.
scalars = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    st.builds(F, st.integers(-(10**40), 10**40), st.integers(10**30, 10**40)),
)
gaussian_scalars = st.builds(gq, scalars, scalars)


@st.composite
def matrices(draw, entries, width=st.integers(min_value=1, max_value=8)):
    """0-6 rows: drawn entries, zero rows, or combinations of earlier rows."""
    width = draw(width)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(("drawn", "zero", "dependent")))
        if kind == "dependent" and rows:
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(entries), draw(entries)
            rows.append([a * x + b * y for x, y in zip(r1, r2)])
        elif kind == "zero":
            rows.append([draw(entries) * 0 for _ in range(width)])
        else:
            rows.append([draw(entries) for _ in range(width)])
    return rows


@settings(max_examples=200, deadline=None)
@given(matrices(scalars, width=st.one_of(st.just(6), st.integers(min_value=1, max_value=8))))
def test_real_kernel_matches_reference(rows):
    width = len(rows[0]) if rows else 6
    reduced, pivots = reference_rref(rows)
    assert _rref(rows) == (reduced, pivots)
    assert all(type(x) is Fraction for r in _rref(rows)[0] for x in r)
    assert kernel_real(rows, width) == reference_kernel(rows, width, F(1))
    if width == 6:
        assert rank_real(rows) == len(pivots)
        assert orthogonal_complement(rows) == reference_kernel(rows, 6, F(1))


@settings(max_examples=200, deadline=None)
@given(matrices(gaussian_scalars), st.data())
def test_complex_kernel_matches_reference(rows, data):
    width = len(rows[0]) if rows else data.draw(st.integers(min_value=1, max_value=8))
    reduced, pivots = reference_rref(rows)
    assert _rref(rows) == (reduced, pivots)
    assert rank_complex(rows) == len(pivots)
    assert kernel_complex(rows, width) == reference_kernel(rows, width, GQ_ONE)
    if not rows:
        return
    # a right-hand side in the column span, or an arbitrary one
    if data.draw(st.booleans()):
        x = [data.draw(gaussian_scalars) for _ in range(width)]
        rhs = [sum((a * b for a, b in zip(r, x)), GQ_ZERO) for r in rows]
    else:
        rhs = [data.draw(gaussian_scalars) for _ in rows]
    assert solve_complex(rows, rhs) == reference_solve(rows, rhs)
    k = min(len(rows), width)
    square = [r[:k] for r in rows[:k]]
    expected = reference_inverse(square)
    if expected is None:
        with pytest.raises(ValueError):
            inverse_complex(square)
    else:
        assert inverse_complex(square) == expected
