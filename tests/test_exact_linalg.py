"""Tests for exact linear algebra over Q and Q(i)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curveavoid.exact_linalg import (
    GQ_ONE,
    GQ_ZERO,
    GaussianRational,
    _eliminate,
    _frac,
    _rref,
    gq,
    kernel_complex,
    kernel_real,
    orthogonal_complement,
    rank_complex,
    rank_real,
)
from curveavoid.projective import dependent_subset

F = Fraction


def bounded_fractions(bound, max_denominator):
    """The values of st.fractions(-bound, bound, max_denominator=...), drawn from integers.

    For a denominator d and an m with |m| <= bound * max_denominator,
    m * d // max_denominator runs through every numerator n with
    |n| <= bound * d, so n / d takes exactly the values of the fraction
    strategy, at a fraction of its cost.
    """
    top = bound * max_denominator
    return st.builds(
        lambda d, m: F(m * d // max_denominator, d),
        st.integers(1, max_denominator),
        st.integers(-top, top),
    )


rationals = bounded_fractions(5, 8)
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


@st.composite
def rational_matrices(draw, width=6):
    depth = draw(st.integers(min_value=0, max_value=width))
    entries = bounded_fractions(9, 4)
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


def reference_inverse(rows):
    """The inverse read off `reference_rref` of [rows | I], or None for a singular matrix."""
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
    bounded_fractions(9, 4),
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


def test_kernel_real_vectors_end_at_the_free_columns():
    """The last nonzero index of each `kernel_real` vector runs through the non-pivot columns.

    Half the seeded matrices repeat a multiple of their first column as the
    second, so their first two columns are dependent and the pivots skip one.
    """
    rng = random.Random(27)
    for trial in range(300):
        width = rng.randint(1, 7)
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(width)] for _ in range(rng.randint(0, 5))]
        if trial % 2 and width > 1:
            for r in rows:
                r[1] = -2 * r[0]
        if trial % 3 == 0 and rows:
            rows.append([a + b for a, b in zip(rows[0], rows[-1])])
        kernel = kernel_real(rows, width)
        assert all(type(x) is Fraction for v in kernel for x in v)
        ends = [max(k for k, x in enumerate(v) if x) for v in kernel]
        assert ends == [c for c in range(width) if c not in _rref(rows)[1]]


@settings(max_examples=200, deadline=None)
@given(matrices(gaussian_scalars), st.data())
def test_complex_kernel_matches_reference(rows, data):
    width = len(rows[0]) if rows else data.draw(st.integers(min_value=1, max_value=8))
    pivots = reference_rref(rows)[1]
    if rows:  # `_rref` reads rational rows only
        with pytest.raises(TypeError, match="GaussianRational"):
            _rref(rows)
    assert rank_complex(rows) == len(pivots)
    assert kernel_complex(rows, width) == reference_kernel(rows, width, GQ_ONE)


def seeded_rational_matrices(seed, count):
    """0-6 rows of widths 1-8: drawn, zero, or combinations of earlier rows.

    About a third of the nonzero entries have numerators and denominators
    of 30 to 40 digits, so a division that were not exact would show.
    """
    rng = random.Random(seed)

    def entry():
        kind = rng.random()
        if kind < 0.2:
            return F(0)
        if kind < 0.5:
            sign = rng.choice((-1, 1))
            return F(sign * rng.randint(10**29, 10**40), rng.randint(10**29, 10**40))
        return F(rng.randint(-9, 9), rng.randint(1, 4))

    for _ in range(count):
        width = rng.choice((6, rng.randint(1, 8)))
        rows = []
        for _ in range(rng.randint(0, 6)):
            kind = rng.choice(("drawn", "zero", "dependent"))
            if kind == "dependent" and rows:
                r1, r2 = rng.choice(rows), rng.choice(rows)
                a, b = entry(), entry()
                rows.append([a * x + b * y for x, y in zip(r1, r2)])
            elif kind == "zero":
                rows.append([F(0)] * width)
            else:
                rows.append([entry() for _ in range(width)])
        yield width, rows


def test_rational_rows_agree_in_z_and_in_z_i():
    """Integer elimination of rational rows agrees with the Z[i] recurrence and with the full pass.

    One nonzero row times i changes neither the row space's rank nor the
    kernel, but its imaginary parts send `_eliminate` through the Z[i]
    recurrence, where the rows as drawn take the integer one.
    """
    for width, rows in seeded_rational_matrices(30, 400):
        full = _eliminate(rows)
        assert all(not any(r) for r in full[1])
        pivots = full[2]
        nonzero = [k for k, r in enumerate(rows) if any(r)]
        turned = [list(r) for r in rows]
        if nonzero:
            k = nonzero[len(nonzero) // 2]
            turned[k] = [gq(0, x) for x in rows[k]]
        assert _eliminate(turned)[2] == pivots
        assert _eliminate(rows, forward=True)[2] == _eliminate(turned, forward=True)[2] == pivots
        assert rank_complex(rows) == rank_complex(turned) == len(pivots)
        if width == 6:
            assert rank_real(rows) == len(pivots)
        assert kernel_complex(rows, width) == kernel_complex(turned, width)
        assert kernel_complex(rows, width) == [tuple(map(gq, v)) for v in kernel_real(rows, width)]


class TestInputChecks:
    def test_a_float_is_not_a_rational(self):
        with pytest.raises(TypeError, match="float"):
            _frac(1.0)
        with pytest.raises(TypeError, match="float"):
            gq(1, 0.5)

    def test_imaginary_part_given_twice(self):
        with pytest.raises(ValueError, match="given twice"):
            gq(gq(1), 1)
        assert gq(gq(1, 2), 0) == gq(1, 2)

    # The short row would be read as far as it goes, since each loop zips rows.
    RAGGED = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0]]

    @pytest.mark.parametrize(
        "call",
        [rank_complex, rank_real, lambda rows: kernel_complex(rows), lambda rows: kernel_real(rows, 6)],
        ids=["rank_complex", "rank_real", "kernel_complex", "kernel_real"],
    )
    def test_ragged_rows(self, call):
        with pytest.raises(ValueError, match="ragged"):
            call(self.RAGGED)

    @pytest.mark.parametrize("kernel", [kernel_real, kernel_complex])
    def test_wrong_width(self, kernel):
        with pytest.raises(ValueError, match="expected 5 columns"):
            kernel([[1, 0, 0, 0]], 5)

    def test_an_empty_matrix_needs_a_width(self):
        with pytest.raises(ValueError, match="width required"):
            kernel_complex([])
        assert kernel_complex([], 2) == [(GQ_ONE, GQ_ZERO), (GQ_ZERO, GQ_ONE)]


# ---------------------------------------------------------------------------
# the reduced integer triple against pairs of Fractions


def reference_str(re, im):
    """The canonical text of re + im*i, written out case by case."""
    if not im:
        return str(re)
    if im == 1:
        istr = "i"
    elif im == -1:
        istr = "-i"
    else:
        istr = f"{im}i"
    if not re:
        return istr
    sign = "+" if im > 0 else "-"
    tail = "i" if abs(im) == 1 else f"{abs(im)}i"
    return f"{re}{sign}{tail}"


REFERENCE_OPS = {
    "add": lambda a, b, c, d: (a + c, b + d),
    "sub": lambda a, b, c, d: (a - c, b - d),
    "mul": lambda a, b, c, d: (a * c - b * d, a * d + b * c),
    "div": lambda a, b, c, d: ((a * c + b * d) / (c * c + d * d), (b * c - a * d) / (c * c + d * d)),
}
OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}

pairs = st.tuples(scalars, scalars)


def parts(x):
    return (x.re, x.im)


def assert_reduced(x):
    """The stored triple (a + bi)/d is in lowest terms with d > 0."""
    a, b, d = x._a, x._b, x._d
    assert all(type(n) is int for n in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    assert parts(x) == (F(a, d), F(b, d))


@settings(max_examples=300, deadline=None)
@given(pairs, pairs, st.sampled_from(sorted(OPS)))
def test_binary_ops_match_fraction_pairs(p, q, name):
    x, y = gq(*p), gq(*q)
    if name == "div" and not any(q):
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    z = OPS[name](x, y)
    assert parts(z) == REFERENCE_OPS[name](*p, *q)
    assert_reduced(z)


@settings(max_examples=100, deadline=None)
@given(pairs, scalars, st.sampled_from(sorted(OPS)))
def test_rational_operands_on_either_side(p, r, name):
    """An int or Fraction operand acts as r + 0i, on the left as on the right."""
    x = gq(*p)
    for operand in (r, int(r)):
        if name != "div" or operand:
            assert OPS[name](x, operand) == OPS[name](x, gq(operand))
        if name != "div" or x:
            assert OPS[name](operand, x) == OPS[name](gq(operand), x)


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_unary_ops_and_conversions_match_fraction_pairs(p):
    re, im = p
    x = gq(re, im)
    assert_reduced(x)
    for z, expected in ((-x, (-re, -im)), (x.conjugate(), (re, -im))):
        assert parts(z) == expected
        assert_reduced(z)
    assert x.to_complex() == complex(re) + 1j * complex(im)
    assert str(x) == reference_str(re, im)
    assert repr(x) == f"GaussianRational(re={re!r}, im={im!r})"
    assert bool(x) == bool(re or im)
    assert gq(x.re, x.im) == x
    assert all(abs(n) <= x.height() for n in (re.numerator, re.denominator, im.numerator, im.denominator))


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_equal_values_have_equal_hashes(p, q):
    x, y = gq(*p), gq(*q)
    if y:
        same = (x * y) / y
        assert same == x and hash(same) == hash(x)
    summed = gq(p[0]) + gq(0, p[1])
    assert summed == x and hash(summed) == hash(x)
    assert (x == y) == (p == q)


def test_to_complex_overflows_like_fraction():
    with pytest.raises(OverflowError):
        float(F(10**400))
    with pytest.raises(OverflowError):
        gq(10**400).to_complex()


def test_equality_with_other_types_is_false():
    assert gq(1) != 1
    assert gq(F(1, 2)) != F(1, 2)


@pytest.mark.parametrize("name", ["re", "im", "extra"])
def test_assignment_raises(name):
    """The parts are read-only and there is no room for another attribute."""
    x = gq(1, 2)
    with pytest.raises(AttributeError):
        setattr(x, name, F(3))
    assert x == gq(1, 2)


# ---------------------------------------------------------------------------
# entry types: ints, Fractions and Gaussian rationals are read alike, floats never

ENTRY_KINDS = ("int", "fraction", "gaussian")
small_rationals = bounded_fractions(3, 2)
small_values = st.one_of(small_rationals.map(gq), st.builds(gq, small_rationals, small_rationals))


def as_entry(x, kind):
    """The Gaussian rational x as an entry of the given kind, where its value allows it."""
    if kind == "gaussian" or x.im:
        return x
    if kind == "int" and x.re.denominator == 1:
        return int(x.re)
    return x.re


def typed(rows, kinds, data):
    """rows with each entry of a kind drawn from kinds."""
    return [[as_entry(x, data.draw(st.sampled_from(kinds))) for x in r] for r in rows]


def kinds_of(kind, mixed):
    return mixed if kind == "mixed" else (kind,)


@settings(max_examples=100, deadline=None)
@given(
    matrices(small_values, width=st.just(6)),
    st.sampled_from(ENTRY_KINDS + ("mixed",)),
    st.data(),
)
def test_complex_entry_points_read_every_entry_type(rows, kind, data):
    entries = typed(rows, kinds_of(kind, ENTRY_KINDS), data)
    canonical = [[gq(x) for x in r] for r in entries]
    assert rank_complex(entries) == rank_complex(canonical)
    assert kernel_complex(entries, 6) == kernel_complex(canonical, 6)
    for size in (1, 2, 3):
        expected = dependent_subset([[r] for r in canonical], size)
        assert dependent_subset([[r] for r in entries], size) == expected


@settings(max_examples=100, deadline=None)
@given(
    matrices(small_rationals.map(gq), width=st.just(6)),
    st.sampled_from(("int", "fraction", "mixed")),
    st.data(),
)
def test_real_entry_points_read_ints_and_fractions(rows, kind, data):
    entries = typed(rows, kinds_of(kind, ("int", "fraction")), data)
    fractions = [[F(x) for x in r] for r in entries]
    canonical = [[gq(x) for x in r] for r in entries]
    assert rank_real(entries) == rank_real(fractions) == rank_complex(canonical)
    kernel = kernel_real(entries, 6)
    assert kernel == kernel_real(fractions, 6) == orthogonal_complement(entries)
    assert all(type(x) is Fraction for v in kernel for x in v)
    assert [tuple(map(gq, v)) for v in kernel] == kernel_complex(canonical, 6)


ENTRY_POINTS = {
    "rank_real": rank_real,
    "rank_complex": rank_complex,
    "kernel_real": lambda rows: kernel_real(rows, 6),
    "kernel_complex": lambda rows: kernel_complex(rows, 6),
    "orthogonal_complement": orthogonal_complement,
    "_rref": _rref,
    "dependent_subset": lambda rows: dependent_subset([[r] for r in rows], 3),
}
RATIONAL_ONLY = ("rank_real", "kernel_real", "orthogonal_complement", "_rref")


def identity_with(entry, at):
    rows = [[int(i == j) for j in range(6)] for i in range(6)]
    rows[at][at] = entry
    return rows


@pytest.mark.parametrize("at", [0, 5])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_float_entry_is_a_type_error(name, at):
    with pytest.raises(TypeError, match="float"):
        ENTRY_POINTS[name](identity_with(1.0, at))


@pytest.mark.parametrize("at", [0, 5])
@pytest.mark.parametrize("name", RATIONAL_ONLY)
def test_a_gaussian_rational_is_a_type_error_where_only_rationals_are_read(name, at):
    with pytest.raises(TypeError, match="GaussianRational"):
        ENTRY_POINTS[name](identity_with(gq(1), at))
