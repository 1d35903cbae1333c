"""Tests for exponential sums, projective constancy, and witness constructions."""

import cmath
import random
import time
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings, strategies as st

from curveavoid.arrangement import (
    RealSubspace,
    holomorphic_coefficients,
    re_part_form,
    triple_ranks,
)
from curveavoid.cli import _witness_scene
from curveavoid.curves import (
    POLY_Z,
    ConstructionError,
    ExpAffineCurve,
    _direction_groups,
    _poly_key,
    apply_form,
    constant_value,
    exp_sum,
    exp_term,
    first_constant_with_nonzero_re,
    is_nowhere_zero,
    is_projectively_constant,
    poly,
    scaled_values,
    terms_at,
    unit_exponent,
    witness_constant_projection,
    witness_degenerate_pair,
    witness_dim4_subspace,
    witness_three_hyperplanes,
)
from curveavoid.diagonals import enumerate_diagonals
from curveavoid.exact_linalg import GQ_ZERO, GaussianRational, gq, kernel_complex, rank_complex
from curveavoid.projective import ComplexHyperplane, ProjLine
from curveavoid.scene import Scene
from curveavoid.verifier import verify

from test_exact_linalg import reference_inverse

F = Fraction

STANDARD = [
    ComplexHyperplane((1, 0, 0)),
    ComplexHyperplane((0, 1, 0)),
    ComplexHyperplane((0, 0, 1)),
    ComplexHyperplane((1, 1, 1)),
]


def sum_at(s, z):
    """The value of the exponential sum s at z, term by term with cmath."""
    total = 0j
    for t in s.terms:
        exponent = sum(c.to_complex() * z**k for k, c in enumerate(t.exponent))
        total += t.coeff.to_complex() * cmath.exp(exponent)
    return total


def real_subspace(*forms):
    return RealSubspace(tuple(tuple(F(x) for x in f) for f in forms))


def gaussian(rng):
    return gq(rng.randint(-3, 3), rng.randint(-3, 3))


def nonzero_gaussian(rng):
    return next(c for c in iter(lambda: gaussian(rng), None) if c)


def standard_four_image(rng):
    """A random GL3(Q(i)) image of the standard four, or None for a singular draw.

    Returns the rows a1, a2, a3, a1 + a2 + a3 and the four hyperplanes,
    each row scaled by its own nonzero Gaussian integer.
    """
    rows = [tuple(gaussian(rng) for _ in range(3)) for _ in range(3)]
    if rank_complex(rows) < 3:
        return None
    rows.append(tuple(a + b + c for a, b, c in zip(*rows)))
    scales = [nonzero_gaussian(rng) for _ in rows]
    return rows, [ComplexHyperplane(tuple(c * x for x in row)) for c, row in zip(scales, rows)]


class TestExpSumCanonicalisation:
    def test_like_terms_merge(self):
        s = exp_sum([(1, (0, 1)), (1, (0, 1))])
        assert s == exp_sum([(2, (0, 1))])

    def test_cancellation(self):
        s = exp_sum([(1, (0, 1)), (-1, (0, 1))])
        assert not s

    def test_constant_exponents_are_distinct_terms(self):
        s = exp_sum([(1, (1,)), (1, (2,))])
        assert len(s.terms) == 2

    def test_exponent_trailing_zeros_dropped(self):
        assert exp_term(1, (2, 1, 0)) == exp_term(1, (2, 1))

    def test_sampled_cross_check_of_zero_test(self):
        """Formal zero agrees with evaluation at 20 points, formal nonzero with some."""
        rng = random.Random(11)
        zero = exp_sum([(1, (0, 1)), (2, (0, 0, 3)), (-1, (0, 1)), (-2, (0, 0, 3))])
        live = exp_sum([(1, (0, 1)), (-1, (0, 1, 1))])
        points = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
        assert not zero
        for z in points:
            assert abs(sum_at(zero, z)) <= 1e-9
        assert live
        assert any(abs(sum_at(live, z)) > 1e-9 for z in points)


class TestNowhereZero:
    def test_single_term_yes(self):
        assert is_nowhere_zero(exp_term(3, (0, 1))) == "yes"

    def test_zero_sum_no(self):
        assert is_nowhere_zero(exp_sum([])) == "no"

    def test_two_groups_no(self):
        # 1 + e^z vanishes at i pi
        assert is_nowhere_zero(exp_sum([(1, ()), (1, (0, 1))])) == "no"

    def test_one_group_of_several_terms_yes(self):
        # e^z + e^(z + 1) = (1 + e) e^z
        assert is_nowhere_zero(exp_sum([(1, (0, 1)), (1, (1, 1))])) == "yes"

    def test_nonlinear_groups_no(self):
        assert is_nowhere_zero(exp_sum([(1, (0, 0, 1)), (1, (0, 1)), (1, ())])) == "no"


def unit_form(terms):
    """P and {n: C_n} with the sum equal to e^(d0) sum C_n w^n in w = e^(P(z)), lowest n 0."""
    groups = _direction_groups(exp_sum(terms))
    found = unit_exponent(list(groups))
    if found is None:
        return None
    p, powers = found
    return p, {n - min(powers): c for n, c in zip(powers, groups.values())}


class TestUnitForm:
    def test_powers_of_the_unit(self):
        # (e^z - 2) + e^(2z) + 1 = e^(2z) (-w^2 + w + 1) with w = e^(-z)
        p, coeffs = unit_form([(-1, ()), (1, (0, 1)), (1, (0, 2))])
        assert p == (GQ_ZERO, gq(-1))
        assert coeffs == {0: exp_term(1), 1: exp_term(1), 2: exp_term(-1)}

    def test_rational_slopes_share_one_unit(self):
        # e^(z/50) + e^(z/100) - 1, with w = e^(-z/100)
        p, coeffs = unit_form([(1, (0, Fraction(1, 50))), (1, (0, Fraction(1, 100))), (-1, ())])
        assert (p, sorted(coeffs)) == ((GQ_ZERO, gq(Fraction(-1, 100))), [0, 1, 2])

    def test_common_nonlinear_direction_is_factored_out(self):
        # e^(z^2 + z + 3) - e^(z^2) = e^(z^2 + z) (e^3 - w) with w = e^(-z)
        p, coeffs = unit_form([(1, (3, 1, 1)), (-1, (0, 0, 1))])
        assert (p, coeffs) == ((GQ_ZERO, gq(-1)), {0: exp_term(1, (3,)), 1: exp_term(-1)})

    def test_directions_that_are_multiples_of_a_cube(self):
        # e^(2z^3) - e^(z^3) + 1 = e^(2z^3) (1 - w + w^2) with w = e^(-z^3)
        p, coeffs = unit_form([(1, (0, 0, 0, 2)), (-1, (0, 0, 0, 1)), (1, ())])
        assert p == (GQ_ZERO, GQ_ZERO, GQ_ZERO, gq(-1))
        assert coeffs == {0: exp_term(1), 1: exp_term(-1), 2: exp_term(1)}

    def test_exponents_with_an_offset(self):
        """A subspace pair passes its exponents, 0 first: e^(z + 1/2), e^(2z + 1) are w^-1, w^-2, w = e^(-z - 1/2)."""
        half = Fraction(1, 2)
        assert unit_exponent([(), poly((half, 1)), poly((1, 2))]) == (poly((-half, -1)), [0, -1, -2])
        # e^(2z) is e^(-1) w^2 with w = e^(z + 1/2): an offset that is no multiple of P
        assert unit_exponent([(), poly((half, 1)), poly((0, 2))]) is None

    @pytest.mark.parametrize(
        "terms",
        [
            [(1, (0, 1)), (1, (0, gq(0, 1))), (1, ())],  # slopes 1 and i
            [(1, (0, 0, 1)), (1, (0, 1)), (1, ())],  # a nonlinear difference
            [(1, (0, 1)), (1, (0, Fraction(1, 1000))), (-1, ())],  # degree 1000
        ],
    )
    def test_no_unit_form(self, terms):
        assert unit_form(terms) is None

    def test_constant_differences_have_no_unit(self):
        assert unit_exponent([(), poly((1,))]) is None


class TestConstantValue:
    def test_constant_exponents(self):
        v = constant_value(exp_sum([(1, (1,)), (-1, (gq(0, 1),))]))
        assert v is not None
        expected = exp_term(1, (1,)) + exp_term(-1, (gq(0, 1),))
        assert v == expected

    def test_nonconstant_gives_none(self):
        assert constant_value(exp_sum([(1, ()), (1, (0, 1))])) is None

    def test_real_part_certificates(self):
        # Re(i) = 0 formally; Re(i e^i) != 0 because i and -i stay distinct
        assert not exp_term(gq(0, 1)).real_part()
        assert exp_term(gq(0, 1), (gq(0, 1),)).real_part()

    def test_log_sums_terms_in_increasing_exponent(self):
        """The float sum runs over r = -3, -2, 0; the order fixes the last digits."""
        s = exp_term(1) + exp_term(1, (-2,)) + exp_term(1, (-3,))
        assert s.log() == 0.1698460195562857 + 0j


# few exponents and small coefficients, so that sums merge and cancel; the
# exponents have degree at most 2, and a top coefficient of 1 or -1 cancels
# in a product, as in e^(z + z^2) e^(-z^2)
model_offsets = st.sampled_from([gq(0), gq(1), gq(-2), gq(0, 1), gq(0, -1), gq(F(1, 2), 1)])
model_units = st.sampled_from([gq(0), gq(1), gq(-1)])
model_exponents = st.one_of(
    model_offsets.map(lambda r: (r,)),
    st.tuples(model_offsets, model_units, model_units),
)
model_coefficients = st.builds(gq, st.integers(-2, 2), st.integers(-2, 2))
model_terms = st.lists(st.tuples(model_coefficients, model_exponents), max_size=4)


def model_poly(coeffs):
    """coeffs as a tuple with its trailing zeros stripped."""
    p = list(coeffs)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def model_merge(terms):
    """sum c e^p as {p: c}: like exponents merged exactly, zero coefficients dropped."""
    merged = {}
    for c, p in terms:
        p = model_poly(p)
        merged[p] = merged.get(p, GQ_ZERO) + c
    return {p: c for p, c in merged.items() if c}


def model_product(a, b):
    """The terms of the product: c1 e^p1 times c2 e^p2 is c1 c2 e^(p1 + p2)."""
    return [
        (c1 * c2, tuple(x + y for x, y in zip_longest(p1, p2, fillvalue=GQ_ZERO)))
        for c1, p1 in a
        for c2, p2 in b
    ]


def as_model(s):
    """The terms of s as {exponent: coefficient}, after checking that they are canonical.

    Canonical: strictly increasing `_poly_key` (so distinct exponents),
    nonzero Gaussian-rational coefficients, and exponents that are tuples
    of Gaussian rationals with no trailing zero.
    """
    keys = [_poly_key(t.exponent) for t in s.terms]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    for t in s.terms:
        assert type(t.coeff) is GaussianRational and t.coeff
        assert type(t.exponent) is tuple and all(type(c) is GaussianRational for c in t.exponent)
        assert not t.exponent or t.exponent[-1]
    return {t.exponent: t.coeff for t in s.terms}


def package_sum(terms):
    acc = exp_term(0)
    for c, p in terms:
        acc = acc + exp_term(c, p)
    return acc


@settings(max_examples=200, deadline=None)
@given(model_terms, model_terms)
@example([(gq(1), (gq(0), gq(1), gq(1)))], [(gq(1), (gq(0), gq(0), gq(-1)))])
def test_constant_arithmetic_matches_a_dict_model(a, b):
    """Sums, differences and products, and real parts of formal constants, against a dict model.

    Exponents have degree at most 2, constant ones included, and every
    result's terms must be canonical (`as_model`).
    """
    x, y = package_sum(a), package_sum(b)
    negated = [(-c, p) for c, p in b]
    assert as_model(x) == model_merge(a)
    assert as_model(x + y) == model_merge(a + b)
    assert as_model(x - y) == model_merge(a + negated)
    assert as_model(x * y) == model_merge(model_product(a, b))
    assert bool(x) == bool(model_merge(a))
    # the real part of a formal constant: half of c e^r plus conj(c) e^(conj r) per term
    half = gq(F(1, 2))
    exponents = [(c, model_poly(p)) for c, p in a]
    constant = [(c, p[0] if p else GQ_ZERO) for c, p in exponents if len(p) <= 1]
    real = [t for c, r in constant for t in ((c * half, (r,)), (c.conjugate() * half, (r.conjugate(),)))]
    assert as_model(package_sum([(c, (r,)) for c, r in constant]).real_part()) == model_merge(real)


class TestProjectiveConstancy:
    def test_proportional_exponentials(self):
        f = ExpAffineCurve.from_terms((1, POLY_Z), (gq(2, 1), POLY_Z), (-3, POLY_Z))
        assert is_projectively_constant(f)

    def test_distinct_exponents_are_not_constant(self):
        f = ExpAffineCurve.from_terms((1, (0, 1)), (-1, (0, 1)), (1, (0, 2)))
        assert not is_projectively_constant(f)

    def test_constant_triple(self):
        f = ExpAffineCurve.from_terms((1, ()), (1, ()), (1, ()))
        assert is_projectively_constant(f)

    def test_zero_component_breaks_proportionality(self):
        f = ExpAffineCurve((exp_term(1, (0, 1)), exp_sum([]), exp_term(1, (0, 1))))
        assert is_projectively_constant(f)
        g = ExpAffineCurve((exp_term(1, (0, 1)), exp_sum([]), exp_term(1, (0, 2))))
        assert not is_projectively_constant(g)

    def test_multi_term_ratio(self):
        a = exp_sum([(1, (0, 1)), (2, (0, 2))])
        b = exp_sum([(3, (0, 1)), (6, (0, 2))])
        assert is_projectively_constant(ExpAffineCurve((a, b, a)))
        c = exp_sum([(3, (0, 1)), (5, (0, 2))])
        assert not is_projectively_constant(ExpAffineCurve((a, c, a)))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ExpAffineCurve((exp_sum([]), exp_sum([]), exp_sum([])))


class TestEnumeration:
    """The closed form that replaced a search over Gaussian rationals."""

    def test_first_constant_with_nonzero_re(self):
        assert first_constant_with_nonzero_re(gq(2)) == gq(0)
        assert first_constant_with_nonzero_re(gq(0, 3)) == gq(0, 1)

    def test_first_constant_with_nonzero_re_rejects_zero(self):
        """Re(0 * e^c) vanishes for every c; the enumeration used to scan forever."""
        with pytest.raises(ValueError):
            first_constant_with_nonzero_re(gq(0))


class TestWitnessConstantProjection:
    FIVE = STANDARD + [ComplexHyperplane((1, 2, 3))]

    def test_first_admissible_pair(self):
        f = witness_constant_projection(self.FIVE)
        assert f.components[0] == exp_term(1, POLY_Z)
        assert f.components[1] == exp_term(1, POLY_Z)
        assert f.components[2] == exp_term(1, POLY_Z)

    def test_all_forms_nowhere_zero(self):
        f = witness_constant_projection(self.FIVE)
        for h in self.FIVE:
            assert is_nowhere_zero(apply_form(h, f)) == "yes"

    def test_projection_constant(self):
        assert is_projectively_constant(witness_constant_projection(self.FIVE))

    def test_duplicates_deduplicated(self):
        f = witness_constant_projection(self.FIVE + [ComplexHyperplane((2, 4, 6))])
        assert f == witness_constant_projection(self.FIVE)

    def test_needs_five(self):
        with pytest.raises(ValueError):
            witness_constant_projection(STANDARD)

    def test_two_roots_per_form_push_t_to_two_m(self):
        # (t - 2k)(t - 2k - 1) rules out t = 2k and t = 2k + 1
        rows = [(2 * k * (2 * k + 1), -(4 * k + 1), 1) for k in range(5)]
        f = witness_constant_projection([gaussian_hyperplane(row) for row in rows])
        assert f == ExpAffineCurve.from_terms((1, POLY_Z), (10, POLY_Z), (100, POLY_Z))
        assert conic_parameter(f) == 10 == 2 * len(rows)
        assert_avoided_with_constant_projection(rows, f)

    def test_first_admissible_t_on_seeded_arrangements(self):
        rng = random.Random(14)
        largest = 0
        for _ in range(120):
            m = rng.randint(5, 8)
            rows = [random_conic_row(rng, 2 * m) for _ in range(m)]
            f = witness_constant_projection([gaussian_hyperplane(row) for row in rows])
            t = conic_parameter(f)
            assert f == ExpAffineCurve.from_terms((1, POLY_Z), (t, POLY_Z), (t * t, POLY_Z))
            assert all(conic_value(row, t) for row in rows)
            assert all(any(not conic_value(row, s) for row in rows) for s in range(t))
            assert t <= 2 * m
            largest = max(largest, t)
            assert_avoided_with_constant_projection(rows, f)
        assert largest >= 4


def gaussian_hyperplane(row):
    return ComplexHyperplane(tuple(gq(int(a.real), int(a.imag)) for a in map(complex, row)))


def conic_value(row, t):
    """a1 + a2 t + a3 t^2 in complex arithmetic, exact for these small Gaussian integers."""
    a1, a2, a3 = map(complex, row)
    return a1 + a2 * t + a3 * t * t


def conic_parameter(f):
    """t for a curve (e^z, t e^z, t^2 e^z), read from its second component."""
    terms = f.components[1].terms
    return int(terms[0].coeff.re) if terms else 0


def random_conic_row(rng, top):
    """A nonzero form: random Gaussian integers, or c (t - r)(t - s) or c (t - r) with small roots."""
    c = complex(rng.choice([1, -1, 2]), rng.choice([0, 0, 1]))
    r, s = rng.randint(0, top), rng.randint(0, top)
    kind = rng.randrange(3)
    if kind == 0:
        return (c * r * s, -c * (r + s), c)
    if kind == 1:
        return (-c * r, c, 0)
    row = [complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
    return tuple(row) if any(row) else (1, 0, 0)


def assert_avoided_with_constant_projection(rows, f):
    named = [(f"H{n}", gaussian_hyperplane(row)) for n, row in enumerate(rows, 1)]
    report = verify(f, _witness_scene(named, []))
    assert {(r.method, r.verdict) for r in report.results} == {("exact", "avoided")}
    assert report.projection_constant


class TestNormalizeFour:
    """The four lines standardise only when no three of them meet."""

    def test_gp_violation_reported(self):
        bad = STANDARD[:3] + [ComplexHyperplane((1, 1, 0))]
        with pytest.raises(ValueError, match="1, 2, 4"):
            witness_dim4_subspace(bad)


class TestWitnessDim4:
    def test_standard_output(self):
        subspace, curve = witness_dim4_subspace(STANDARD)
        assert subspace == real_subspace((1, 0, -1, 0, 0, 0), (1, 0, 0, 0, -1, 0))
        assert curve.components[0] == exp_term(1, POLY_Z)
        assert curve.components[1] == exp_term(-1, POLY_Z)
        assert curve.components[2] == exp_term(1, (0, 2))

    def test_projection_not_constant(self):
        _, curve = witness_dim4_subspace(STANDARD)
        assert not is_projectively_constant(curve)

    def test_scaled_coordinates_pull_back(self):
        """With H4: z1 + 2 z2 + 3 z3, the curve picks up exact reciprocals."""
        hs = STANDARD[:3] + [ComplexHyperplane((1, 2, 3))]
        subspace, curve = witness_dim4_subspace(hs)
        assert curve.components[0] == exp_term(1, POLY_Z)
        assert curve.components[1] == exp_term(F(-1, 2), POLY_Z)
        assert curve.components[2] == exp_term(F(1, 3), (0, 2))
        for h in hs:
            assert is_nowhere_zero(apply_form(h, curve)) == "yes"
        # the pulled-back subspace evaluates the normalised forms
        assert subspace == real_subspace(
            (1, 0, -2, 0, 0, 0), (1, 0, 0, 0, -3, 0)
        )

    def test_matches_the_pullback_on_random_arrangements(self):
        """On random images of the standard four, the witness is the standard pair pulled back.

        The reference standardises the lines as w = M z, with a4 = sum of
        lambda_i a_i and row i of M equal to lambda_i a_i, and pulls back
        g = (e^z, -e^z, e^(2z)) through M^-1 and the forms w1 - w2, w1 - w3
        through M.  The curve lies on the diagonal 1,2 | 3,4.
        """
        rng = random.Random(2019)
        checked = 0
        for _ in range(150):
            image = standard_four_image(rng)
            if image is None:
                continue
            _, hyperplanes = image
            a = [h.coefficients for h in hyperplanes]
            (mu,) = kernel_complex([[row[j] for row in (a[3], *a[:3])] for j in range(3)])
            matrix = [tuple(-m * x for x in row) for m, row in zip(mu[1:], a[:3])]
            inverse = reference_inverse(matrix)
            expected_curve = ExpAffineCurve(
                tuple(exp_term(r[0] - r[1], POLY_Z) + exp_term(r[2], (0, 2)) for r in inverse)
            )
            expected_forms = tuple(
                re_part_form([x - y for x, y in zip(matrix[0], matrix[k])]) for k in (1, 2)
            )
            subspace, curve = witness_dim4_subspace(hyperplanes)
            assert curve == expected_curve
            assert subspace == RealSubspace(expected_forms)
            (diagonal,) = [d for d in enumerate_diagonals(hyperplanes) if d.partition.left == (1, 2)]
            assert not apply_form(diagonal.form.coefficients, curve)
            checked += 1
        assert checked >= 100

    def test_forms_never_vanish_together_on_samples(self):
        """Where Re(e^z) is small, Re(e^2z) is negative and bounded away."""
        subspace, curve = witness_dim4_subspace(STANDARD)
        rows = [holomorphic_coefficients(f) for f in subspace.forms]
        rng = random.Random(3)
        for _ in range(500):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            values = [
                sum(
                    (c.to_complex() * sum_at(comp, z))
                    for c, comp in zip(row, curve.components)
                ).real
                for row in rows
            ]
            assert max(abs(v) for v in values) > 1e-12


class TestWitnessDegeneratePair:
    def test_tied_difference_variant(self):
        """H: x1 - x2 = 0 ties the first two components at a constant."""
        s = real_subspace((1, 0, -1, 0, 0, 0))
        curve = witness_degenerate_pair(STANDARD, s, (1, 2))
        assert curve.components[0] == exp_term(1, ())
        assert curve.components[1] == exp_term(-1, ())
        assert curve.components[2] == exp_term(1, POLY_Z)
        value = constant_value(apply_form(holomorphic_coefficients(s.forms[0]), curve))
        assert value == exp_term(2)

    def test_free_component_variant(self):
        """H: x3 = 0 pairs with (3, 4); the tied pair is (1, 2), free z3 constant."""
        s = real_subspace((0, 0, 0, 0, 1, 0))
        ranks = {t.pair: t.rank for t in triple_ranks(STANDARD, s)}
        assert ranks[(3, 4)] < 6
        curve = witness_degenerate_pair(STANDARD, s, (3, 4))
        assert curve.components[0] == exp_term(1, POLY_Z)
        assert curve.components[1] == exp_term(-1, POLY_Z)
        assert curve.components[2] == exp_term(1, ())
        assert not is_projectively_constant(curve)

    def test_coordinate_subspace(self):
        s = real_subspace((1, 0, 0, 0, 0, 0))
        curve = witness_degenerate_pair(STANDARD, s, (1, 2))
        value = constant_value(apply_form(holomorphic_coefficients(s.forms[0]), curve))
        assert value is not None and value.real_part()

    def test_obstructed_diagonal_raises(self):
        """H~ = {z1 + z2 = 0} forces the form to vanish on every diagonal."""
        s = real_subspace((1, 0, 1, 0, 0, 0))
        with pytest.raises(ConstructionError, match="construction failed"):
            witness_degenerate_pair(STANDARD, s, (1, 2))

    def test_hyperplanes_of_cp3_rejected(self):
        """Like its sibling constructions, it names the dimension before any elimination."""
        hs = [ComplexHyperplane(c) for c in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1))]
        with pytest.raises(ValueError, match=r"hyperplanes live in C\^3"):
            witness_dim4_subspace(hs)
        with pytest.raises(ValueError, match=r"hyperplanes live in C\^3"):
            witness_degenerate_pair(hs, real_subspace((1, 0, 0, 0, 0, 0)), (1, 2))

    def test_transverse_pair_rejected(self):
        s = real_subspace((1, 0, 2, 0, 3, 0))
        with pytest.raises(ValueError, match="general position"):
            witness_degenerate_pair(STANDARD, s, (1, 2))

    def test_avoidance_in_scaled_coordinates(self):
        """The same construction works after an exact coordinate change."""
        hs = STANDARD[:3] + [ComplexHyperplane((1, 2, 3))]
        # H~ = {z1 - 2 z2 = 0} has normalised coefficients (1, -1, 0)
        s = real_subspace((1, 0, -2, 0, 0, 0))
        ranks = {t.pair: t.rank for t in triple_ranks(hs, s)}
        assert ranks[(1, 2)] < 6
        curve = witness_degenerate_pair(hs, s, (1, 2))
        for h in hs:
            assert is_nowhere_zero(apply_form(h, curve)) == "yes"
        value = constant_value(apply_form(holomorphic_coefficients(s.forms[0]), curve))
        assert value is not None and value.real_part()
        assert not is_projectively_constant(curve)

    def test_fails_exactly_when_the_form_is_its_diagonal(self):
        """Random GL3(Q(i)) images of the standard four, with deficient forms by construction.

        alpha is s a_j + t a_k, a multiple of a diagonal line's form, or
        random.  For each deficient pair (j, k) the construction fails
        exactly when H~ is the diagonal whose partition has {j, k} as a
        block; otherwise its curve lies on that diagonal and is verified
        exactly.
        """
        rng = random.Random(1975)
        outcomes = {"raised": 0, "witnessed": 0}
        started = time.perf_counter()
        for _ in range(150):
            image = standard_four_image(rng)
            if image is None:
                continue
            rows, hyperplanes = image
            diagonals = enumerate_diagonals(hyperplanes)
            kind = rng.randrange(3)
            if kind == 0:
                j, k = rng.sample(range(4), 2)
                c_j, c_k = gaussian(rng), gaussian(rng)
                alpha = tuple(c_j * x + c_k * y for x, y in zip(rows[j], rows[k]))
            elif kind == 1:
                c = nonzero_gaussian(rng)
                alpha = tuple(c * x for x in rng.choice(diagonals).form.coefficients)
            else:
                alpha = tuple(gaussian(rng) for _ in range(3))
            if not any(alpha):
                continue
            s = RealSubspace((re_part_form(alpha),))
            scene = Scene(
                hyperplanes={f"H{i + 1}": h for i, h in enumerate(hyperplanes)},
                reals={"S": s},
                curves={},
                order=tuple(("hyperplane", f"H{i + 1}") for i in range(4)) + (("real", "S"),),
            )
            for t in triple_ranks(hyperplanes, s):
                if t.rank == 6:
                    continue
                (diagonal,) = [d for d in diagonals if t.pair in (d.partition.left, d.partition.right)]
                if ProjLine(holomorphic_coefficients(s.forms[0])) == diagonal.form:
                    with pytest.raises(ConstructionError, match="construction failed"):
                        witness_degenerate_pair(hyperplanes, s, t.pair)
                    outcomes["raised"] += 1
                    continue
                curve = witness_degenerate_pair(hyperplanes, s, t.pair)
                assert not apply_form(diagonal.form.coefficients, curve)
                report = verify(curve, scene)
                assert report.all_avoided()
                assert all(r.method == "exact" for r in report.results)
                assert not report.projection_constant
                outcomes["witnessed"] += 1
        assert time.perf_counter() - started < 2.0
        assert min(outcomes.values()) >= 20, outcomes


class TestWitnessThreeHyperplanes:
    SUBSPACE = RealSubspace(((F(1), F(0), F(1), F(0), F(1), F(0)),))

    def test_curve_and_constant_form(self):
        curve = witness_three_hyperplanes(STANDARD[:3], self.SUBSPACE)
        assert curve.components[0] == exp_term(1, ())
        assert curve.components[1] == exp_term(1, POLY_Z)
        assert curve.components[2] == exp_term(-1, POLY_Z)
        s = apply_form(holomorphic_coefficients(self.SUBSPACE.forms[0]), curve)
        assert s == exp_term(1, ())

    def test_hyperplane_checks(self):
        curve = witness_three_hyperplanes(STANDARD[:3], self.SUBSPACE)
        for h in STANDARD[:3]:
            assert is_nowhere_zero(apply_form(h, curve)) == "yes"
        assert not is_projectively_constant(curve)

    def test_other_configurations_rejected(self):
        with pytest.raises(ValueError):
            witness_three_hyperplanes(STANDARD[:3], real_subspace((1, 0, 0, 0, 0, 0)))
        with pytest.raises(ValueError):
            witness_three_hyperplanes(
                [STANDARD[0], STANDARD[1], STANDARD[3]], self.SUBSPACE
            )


class TestEvaluation:
    def test_evaluate_sum(self):
        """The package's one evaluator: `terms_at` and `scaled_values` give s(z) e^(-top)."""
        s = exp_sum([(1, ()), (2, (0, 1))])
        for z, top in ((complex(0.3, -1.2), 0), (complex(600, 1), 512)):
            expected = cmath.exp(-top) + 2 * cmath.exp(z - top)
            assert scaled_values([terms_at(s, z)])[0] == top
            assert abs(scaled_values([terms_at(s, z)])[1][0] - expected) <= 1e-12 * abs(expected)

    def test_apply_form_matches_componentwise_evaluation(self):
        curve = ExpAffineCurve.from_terms((1, (0, 1)), (-1, (0, 1)), (1, (0, 2)))
        h = ComplexHyperplane((1, gq(0, 1), 2))
        s = apply_form(h, curve)
        z = complex(0.7, 0.4)
        direct = sum(
            c.to_complex() * sum_at(comp, z)
            for c, comp in zip(h.coefficients, curve.components)
        )
        assert abs(sum_at(s, z) - direct) < 1e-12

    @pytest.mark.parametrize("bad", [complex("nan"), complex(0, float("nan"))])
    def test_scaled_values_rejects_a_nonfinite_exponent_after_a_finite_one(self, bad):
        """max() skips a NaN that is not first, so every exponent is checked itself."""
        with pytest.raises(ValueError, match="beyond the float range"):
            scaled_values([[(1, 0j)], [(1, 2 + 0j), (1, bad)]])


CP3 = [ComplexHyperplane(tuple(int(j == k) for j in range(4))) for k in range(4)]  # the coordinate planes of CP^3
REAL_HYPERPLANE = RealSubspace(((1, 0, 0, 0, 0, 0),))
DIM4 = RealSubspace(((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)))

# each argument check, with the message it raises
INVALID = [
    (
        lambda: apply_form((1, 0), ExpAffineCurve.from_terms((1, POLY_Z), (1, ()), (1, ()))),
        "forms on C^3 have 3 coefficients",
    ),
    (lambda: witness_constant_projection([*CP3, ComplexHyperplane((1, 1, 1, 1))]), "hyperplanes live in C^3"),
    (lambda: witness_dim4_subspace(STANDARD[:3]), "exactly four hyperplanes are required"),
    (lambda: witness_degenerate_pair(STANDARD, DIM4, (1, 2)), "a real hyperplane is required"),
    (
        lambda: witness_degenerate_pair(STANDARD, REAL_HYPERPLANE, (2, 1)),
        "pair indices must satisfy 1 <= j < k <= 4",
    ),
    (
        lambda: witness_degenerate_pair(STANDARD[:3], REAL_HYPERPLANE, (1, 2)),
        "exactly four hyperplanes are required",
    ),
]


@pytest.mark.parametrize("call, message", INVALID, ids=[m for _, m in INVALID])
def test_invalid_input_names_its_fault(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


CONCURRENT = [ComplexHyperplane(a) for a in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))]  # scenes/concurrent.scene


@pytest.mark.parametrize(
    "hyperplanes, message",
    [(CP3, "hyperplanes live in C^3"), (CONCURRENT, "hyperplanes 1, 2, 3 are not in general position")],
    ids=["C^3", "general-position"],
)
@pytest.mark.parametrize(
    "witness",
    [witness_dim4_subspace, lambda hyperplanes: witness_degenerate_pair(hyperplanes, REAL_HYPERPLANE, (1, 2))],
    ids=["dim4", "degenerate-pair"],
)
def test_both_diagonal_witnesses_check_the_four_hyperplanes_alike(witness, hyperplanes, message):
    """The width and general-position checks that both witnesses share, with their messages."""
    with pytest.raises(ValueError) as info:
        witness(hyperplanes)
    assert str(info.value) == message
