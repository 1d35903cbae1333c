"""Tests for realification, general position, and the rank classifier."""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from curveavoid.arrangement import (
    ALL_CURVES_CONSTANT,
    WITNESS_EXISTS,
    RealSubspace,
    classify,
    collapse_real_form,
    extract_complex_hyperplane,
    holomorphic_coefficients,
    re_part_form,
    realify,
    triple_in_general_position,
    triple_ranks,
)
from curveavoid.curves import ConstructionError
from curveavoid.exact_linalg import GQ_ZERO, gq, rank_complex, rank_real
from curveavoid import projective
from curveavoid.projective import ComplexHyperplane
from curveavoid.scene import parse_scene

F = Fraction
SCENES = Path(__file__).resolve().parent.parent / "scenes"

STANDARD = (
    ComplexHyperplane((1, 0, 0)),
    ComplexHyperplane((0, 1, 0)),
    ComplexHyperplane((0, 0, 1)),
    ComplexHyperplane((1, 1, 1)),
)


def real_subspace(*forms):
    return RealSubspace(tuple(tuple(F(x) for x in f) for f in forms))


class TestRealSubspace:
    def test_dimension(self):
        s = real_subspace((1, 0, 0, 0, 0, 0))
        assert s.dimension == 5
        t = real_subspace((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))
        assert t.dimension == 4

    def test_forms_are_canonicalised(self):
        a = real_subspace((1, 0, -1, 0, 0, 0), (1, 0, 0, 0, -1, 0))
        b = real_subspace((1, 0, 0, 0, -1, 0), (0, 0, 1, 0, -1, 0))
        assert a == b

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            real_subspace((0, 0, 0, 0, 0, 0))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            real_subspace((1, 0, 0))

    def test_contains(self):
        big = real_subspace((1, 0, 0, 0, 0, 0))
        small = real_subspace((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))
        assert big.contains(small)
        assert not small.contains(big)


class TestRealify:
    def test_real_coefficients(self):
        # z1 - z2 = 0 splits into x1 - x2 = 0 and y1 - y2 = 0
        s = realify(ComplexHyperplane((1, -1, 0)))
        assert s == real_subspace((1, 0, -1, 0, 0, 0), (0, 1, 0, -1, 0, 0))

    def test_imaginary_coefficient(self):
        # i*z2: real part is -y2, imaginary part is x2
        s = realify(ComplexHyperplane((1, gq(0, 1), 0)))
        assert s == real_subspace((1, 0, 0, -1, 0, 0), (0, 1, 1, 0, 0, 0))

    def test_dimension_four(self):
        assert realify(ComplexHyperplane((2, 3, gq(1, 1)))).dimension == 4

    def test_holomorphic_coefficients_roundtrip(self):
        h = ComplexHyperplane((gq(1, 2), gq(-3), gq(0, F(1, 2))))
        re_form = realify(h).forms[0]
        # canonicalisation rescales; compare as hyperplane classes
        assert ComplexHyperplane(holomorphic_coefficients(re_form)) == h


class TestGeneralPosition:
    def test_standard_family(self):
        family = [realify(h) for h in STANDARD]
        assert all(triple_in_general_position(*triple) for triple in combinations(family, 3))

    def test_coincident_pair_fails(self):
        family = [realify(h) for h in STANDARD[:2]]
        family.append(realify(ComplexHyperplane((1, 1, 0))))
        # H3 = {z1 + z2 = 0} passes through H1 cap H2
        assert not triple_in_general_position(*family)

    def test_triple_wants_codimension_two(self):
        with pytest.raises(ValueError):
            triple_in_general_position(
                realify(STANDARD[0]),
                realify(STANDARD[1]),
                real_subspace((1, 0, 0, 0, 0, 0)),
            )

    def test_mixed_pair_subspace(self):
        """A dim-4 subspace spanned by two real forms joins the family."""
        s = real_subspace((1, 0, -1, 0, 0, 0), (0, 0, 0, 1, 0, -1))
        assert triple_in_general_position(realify(STANDARD[0]), realify(STANDARD[2]), s)

    def test_x_only_subspace_is_never_transverse_to_realified_pairs(self):
        """The subspace {x1=x2, x1=x3} fails general position with every pair.

        Its complement contains no y-directions, while a pair of realified
        hyperplanes contributes at most two independent y-forms, so the six
        stacked forms always have rank 5.
        """
        s = real_subspace((1, 0, -1, 0, 0, 0), (1, 0, 0, 0, -1, 0))
        for a, b in combinations(STANDARD, 2):
            stacked = list(s.forms) + list(realify(a).forms) + list(realify(b).forms)
            assert rank_real(stacked) == 5
            assert not triple_in_general_position(s, realify(a), realify(b))


def random_rational_form(rng, width=6):
    return tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(width))


def random_codim2(rng, earlier):
    """A codimension-2 subspace: a realified hyperplane, two random forms, or dependent on `earlier`.

    A dependent draw combines the forms of the earlier members, so it is
    never in general position with them; a realified one combines their
    complex forms when they are realified hyperplanes too.
    """
    while True:
        kind = rng.choice(["realified", "two-form", "dependent"][: 3 if earlier else 2])
        if kind == "realified":
            rows = [h.coefficients for h in earlier if isinstance(h, ComplexHyperplane)]
            if rows and rng.random() < 0.3:
                coeffs = [gq(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in rows]
                v = tuple(sum((c * r[j] for c, r in zip(coeffs, rows)), GQ_ZERO) for j in range(3))
            else:
                v = tuple(gq(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3))
            if any(v):
                return ComplexHyperplane(v)
            continue
        if kind == "two-form":
            forms = [random_rational_form(rng) for _ in range(2)]
        else:
            rows = [f for s in earlier for f in as_subspace(s).forms]
            forms = [
                tuple(sum(rng.randint(-2, 2) * r[j] for r in rows) for j in range(6))
                for _ in range(2)
            ]
        if rank_real(forms) == 2:
            return RealSubspace(tuple(forms))


def as_subspace(member):
    return realify(member) if isinstance(member, ComplexHyperplane) else member


@pytest.mark.parametrize("seed", range(4))
def test_triple_in_general_position_matches_the_stacked_real_rank(seed):
    """Seeded codimension-2 triples against the oracle rank_real(six stacked forms) == 6."""
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(60):
        members = []
        for _ in range(3):
            members.append(random_codim2(rng, members))
        triple = [as_subspace(m) for m in members]
        expected = rank_real([f for s in triple for f in s.forms]) == 6
        assert triple_in_general_position(*triple) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", range(4))
def test_contains_matches_the_stacked_real_rank(seed):
    """Seeded subspaces, some built inside another, against rank_real of the stacked forms."""
    rng = random.Random(100 + seed)
    outcomes = set()
    for _ in range(60):
        big_forms = [random_rational_form(rng) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            small_forms = big_forms + [random_rational_form(rng) for _ in range(rng.randint(0, 2))]
        else:
            small_forms = [random_rational_form(rng) for _ in range(rng.randint(1, 4))]
        if not rank_real(big_forms) or not rank_real(small_forms):
            continue
        big, small = RealSubspace(tuple(big_forms)), RealSubspace(tuple(small_forms))
        expected = rank_real(list(big.forms) + list(small.forms)) == len(small.forms)
        assert big.contains(small) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


class TestExtraction:
    def test_sum_form(self):
        s = real_subspace((1, 0, 1, 0, 1, 0))
        assert extract_complex_hyperplane(s) == ComplexHyperplane((1, 1, 1))

    def test_mixed_form(self):
        # x1 - y2 = 0 contains {z1 + i z2 = 0}
        s = real_subspace((1, 0, 0, -1, 0, 0))
        assert extract_complex_hyperplane(s) == ComplexHyperplane((1, gq(0, 1), 0))
        assert s.contains(realify(extract_complex_hyperplane(s)))

    def test_needs_dimension_five(self):
        with pytest.raises(ValueError):
            extract_complex_hyperplane(real_subspace((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)))

    def test_uniqueness_over_a_coefficient_grid(self):
        """No other hyperplane from a small grid embeds into the subspace.

        The subspaces are built to contain a known hyperplane; the grid sweep
        is a falsification attempt against uniqueness.
        """
        from itertools import product

        grid_values = (gq(0), gq(1), gq(-1), gq(0, 1), gq(0, -1))
        candidates = [
            ComplexHyperplane(c)
            for c in product(grid_values, repeat=3)
            if any(c)
        ]
        rng = random.Random(13)
        for _ in range(10):
            planted = candidates[rng.randrange(len(candidates))]
            re_row, im_row = realify(planted).forms
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if (a, b) == (0, 0):
                a = 1
            form = tuple(F(a) * x + F(b) * y for x, y in zip(re_row, im_row))
            s = RealSubspace((form,))
            assert extract_complex_hyperplane(s) == planted
            embedded = [k for k in candidates if s.contains(realify(k))]
            assert all(k == planted for k in embedded)


class TestCollapse:
    def test_restriction_to_plane(self):
        """Restricting x1 + 2 x2 along w -> (w, i w, 0) gives x - 2y."""
        s = real_subspace((1, 0, 2, 0, 0, 0))
        c = collapse_real_form(s, gq(0, 1), 0)
        assert (c.a, c.b) == (F(1), F(-2))
        assert c.evaluate(1, 0) == 1
        assert c.evaluate(0, 1) == -2

    def test_identity_plane(self):
        s = real_subspace((0, 1, 0, 0, 0, 0))
        c = collapse_real_form(s, 1, 1)
        assert (c.a, c.b) == (F(0), F(1))

    def test_exact_against_direct_expansion(self):
        s = real_subspace((2, -1, F(1, 3), 5, 0, 7))
        c2, c3 = gq(F(1, 2), -2), gq(3, F(2, 5))
        collapsed = collapse_real_form(s, c2, c3)
        w = gq(F(-4, 3), F(7, 2))
        z2, z3 = c2 * w, c3 * w
        direct = sum(
            coeff * part
            for coeff, part in zip(
                s.forms[0], (w.re, w.im, z2.re, z2.im, z3.re, z3.im)
            )
        )
        assert collapsed.evaluate(w.re, w.im) == direct

    def test_zero_set_dichotomy(self):
        """The zero set in the (Re w, Im w) plane is a line or everything."""
        # y3 restricted along (w, 0, 0) vanishes identically
        everything = collapse_real_form(real_subspace((0, 0, 0, 0, 0, 1)), 0, 0)
        assert (everything.a, everything.b) == (0, 0)
        assert everything.evaluate(F(5, 7), -3) == 0

        line = collapse_real_form(real_subspace((1, 0, 2, 0, 0, 0)), gq(0, 1), 0)
        assert (line.a, line.b) != (0, 0)
        for re_w, im_w in ((0, 0), (1, 1), (-2, 3), (F(1, 2), F(5, 4)), (2, 1)):
            on_line = (re_w, im_w) in ((0, 0), (2, 1))
            assert (line.evaluate(re_w, im_w) == 0) == on_line


class TestClassifier:
    def test_all_triples_transverse(self):
        s = real_subspace((1, 0, 2, 0, 3, 0))
        verdict = classify(list(STANDARD), s)
        assert verdict.tag == ALL_CURVES_CONSTANT
        assert verdict.witness is None
        assert all(t.rank == 6 for t in verdict.evidence)
        assert [t.pair for t in verdict.evidence] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_degenerate_pair_produces_witness(self):
        s = real_subspace((1, 0, -1, 0, 0, 0))
        verdict = classify(list(STANDARD), s)
        assert verdict.tag == WITNESS_EXISTS
        assert verdict.witness is not None
        ranks = {t.pair: t.rank for t in verdict.evidence}
        assert ranks[(1, 2)] == 4
        assert all(ranks[p] == 6 for p in ranks if p != (1, 2))

    def test_coordinate_plane_degenerates_with_three_pairs(self):
        s = real_subspace((1, 0, 0, 0, 0, 0))
        ranks = {t.pair: t.rank for t in triple_ranks(list(STANDARD), s)}
        degenerate = {p for p, r in ranks.items() if r < 6}
        assert degenerate == {(1, 2), (1, 3), (1, 4)}

    def test_obstructed_configuration_raises(self):
        s = real_subspace((1, 0, 1, 0, 0, 0))
        with pytest.raises(ConstructionError):
            classify(list(STANDARD), s)

    def test_rejects_wrong_counts(self):
        s = real_subspace((1, 0, 2, 0, 3, 0))
        with pytest.raises(ValueError):
            classify(list(STANDARD[:3]), s)
        with pytest.raises(ValueError):
            classify(list(STANDARD), real_subspace((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)))
        with pytest.raises(ValueError):
            classify([STANDARD[0]] * 4, s)

    @pytest.mark.parametrize("form", [(1, 0, 2, 0, 3, 0), (1, 0, 1, 0, 0, 0)])
    def test_rejects_hyperplanes_not_in_general_position(self, form):
        """z1, z2, z1 + z2 meet in a line; with x1 + 2 x2 + 3 x3 every triple rank is 6."""
        concurrent = [STANDARD[0], STANDARD[1], ComplexHyperplane((1, 1, 0)), STANDARD[2]]
        with pytest.raises(ValueError, match="hyperplanes 1, 2, 3 are not in general position"):
            classify(concurrent, real_subspace(form))

    def test_checks_general_position_once(self, monkeypatch):
        """On the witness path the one general-position pass is `witness_degenerate_pair`'s."""
        calls = []
        counted = projective.dependent_subset

        def counting(*args):
            calls.append(args)
            return counted(*args)

        monkeypatch.setattr(projective, "dependent_subset", counting)
        scene = parse_scene((SCENES / "degenerate.scene").read_text())
        hyperplanes = [scene.hyperplanes[n] for kind, n in scene.order if kind == "hyperplane"]
        assert classify(hyperplanes, scene.reals["S"]).tag == WITNESS_EXISTS
        assert len(calls) == 1


PAIRS = list(combinations(range(4), 2))
small_gaussians = st.builds(
    lambda re, im, d: gq(F(re, d), F(im, d)),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(1, 3),
)
complex_vectors = st.tuples(small_gaussians, small_gaussians, small_gaussians)


@st.composite
def arrangements(draw):
    """Four hyperplanes and a real hyperplane, after a random change of coordinates.

    Half of the draws are rank-deficient by construction: the complex form
    alpha inside the real hyperplane is s a_j + t a_k.  The coordinate change
    z = M w with M in GL3(Q(i)) maps each form a to a M and keeps every rank.
    """
    rows = draw(st.lists(complex_vectors, min_size=4, max_size=4))
    deficient = draw(st.one_of(st.none(), st.sampled_from(PAIRS)))
    if deficient is None:
        alpha = draw(complex_vectors)
    else:
        s, t = draw(small_gaussians), draw(small_gaussians)
        j, k = deficient
        alpha = tuple(s * x + t * y for x, y in zip(rows[j], rows[k]))
    m = draw(st.tuples(complex_vectors, complex_vectors, complex_vectors))
    assume(rank_complex(m) == 3)

    def change(v):
        return tuple(sum((v[i] * m[i][c] for i in range(3)), GQ_ZERO) for c in range(3))

    alpha = change(alpha)
    assume(any(alpha) and all(any(r) for r in rows))
    hyperplanes = [ComplexHyperplane(change(r)) for r in rows]
    assume(len(set(hyperplanes)) == 4)
    return hyperplanes, RealSubspace((re_part_form(alpha),)), deficient


def realified_rank(s, a, b):
    """The reference: real rank of the six stacked realified forms."""
    ht = realify(extract_complex_hyperplane(s))
    return rank_real(list(ht.forms) + list(realify(a).forms) + list(realify(b).forms))


@settings(max_examples=200, deadline=None)
@given(arrangements())
def test_triple_ranks_equal_the_realified_rank(case):
    hyperplanes, s, deficient = case
    ranks = triple_ranks(hyperplanes, s)
    assert [t.pair for t in ranks] == [(j + 1, k + 1) for j, k in PAIRS]
    assert [t.rank for t in ranks] == [
        realified_rank(s, hyperplanes[j], hyperplanes[k]) for j, k in PAIRS
    ]
    if deficient is not None:
        assert ranks[PAIRS.index(deficient)].rank == 4


def test_realify_stacks_two_real_part_forms():
    h = ComplexHyperplane((gq(1, 2), gq(-3), gq(0, F(1, 2))))
    assert realify(h) == RealSubspace(
        (re_part_form(h.coefficients), re_part_form([gq(0, -1) * c for c in h.coefficients]))
    )
    assert re_part_form(h.coefficients) == (1, -2, -3, 0, 0, F(-1, 2))
