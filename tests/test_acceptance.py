"""Acceptance suite.

One test per shipped guarantee, in the numbered order the package promises
them.  Each body runs under an explicit wall-clock budget, every expected
value is exact or cross-checked against arithmetic implemented right here,
independently of the package's own linear algebra.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from curveavoid.arrangement import (
    ALL_CURVES_CONSTANT,
    WITNESS_EXISTS,
    RealSubspace,
    classify,
    collapse_real_form,
    extract_complex_hyperplane,
    holomorphic_coefficients,
    realify,
    triple_ranks,
)
from curveavoid.cli import _witness_scene
from curveavoid.curves import (
    POLY_Z,
    POLY_ZERO,
    ConstructionError,
    ExpAffineCurve,
    apply_form,
    exp_term,
    is_nowhere_zero,
    is_projectively_constant,
    poly,
    witness_constant_projection,
    witness_dim4_subspace,
    witness_three_hyperplanes,
)
from curveavoid.diagonals import enumerate_diagonals
from curveavoid.exact_linalg import (
    GQ_I,
    GQ_ZERO,
    gq,
    kernel_complex,
    kernel_real,
    orthogonal_complement,
    rank_complex,
    rank_real,
)
from curveavoid.projective import ComplexHyperplane, ProjLine, incident
from curveavoid.scene import Scene, format_scene, parse_scene
from curveavoid.verifier import SamplingPlan, verify

from test_scene import CORPUS

F = Fraction

STANDARD4 = (
    ComplexHyperplane((1, 0, 0)),
    ComplexHyperplane((0, 1, 0)),
    ComplexHyperplane((0, 0, 1)),
    ComplexHyperplane((1, 1, 1)),
)
STANDARD3 = STANDARD4[:3]

DIM4_SUBSPACE_SCENE = """
hyperplane H1: z1 = 0
hyperplane H2: z2 = 0
hyperplane H3: z3 = 0
hyperplane H4: z1 + z2 + z3 = 0
real H: x1 - x2 = 0; x1 - x3 = 0
curve f: (exp(z), -exp(z), exp(2*z))
"""


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"done in {elapsed:.3f}s (budget {seconds:.0f}s)")
    assert elapsed < seconds


# ---------------------------------------------------------------------------
# Independent exact arithmetic, used only by this file.  Complex numbers are
# (re, im) pairs of Fractions; nothing below calls the package's linalgebra.

def _cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _csub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _det3(m):
    def minor(r1, r2, c1, c2):
        return _csub(_cmul(m[r1][c1], m[r2][c2]), _cmul(m[r1][c2], m[r2][c1]))

    total = _cmul(m[0][0], minor(1, 2, 1, 2))
    total = _csub(total, _cmul(m[0][1], minor(1, 2, 0, 2)))
    return _csub(total, _cmul(m[0][2], _csub(_cmul(m[1][0], m[2][1]), _cmul(m[1][1], m[2][0]))))


def _independent_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _two_real_rows(pairs):
    """Realify a complex form given as three (re, im) coefficient pairs."""
    re_row, im_row = [], []
    for al, be in pairs:
        re_row += [al, -be]
        im_row += [be, al]
    return [re_row, im_row]


def _independent_triple_ranks(hyperplane_pairs, s_form):
    inner = _two_real_rows([(s_form[2 * j], -s_form[2 * j + 1]) for j in range(3)])
    out = {}
    for j, k in combinations(range(4), 2):
        rows = (
            inner
            + _two_real_rows(hyperplane_pairs[j])
            + _two_real_rows(hyperplane_pairs[k])
        )
        out[(j + 1, k + 1)] = _independent_rank(rows)
    return out


STANDARD4_PAIRS = [
    [(F(1), F(0)), (F(0), F(0)), (F(0), F(0))],
    [(F(0), F(0)), (F(1), F(0)), (F(0), F(0))],
    [(F(0), F(0)), (F(0), F(0)), (F(1), F(0))],
    [(F(1), F(0)), (F(1), F(0)), (F(1), F(0))],
]


def _random_nonzero_form(rng, count, denominator=3):
    while True:
        values = tuple(
            F(rng.randint(-3, 3), rng.randint(1, denominator)) for _ in range(count)
        )
        if any(values):
            return values


def _random_gp_hyperplane_pairs(rng):
    while True:
        pairs = [
            [(F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for _ in range(3)]
            for _ in range(4)
        ]
        if any(all(p == (0, 0) for p in hp) for hp in pairs):
            continue
        triples = combinations(range(4), 3)
        if all(_det3([pairs[i] for i in t]) != (0, 0) for t in triples):
            return pairs


def _assert_witness_verifies(hyperplanes, subspace, witness):
    named = [(f"H{i + 1}", h) for i, h in enumerate(hyperplanes)]
    report = verify(witness, _witness_scene(named, [("S", subspace)]))
    assert report.all_avoided()
    assert all(r.method == "exact" for r in report.results)
    assert not report.projection_constant


# ---------------------------------------------------------------------------


def test_criterion_1_diagonal_count():
    with budget(1.0):
        diagonals = enumerate_diagonals(STANDARD4)
        assert len(diagonals) == 3
        assert {d.form for d in diagonals} == {
            ProjLine((1, 1, 0)),
            ProjLine((0, 1, 1)),
            ProjLine((1, 0, 1)),
        }
        for d in diagonals:
            assert incident(d.p, d.form) and incident(d.q, d.form)

        rng = random.Random(41)
        while True:
            planes = [
                ComplexHyperplane(
                    tuple(
                        gq(F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
                        for _ in range(4)
                    )
                )
                for _ in range(6)
            ]
            quadruples = combinations(planes, 4)
            if all(rank_complex([q.coefficients for q in quad]) == 4 for quad in quadruples):
                break
        diagonals = enumerate_diagonals(planes)
        assert len(diagonals) == 10
        for d in diagonals:
            assert d.p != d.q
            for point, block in ((d.p, d.partition.left), (d.q, d.partition.right)):
                for index in block:
                    coefficients = planes[index - 1].coefficients
                    value = sum(
                        (a * c for a, c in zip(coefficients, point.coords)), GQ_ZERO
                    )
                    assert value == GQ_ZERO


def test_criterion_2_constant_projection_witness():
    with budget(1.0):
        hyperplanes = STANDARD4 + (ComplexHyperplane((1, 2, 3)),)
        f = witness_constant_projection(hyperplanes)
        assert f == ExpAffineCurve.from_terms((1, POLY_Z), (1, POLY_Z), (1, POLY_Z))
        for h in hyperplanes:
            assert is_nowhere_zero(apply_form(h, f)) == "yes"
        assert is_projectively_constant(f)


def test_criterion_3_dim4_subspace_witness():
    with budget(5.0):
        subspace, f = witness_dim4_subspace(STANDARD4)
        assert f == ExpAffineCurve.from_terms(
            (1, POLY_Z), (-1, POLY_Z), (1, poly((0, 2)))
        )
        assert subspace == RealSubspace(
            ((1, 0, -1, 0, 0, 0), (1, 0, 0, 0, -1, 0))
        )

        plan = SamplingPlan()
        assert plan.disk_radius == 10.0 and plan.random_points >= 10_000
        scene = Scene(
            hyperplanes=dict(zip(("H1", "H2", "H3", "H4"), STANDARD4)),
            reals={"H": subspace},
            curves={"f": f},
            order=(
                ("hyperplane", "H1"),
                ("hyperplane", "H2"),
                ("hyperplane", "H3"),
                ("hyperplane", "H4"),
                ("real", "H"),
            ),
        )
        report = verify(f, scene, plan)
        for result in report.results[:4]:
            assert (result.method, result.verdict) == ("exact", "avoided")
        subspace_result = report.results[4]
        assert (subspace_result.method, subspace_result.verdict) == ("exact", "avoided")
        assert subspace_result.min_margin is None
        assert not report.projection_constant
        first, second = report.projection_values
        assert first != second


def test_criterion_4_real_part_of_square_identity():
    with budget(1.0):
        rng = random.Random(4)
        for _ in range(10_000):
            w = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
            residual = abs((w * w).real - (w.real**2 - w.imag**2))
            assert residual <= 1e-12 * (1 + abs(w) ** 2)


def test_criterion_5_collapse_oracle():
    with budget(5.0):
        rng = random.Random(5)

        def random_gq():
            return gq(F(rng.randint(-6, 6), rng.randint(1, 4)),
                      F(rng.randint(-6, 6), rng.randint(1, 4)))

        for _ in range(10_000):
            s = RealSubspace((_random_nonzero_form(rng, 6, denominator=4),))
            g = s.forms[0]
            c2, c3 = random_gq(), random_gq()
            collapsed = collapse_real_form(s, c2, c3)
            w = random_gq()
            point = (w, c2 * w, c3 * w)
            direct = sum(
                g[2 * j] * point[j].re + g[2 * j + 1] * point[j].im for j in range(3)
            )
            assert direct == collapsed.evaluate(w.re, w.im)

        # a plausible transcription slip puts a1 where the expansion needs
        # a2 in the Im(c2) term; a = (1, 2, 0), b = 0, c2 = i separates them
        s = RealSubspace(((1, 0, 2, 0, 0, 0),))
        derived = collapse_real_form(s, GQ_I, GQ_ZERO)
        assert (derived.a, derived.b) == (F(1), F(-2))
        a1, b1, a2, b2, a3, b3 = s.forms[0]
        swapped_b = b1 + b2 * 0 + b3 * 0 - a1 * 1 - a3 * 0
        assert swapped_b == F(-1) != derived.b
        assert derived.evaluate(0, 1) == F(-2)


def test_criterion_6_complex_hyperplane_extraction():
    with budget(1.0):
        rng = random.Random(6)
        for _ in range(100):
            s = RealSubspace((_random_nonzero_form(rng, 6),))
            assert s.contains(realify(extract_complex_hyperplane(s)))
        frozen = RealSubspace(((1, 0, 1, 0, 1, 0),))
        assert extract_complex_hyperplane(frozen) == ComplexHyperplane((1, 1, 1))


def test_criterion_7_classifier_complementarity():
    with budget(30.0):
        rng = random.Random(7)
        verdicts = {WITNESS_EXISTS: 0, ALL_CURVES_CONSTANT: 0}
        for _ in range(200):
            pairs = _random_gp_hyperplane_pairs(rng)
            hyperplanes = tuple(
                ComplexHyperplane(tuple(gq(re, im) for re, im in hp)) for hp in pairs
            )
            s_form = _random_nonzero_form(rng, 6)
            s = RealSubspace((s_form,))
            expected = _independent_triple_ranks(pairs, s_form)
            assert {t.pair: t.rank for t in triple_ranks(hyperplanes, s)} == expected
            verdict = classify(hyperplanes, s)
            assert (verdict.tag == WITNESS_EXISTS) == (min(expected.values()) < 6)
            verdicts[verdict.tag] += 1
            if verdict.witness is not None:
                _assert_witness_verifies(hyperplanes, s, verdict.witness)
        assert sum(verdicts.values()) == 200

        # engineered rank deficiencies on the standard arrangement
        degenerate_forms = [
            (1, 0, -1, 0, 0, 0),
            (1, 0, 0, 0, -1, 0),
            (0, 0, 1, 0, -1, 0),
            (1, 0, -2, 0, 0, 0),
            (1, 0, 2, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 1),
            (0, 1, 0, -1, 0, 0),
        ]
        for form in degenerate_forms:
            s_form = tuple(F(x) for x in form)
            s = RealSubspace((s_form,))
            expected = _independent_triple_ranks(STANDARD4_PAIRS, s_form)
            assert min(expected.values()) < 6
            verdict = classify(STANDARD4, s)
            assert verdict.tag == WITNESS_EXISTS
            assert {t.pair: t.rank for t in verdict.evidence} == expected
            _assert_witness_verifies(STANDARD4, s, verdict.witness)

        # a scaled arrangement: same decision after a change of coordinates
        scaled = STANDARD4[:3] + (ComplexHyperplane((1, 2, 3)),)
        scaled_pairs = STANDARD4_PAIRS[:3] + [[(F(1), F(0)), (F(2), F(0)), (F(3), F(0))]]
        s_form = tuple(F(x) for x in (1, 0, -2, 0, 0, 0))
        s = RealSubspace((s_form,))
        assert min(_independent_triple_ranks(scaled_pairs, s_form).values()) < 6
        verdict = classify(scaled, s)
        assert verdict.tag == WITNESS_EXISTS
        _assert_witness_verifies(scaled, s, verdict.witness)

        # the one degenerate shape with no witness of this family raises
        obstructed_form = tuple(F(x) for x in (1, 0, 1, 0, 0, 0))
        assert min(
            _independent_triple_ranks(STANDARD4_PAIRS, obstructed_form).values()
        ) < 6
        with pytest.raises(ConstructionError):
            classify(STANDARD4, RealSubspace((obstructed_form,)))

        print(
            f"verdicts over random configurations: {verdicts[ALL_CURVES_CONSTANT]} "
            f"constant, {verdicts[WITNESS_EXISTS]} witnessed",
            end=" ",
        )


def test_criterion_8_optimality_example():
    with budget(1.0):
        s = RealSubspace(((1, 0, 1, 0, 1, 0),))
        f = witness_three_hyperplanes(STANDARD3, s)
        assert f == ExpAffineCurve.from_terms((1, POLY_ZERO), (1, POLY_Z), (-1, POLY_Z))
        combination = apply_form(holomorphic_coefficients(s.forms[0]), f)
        assert combination == exp_term(1)
        for h in STANDARD3:
            assert is_nowhere_zero(apply_form(h, f)) == "yes"
        assert not is_projectively_constant(f)


def test_criterion_9_determinism_and_roundtrips():
    with budget(10.0):
        scene = parse_scene(DIM4_SUBSPACE_SCENE)
        f = scene.curves["f"]
        first = verify(f, scene, SamplingPlan(seed=3)).to_json()
        second = verify(f, scene, SamplingPlan(seed=3)).to_json()
        assert first == second

        assert len(CORPUS) >= 20
        for text in CORPUS:
            parsed = parse_scene(text)
            printed = format_scene(parsed)
            reparsed = parse_scene(printed)
            assert reparsed == parsed
            assert format_scene(reparsed) == printed

        rng = random.Random(9)
        for _ in range(1000):
            rows = [
                [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
                for _ in range(rng.randint(1, 5))
            ]
            r = rank_real(rows)
            assert r + len(kernel_real(rows, 6)) == 6
            complement = orthogonal_complement(rows)
            assert rank_real(complement) == 6 - r
            twice = orthogonal_complement(complement) if complement else []
            assert rank_real(twice) == r
            assert rank_real(rows + twice) == r

        for _ in range(1000):
            width = rng.randint(1, 5)
            rows = [
                [
                    gq(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
                    for _ in range(width)
                ]
                for _ in range(rng.randint(1, 4))
            ]
            assert rank_complex(rows) + len(kernel_complex(rows, width)) == width
