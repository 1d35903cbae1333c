"""Seeded inputs, each with the answer known by construction.

Every arrangement is built in standardised coordinates w, where the four
hyperplanes are w1, w2, w3 and w1 + w2 + w3, and then moved by a random
change of coordinates w = P z over the Gaussian rationals, with a random
nonzero scale per hyperplane and a random order.  The same seed gives the
same inputs.  Nothing here imports `curveavoid`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import (
    ONE,
    ZERO,
    add,
    det3,
    expected_class,
    fmt_complex_form,
    fmt_exp_sum,
    fmt_real_form,
    g,
    inverse3,
    mul,
    neg,
    nonzero,
    real_form_of,
    row_times,
    scale,
    sub,
    triple_ranks,
    two_term_nearest_zero_modulus,
)

STANDARD = ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE), (ONE, ONE, ONE))
DISK_RADIUS = 10.0


def _gq(rng: random.Random, height: int = 3, denominator: int = 2):
    while True:
        c = g(
            Fraction(rng.randint(-height, height), rng.randint(1, denominator)),
            Fraction(rng.randint(-height, height), rng.randint(1, denominator)),
        )
        if nonzero(c):
            return c


def _coordinate_change(rng: random.Random):
    while True:
        p = tuple(tuple(_gq(rng, 2, 2) for _ in range(3)) for _ in range(3))
        if nonzero(det3(p)):
            return p


def _arrangement(rng: random.Random):
    """(P, rows, order): hyperplane rows a = mu * e_i * P, listed in `order`."""
    p = _coordinate_change(rng)
    order = list(range(4))
    rng.shuffle(order)
    rows = tuple(scale(_gq(rng), row_times(STANDARD[i], p)) for i in order)
    return p, rows, order


def _hyperplane_lines(rows) -> list[str]:
    return [f"hyperplane H{n + 1}: {fmt_complex_form(a)}" for n, a in enumerate(rows)]


# ---------------------------------------------------------------------------
# exact-sweep: four hyperplanes and one real hyperplane


@dataclass(frozen=True)
class SweepInput:
    kind: str  # general, deficient or obstructed
    text: str
    rows: tuple
    alpha: tuple  # holomorphic coefficients of the real hyperplane
    ranks: dict


# Out of 10 inputs: 5 general, 3 deficient with a witness, 2 obstructed.
SWEEP_MIX = ("general",) * 5 + ("deficient",) * 3 + ("obstructed",) * 2


def _beta(rng: random.Random, kind: str):
    """The real hyperplane's holomorphic form in standardised coordinates."""
    e = STANDARD
    if kind == "general":
        while True:
            beta = tuple(_gq(rng) for _ in range(3))
            if all(
                nonzero(det3([beta, e[j], e[k]]))
                for j in range(4)
                for k in range(j + 1, 4)
            ):
                return beta
    if kind == "deficient":
        j, k = rng.sample(range(4), 2)
        while True:
            beta = tuple(
                add(x, y) for x, y in zip(scale(_gq(rng), e[j]), scale(_gq(rng), e[k]))
            )
            # exclude the three diagonal points e4 - e_i, which are obstructed
            if not any(
                not nonzero(det3([beta, e[a], e[b]])) and not nonzero(det3([beta, e[c], e[d]]))
                for (a, b), (c, d) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
            ):
                return beta
    i = rng.randrange(3)
    return scale(_gq(rng), tuple(sub(x, y) for x, y in zip(e[3], e[i])))


def sweep_inputs(seed: int, count: int) -> list[SweepInput]:
    rng = random.Random(f"exact-sweep/{seed}")
    kinds = [SWEEP_MIX[n % len(SWEEP_MIX)] for n in range(count)]
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        p, rows, _ = _arrangement(rng)
        alpha = row_times(_beta(rng, kind), p)
        ranks = triple_ranks(alpha, rows)
        if expected_class(ranks) != kind:
            raise AssertionError(f"generator produced {expected_class(ranks)}, wanted {kind}")
        text = "\n".join(
            _hyperplane_lines(rows) + [f"real S: {fmt_real_form(real_form_of(alpha))}"]
        ) + "\n"
        out.append(SweepInput(kind, text, rows, alpha, ranks))
    return out


# ---------------------------------------------------------------------------
# sampled-verify: curves whose verdict needs sampling


@dataclass(frozen=True)
class CurveInput:
    kind: str  # dim4, hit-inside or hit-outside
    text: str
    rows: tuple
    components: tuple  # the curve in scene coordinates, as oracle sums
    hit: int | None  # index into rows of the hyperplane the curve meets
    zero_terms: tuple | None  # (c1, q1, c2, q2): the hit form is mu*(c1 e^q1z + c2 e^q2z)


# Out of 5 inputs: 2 dim-4 witnesses, 2 hits inside the disk, 1 outside it.
CURVE_MIX = ("dim4", "dim4", "hit-inside", "hit-inside", "hit-outside")


def _pull_back(p, g_components):
    """Components of f = P^-1 g, for g given in standardised coordinates."""
    inv = inverse3(p)
    out = []
    for row in inv:
        acc: dict = {}
        for c, comp in zip(row, g_components):
            for e, d in comp.items():
                acc[e] = add(acc.get(e, ZERO), mul(c, d))
        out.append({e: d for e, d in acc.items() if nonzero(d)})
    return tuple(out)


def _linear(q):
    return (ZERO, q)


def _hit_curve(rng: random.Random, inside: bool):
    """g = (c1 e^(q1 z), c2 e^(q2 z), c3 e^(q1 z)), meeting only w1 + w2 + w3 = 0.

    The composed form (c1 + c3) e^(q1 z) + c2 e^(q2 z) has two exponent
    directions, so it has zeros, at known points.
    """
    while True:
        q2 = _gq(rng, 2, 2)
        if inside:
            q1 = add(q2, _gq(rng, 2, 2))
        else:
            q1 = add(q2, g(Fraction(rng.choice((-1, 1)), 20), Fraction(rng.randint(-1, 1), 20)))
        c1, c2, c3 = _gq(rng), _gq(rng), _gq(rng)
        lead = add(c1, c3)
        if not nonzero(lead) or not nonzero(sub(q1, q2)):
            continue
        r = two_term_nearest_zero_modulus(lead, q1, c2, q2)
        if (inside and 0.5 <= r <= 0.7 * DISK_RADIUS) or (
            not inside and r >= 1.5 * DISK_RADIUS
        ):
            g_components = ({_linear(q1): c1}, {_linear(q2): c2}, {_linear(q1): c3})
            return g_components, (lead, q1, c2, q2)


def curve_inputs(seed: int, count: int) -> list[CurveInput]:
    rng = random.Random(f"sampled-verify/{seed}")
    kinds = [CURVE_MIX[n % len(CURVE_MIX)] for n in range(count)]
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        p, rows, order = _arrangement(rng)
        lines = _hyperplane_lines(rows)
        if kind == "dim4":
            # (e^z, -e^z, e^(2z)) avoids the four hyperplanes and
            # {Re(w1 - w2) = 0, Re(w1 - w3) = 0}: where Re e^z = 0,
            # Re e^(2z) = -(Im e^z)^2 < 0.
            g_components = ({_linear(ONE): ONE}, {_linear(ONE): neg(ONE)}, {_linear(g(2)): ONE})
            forms = [
                real_form_of(row_times(d, p))
                for d in ((ONE, neg(ONE), ZERO), (ONE, ZERO, neg(ONE)))
            ]
            lines.append("real H: " + "; ".join(fmt_real_form(f) for f in forms))
            hit, zero_terms = None, None
        else:
            g_components, zero_terms = _hit_curve(rng, kind == "hit-inside")
            hit = order.index(3)
        components = _pull_back(p, g_components)
        lines.append("curve f: (" + ", ".join(fmt_exp_sum(c) for c in components) + ")")
        out.append(CurveInput(kind, "\n".join(lines) + "\n", rows, components, hit, zero_terms))
    return out
