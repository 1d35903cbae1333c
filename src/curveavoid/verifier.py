"""Avoidance verification for exponential curves.

Given a curve and a scene of complex hyperplanes and real subspaces, decide
for each set whether the curve avoids it.

Every hyperplane is decided exactly.  Its form composed with the curve is
an exponential sum; grouped by exponent direction it has no group (the
curve lies in the hyperplane), one group (a nowhere-zero c e^(d(z))), or
two or more, and then it has a zero by Hadamard's factorization and
Borel's theorem (see `curves.is_nowhere_zero`).  A violation carries as
its sample a zero near the origin, chosen by the rule of `_nearest`, when
the directions share a unit w = e^(P(z)) (`curves.unit_exponent`); a sum
without one carries a null sample.

A real subspace is decided exactly from the real rank of the nonconstant
parts of its forms' restrictions to the curve.  A real combination of
them whose nonconstant parts cancel is a constant (linear independence of
exponentials over the algebraic numbers); one with nonzero real part
means avoidance, one with zero real part holds everywhere and drops out.
At rank one the first nonconstant restriction g takes an imaginary value
(little Picard), so Re g vanishes, and the sample is a zero of g - it as
for a hyperplane.  At rank two, two restrictions g1, g2 carry the zero
set.  When their exponents share a unit w = e^(P(z)), they are Laurent
polynomials in w, and `resultant.unit_plane_zeros` decides exactly, by
real elimination, whether Re g1 and Re g2 vanish together at some w != 0;
the sample is taken from the common zeros by the same rule.  Any other
subspace (rank three or more, exponents with no common unit such as e^z
and e^(iz), a resultant that vanishes identically or of degree above
`resultant.MAX_DEGREE`, or no shear up to `resultant._SHEARS` passing, as
when both real curves are singular at a common zero) is sampled densely
over a disk, with refinement near each form's zero set.  `resultant` is
loaded only when a subspace reaches rank two, and `sampling` only when a
subspace needs it or a polynomial of degree 3 or more needs its roots.

Sampling proves neither verdict: a sampled `avoided` and a sampled
`violated` are both evidence.  A near-approach can read as a hit, since
a margin below the tolerance counts as one, and a zero off the grid and
off every bisected edge can be missed.  Reports therefore label every
verdict with the method that produced it, and sampled verdicts carry the
minimum relative margin observed.  The relative margin at a sample z is

    max over defining forms of |form value at f(z)| / |f(z)|,

which is invariant under rescaling f(z) by a positive factor and so
measures the projective distance to the set.  The sampler uses that: it
divides f(z) at each point by the factor e^top of `curves.scaled_values`,
so exponents far outside the float range still give finite margins.
Reports are deterministic: a fixed plan and seed reproduce them byte for
byte with one numpy build.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import NamedTuple

from .arrangement import RealSubspace, unit_coefficients
from .curves import (
    ExpAffineCurve,
    ExpSum,
    Poly,
    _direction_groups,
    apply_form,
    constant_value,
    exp_term,
    is_projectively_constant,
    scaled_values,
    terms_at,
    unit_exponent,
)
from .exact_linalg import GQ_I, GQ_ZERO, _integers, _Record, kernel_real
from .scene import Scene, format_exp_sum

AVOIDED = "avoided"
VIOLATED = "violated"
ZERO_SET_HIT = "exact-zero-set-hit"

# the sampler builds MAX_GRID_POINTS^2 grid nodes and draws random points one at a time
MAX_GRID_POINTS = 1001
MAX_RANDOM_POINTS = 1_000_000


class _PlanFields(NamedTuple):
    disk_radius: float = 10.0
    grid_points: int = 101
    random_points: int = 10_000
    seed: int = 0
    tolerance: float = 1e-9


class SamplingPlan(_Record, _PlanFields):
    __slots__ = ()

    def __new__(cls, *fields, **named) -> "SamplingPlan":
        plan = super().__new__(cls, *fields, **named)
        if not all(math.isfinite(x) and x > 0 for x in (plan.disk_radius, plan.tolerance)):
            raise ValueError("disk radius and tolerance must be positive and finite")
        if plan.grid_points <= 0 or plan.random_points < 0:
            raise ValueError("sample counts must be positive")
        if plan.grid_points > MAX_GRID_POINTS or plan.random_points > MAX_RANDOM_POINTS:
            raise ValueError(
                f"at most {MAX_GRID_POINTS} grid points per axis and {MAX_RANDOM_POINTS} random points"
            )
        if plan.grid_points < 3 and not plan.random_points:
            # a grid of 1 or 2 points per axis has every node outside the disk
            raise ValueError(
                "a grid of fewer than 3 points per axis puts no sample in the disk;"
                " random points are needed"
            )
        return plan


class SetResult(NamedTuple):
    set: str
    method: str
    verdict: str
    min_margin: float | None
    violation_sample: tuple[float, float] | None


class VerificationReport(NamedTuple):
    curve: str
    results: tuple[SetResult, ...]
    projection_constant: bool
    projection_values: tuple[tuple[tuple[float, float], ...], ...]
    plan: SamplingPlan

    def all_avoided(self) -> bool:
        return all(r.verdict == AVOIDED for r in self.results)

    def to_dict(self) -> dict:
        return self._asdict() | {"plan": self.plan._asdict(), "results": [r._asdict() for r in self.results]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# per-set verdicts

def _exact_hyperplane_result(name: str, s: ExpSum) -> SetResult:
    """The verdict for a hyperplane whose form composed with the curve is s.

    The direction groups of s decide, as in `curves.is_nowhere_zero`: none
    (the zero sum) is a zero-set hit, one is avoidance, and two or more
    are a violation whose sample is the zero `_nearest_zero` finds, if any.
    """
    groups = _direction_groups(s)
    if not groups:
        return SetResult(name, "exact", ZERO_SET_HIT, None, (0.0, 0.0))
    if len(groups) == 1:
        return SetResult(name, "exact", AVOIDED, None, None)
    return _exact_violation(name, _nearest_zero(groups))


def _exact_violation(name: str, zero: complex | None) -> SetResult:
    sample = None if zero is None else (zero.real + 0.0, zero.imag + 0.0)
    return SetResult(name, "exact", VIOLATED, None, sample)


def _nearest_zero(groups: dict[Poly, ExpSum]) -> complex | None:
    """A zero near the origin of s = e^(d0) sum C_n w^n in the unit w = e^(P(z)).

    The C_n are the direction groups of s, which the caller has formed,
    and P comes from `curves.unit_exponent` on their directions.  The
    zeros are the z with P(z) = Log w + 2 pi i k over the nonzero roots w
    of the polynomial in w and the integers k (`_nearest`).  For degree 1,
    Log w = log C0 - log C1 + i pi in the log domain, so constants beyond
    the float range keep their zero.  None when s has no unit or floating
    point loses every root.
    """
    found = unit_exponent(list(groups))
    if found is None:
        return None
    p, powers = found
    coeffs = {n - min(powers): c for n, c in zip(powers, groups.values())}
    if len(coeffs) == 2:
        log0, log1 = coeffs[0].log(), coeffs[1].log()
        logs = [] if log0 is None or log1 is None else [log0 - log1 + 1j * math.pi]
    else:
        top = max(t.offset.re for c in coeffs.values() for t in c.terms)
        terms = [coeffs[n].float_terms(top) if n in coeffs else [] for n in range(max(coeffs) + 1)]
        logs = [cmath.log(w) for w in _roots(scaled_values(terms)[1]) if w]
    return _nearest(logs, p)


def _nearest(logs: list[complex], p: Poly) -> complex | None:
    """The z nearest the origin with P(z) = log + 2 pi i k, over the logs and three k for each.

    The k tried are the one that brings Im(log - P(0) + 2 pi i k) nearest
    0 and its two neighbours, with P(0) read only for P of degree 1.  For
    P = mu z the point is (log + 2 pi i k) / mu, and a tie in modulus goes
    to the smaller Im(mu z).  Otherwise the point is the nearest root of
    P(z) - log - 2 pi i k over those k (`_roots`), and a tie goes to the
    smaller Im z.  None without logs.
    """
    centre = p[0].to_complex().imag if len(p) == 2 else 0.0
    candidates = []
    for log in logs:
        k = round((centre - log.imag) / (2 * math.pi))
        candidates += [log + 2j * math.pi * j for j in (k - 1, k, k + 1)]
    if not candidates:
        return None
    if len(p) == 2 and not p[0]:
        return min(candidates, key=lambda v: (abs(v), v.imag)) / p[1].to_complex()
    values = [c.to_complex() for c in p]
    roots = [z for v in candidates for z in _roots([values[0] - v, *values[1:]])]
    return min(roots, key=lambda z: (abs(z), z.imag))


def _roots(values: list[complex]) -> list[complex]:
    """The roots of sum values[n] w^n, with multiplicity; numpy's only for degree 3 and more."""
    while values and not values[-1]:
        values.pop()
    if len(values) == 2:
        return [-values[0] / values[1]]
    if len(values) == 3:
        c, b, a = values
        root = cmath.sqrt(b * b - 4 * a * c)
        q = -(b + root if (b.conjugate() * root).real >= 0 else b - root) / 2
        return [q / a, c / q] if q else [q, q]  # q = 0 only for a w^2, whose double root is 0
    if len(values) > 3:
        from .sampling import polynomial_roots

        return polynomial_roots(values)
    return []


def _exact_subspace_result(name: str, subspace: RealSubspace, curve: ExpAffineCurve) -> SetResult | None:
    """The exact verdict for a real subspace, from the restrictions g_k of its forms to the curve.

    A real combination of the g_k whose nonconstant terms cancel is a
    constant c, and Re c = 0 everywhere or nowhere (linear independence of
    exponentials): a c with Re c != 0 means avoidance, and one with
    Re c = 0 holds everywhere and drops out.  The real rank of the
    nonconstant parts then decides.  At rank 0 the curve lies in the
    subspace.  At rank 1 the subspace is the zero set of Re g for the first
    nonconstant g, which vanishes where g = it (little Picard); t = 0 when
    g has a constant group, else t = 1, and g - it has a zero
    (`curves.is_nowhere_zero`).  At rank 2 two restrictions with independent
    nonconstant parts carry the zero set, and `resultant.unit_plane_zeros`
    decides it when their exponents share a unit.  Otherwise None.
    """
    restrictions = [apply_form(unit_coefficients(form), curve) for form in subspace.forms]
    coeffs = [{t.exponent: t.coeff for t in g.terms} for g in restrictions]
    exponents = {e for terms in coeffs for e in terms if len(e) > 1}
    entries = [[terms.get(e, GQ_ZERO) for terms in coeffs] for e in exponents]
    rows = [part for row in entries for part in _integers(row)]  # scaled by an s > 0: the same kernel
    kernel = kernel_real(rows, len(restrictions))
    for combination in kernel:
        c = sum((g.scale(x) for x, g in zip(combination, restrictions)), ExpSum(()))
        if c.real_part():
            return SetResult(name, "exact", AVOIDED, None, None)
    rank = len(restrictions) - len(kernel)
    if rank == 0:
        return SetResult(name, "exact", ZERO_SET_HIT, None, (0.0, 0.0))
    if rank == 2:
        # a kernel vector ends at its free column; the two pivot columns are the first independent pair
        free = {max(k for k, x in enumerate(v) if x) for v in kernel}
        a, b = (k for k in range(len(restrictions)) if k not in free)
        return _unit_plane_result(name, restrictions[a], restrictions[b])
    if rank > 2:
        return None
    g = next(g for g in restrictions if constant_value(g) is None)
    if all(len(t.exponent) > 1 for t in g.terms):
        g = g - exp_term(GQ_I)
    return _exact_hyperplane_result(name, g)


def _unit_plane_result(name: str, g1: ExpSum, g2: ExpSum) -> SetResult | None:
    """The exact verdict for {Re g1 = 0, Re g2 = 0} from `resultant.unit_plane_zeros`, or None."""
    from .resultant import unit_plane_zeros  # loaded the first time a subspace reaches rank 2

    found = unit_plane_zeros(g1, g2)
    if found is None:
        return None
    p, units = found
    if not units:
        return SetResult(name, "exact", AVOIDED, None, None)
    return _exact_violation(name, _nearest([cmath.log(w) for w in units if w], p))


def _sampled_result(
    name: str, plan: SamplingPlan, margin: float, sample: tuple[float, float]
) -> SetResult:
    """The sampled verdict for a real subspace that no exact certificate settles."""
    if margin < plan.tolerance:
        return SetResult(name, "sampled", VIOLATED, margin, sample)
    return SetResult(name, "sampled", AVOIDED, margin, None)


# ---------------------------------------------------------------------------
# projection values

_PROJECTION_PROBES = (0, 1, -1, 1j, -1j, 2, -2, 2j, 1 + 1j, 1 - 1j, 3, 3j)


def projective_value(curve: ExpAffineCurve, z: complex) -> tuple[tuple[float, float], ...] | None:
    """The projectivised curve at z, divided by its first component above 1e-12 of the largest.

    The components share one factor e^top (`curves.scaled_values`), so
    exponents beyond the float range still give finite coordinates.
    """
    _, values = scaled_values([terms_at(c, z) for c in curve.components])
    size = max(abs(v) for v in values)
    pivot = next((v for v in values if abs(v) > 1e-12 * size), None)
    if pivot is None:
        return None
    return tuple((w.real + 0.0, w.imag + 0.0) for w in ((v / pivot) for v in values))


def _values_differ(a: tuple[tuple[float, float], ...], b: tuple[tuple[float, float], ...]) -> bool:
    return any(
        math.hypot(ca[0] - cb[0], ca[1] - cb[1]) > 1e-9 for ca, cb in zip(a, b)
    )


def _projection_values(curve: ExpAffineCurve, constant: bool) -> tuple:
    values = []
    for probe in _PROJECTION_PROBES:
        value = projective_value(curve, complex(probe))
        if value is None:
            continue
        if constant:
            return (value,)
        if values and _values_differ(values[0], value):
            return (values[0], value)
        if not values:
            values.append(value)
    return tuple(values)


# ---------------------------------------------------------------------------
# entry point

def verify(
    curve: ExpAffineCurve,
    scene: Scene,
    plan: SamplingPlan | None = None,
    curve_name: str | None = None,
) -> VerificationReport:
    """Check the curve against every hyperplane and real subspace in the scene."""
    plan = plan or SamplingPlan()
    sampler = None
    results = []
    for kind, name in scene.order:
        if kind == "curve":
            continue
        if kind == "hyperplane":
            result = _exact_hyperplane_result(name, apply_form(scene.hyperplanes[name], curve))
        else:
            subspace = scene.reals[name]
            result = _exact_subspace_result(name, subspace, curve)
            if result is None:
                from .sampling import Sampler  # loaded the first time a subspace needs it

                sampler = sampler or Sampler(plan)
                result = _sampled_result(name, plan, *sampler.subspace(subspace, curve))
        results.append(result)
    constant = is_projectively_constant(curve)
    description = curve_name
    if description is None:
        description = "(" + ", ".join(format_exp_sum(c) for c in curve.components) + ")"
    return VerificationReport(
        curve=description,
        results=tuple(results),
        projection_constant=constant,
        projection_values=_projection_values(curve, constant),
        plan=plan,
    )
