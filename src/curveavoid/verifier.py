"""Avoidance verification for exponential curves.

Given a curve and a scene of complex hyperplanes and real subspaces, decide
for each set whether the curve avoids it.

Every hyperplane is decided exactly.  Its form composed with the curve is
an exponential sum; grouped by exponent direction it has no group (the
curve lies in the hyperplane), one group (a nowhere-zero c e^(d(z))), or
two or more, and then it has a zero by Hadamard's factorization and
Borel's theorem (see `curves.is_nowhere_zero`).  A violation carries a
zero as its sample: in closed form for two groups whose directions differ
by a linear polynomial, else the Newton search of the `sampling` module,
whose point is kept only when its margin is below the plan's tolerance,
so the sample may be null.

A real subspace is decided exactly when every defining form restricts to
a constant (linear independence of exponentials over the algebraic
numbers); otherwise it falls back to dense sampling over a disk with
targeted refinement near the zero set of each individual form.  The
`sampling` module is loaded only when a set needs it.

Sampling cannot prove avoidance.  Reports therefore label every verdict
with the method that produced it, and sampled verdicts carry the minimum
relative margin observed.  The relative margin at a sample z is

    max over defining forms of |form value at f(z)| / |f(z)|,

which is invariant under rescaling f(z) and so measures the projective
distance to the set.  Reports are deterministic: a fixed plan and seed
reproduce them byte for byte.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from itertools import zip_longest

from .arrangement import RealSubspace, holomorphic_coefficients
from .curves import (
    ExpAffineCurve,
    ExpConstant,
    ExpSum,
    Poly,
    _direction_groups,
    apply_form,
    constant_value,
    evaluate_sum,
    is_projectively_constant,
)
from .exact_linalg import GQ_ZERO
from .scene import Scene, format_exp_sum

AVOIDED = "avoided"
VIOLATED = "violated"
ZERO_SET_HIT = "exact-zero-set-hit"


@dataclass(frozen=True, slots=True)
class SamplingPlan:
    disk_radius: float = 10.0
    grid_points: int = 101
    random_points: int = 10_000
    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) and x > 0 for x in (self.disk_radius, self.tolerance)):
            raise ValueError("disk radius and tolerance must be positive and finite")
        if self.grid_points <= 0 or self.random_points < 0:
            raise ValueError("sample counts must be positive")

    def to_dict(self) -> dict:
        return {
            "disk_radius": self.disk_radius,
            "grid_points": self.grid_points,
            "random_points": self.random_points,
            "seed": self.seed,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True, slots=True)
class SetResult:
    set: str
    method: str
    verdict: str
    min_margin: float | None
    violation_sample: tuple[float, float] | None

    def to_dict(self) -> dict:
        return {
            "set": self.set,
            "method": self.method,
            "verdict": self.verdict,
            "min_margin": self.min_margin,
            "violation_sample": list(self.violation_sample)
            if self.violation_sample is not None
            else None,
        }


@dataclass(frozen=True, slots=True)
class VerificationReport:
    curve: str
    results: tuple[SetResult, ...]
    projection_constant: bool
    projection_values: tuple[tuple[tuple[float, float], ...], ...]
    plan: SamplingPlan

    def all_avoided(self) -> bool:
        return all(r.verdict == AVOIDED for r in self.results)

    def to_dict(self) -> dict:
        return {
            "curve": self.curve,
            "plan": self.plan.to_dict(),
            "results": [r.to_dict() for r in self.results],
            "projection_constant": self.projection_constant,
            "projection_values": [
                [list(coord) for coord in value] for value in self.projection_values
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# per-set verdicts

def _exact_hyperplane_result(name: str, s: ExpSum) -> SetResult:
    """The verdict for a hyperplane whose form composed with the curve is s.

    It follows from the direction groups of s (see `is_nowhere_zero`): none
    is a zero-set hit, one is avoidance, and two or more are a violation,
    whose sample is the closed-form zero when there is one and is left to
    the Newton search otherwise.
    """
    if len(s.terms) == 1:
        return SetResult(name, "exact", AVOIDED, None, None)
    groups = _direction_groups(s)
    if not groups:
        return SetResult(name, "exact", ZERO_SET_HIT, None, (0.0, 0.0))
    if len(groups) == 1:
        return SetResult(name, "exact", AVOIDED, None, None)
    zero = _closed_form_zero(groups)
    sample = None if zero is None else (zero.real + 0.0, zero.imag + 0.0)
    return SetResult(name, "exact", VIOLATED, None, sample)


def _closed_form_zero(groups: dict[Poly, ExpConstant]) -> complex | None:
    """The zero nearest the origin of C1 e^(d1) + C2 e^(d2), if d1 - d2 = lam z.

    The zeros are z = (Log(-C2/C1) + 2 pi i k) / lam for integer k.  A tie
    in modulus goes to the smaller k, that is the smaller Im(lam z), so
    reports stay deterministic.  None when floating point cancels C1 or C2
    to zero.
    """
    if len(groups) != 2:
        return None
    (d1, c1), (d2, c2) = groups.items()
    diff = [a - b for a, b in zip_longest(d1, d2, fillvalue=GQ_ZERO)]
    if any(diff[2:]):
        return None
    log1, log2 = c1.log(), c2.log()
    if log1 is None or log2 is None:
        return None
    log = log2 - log1 + 1j * math.pi  # a logarithm of -C2/C1
    k = round(-log.imag / (2 * math.pi))
    lam_z = min(
        (log + 2j * math.pi * j for j in (k - 1, k, k + 1)), key=lambda v: (abs(v), v.imag)
    )
    return lam_z / diff[1].to_complex()


def _exact_subspace_result(name: str, subspace: RealSubspace, curve: ExpAffineCurve) -> SetResult | None:
    # Re(S) vanishes identically iff S is constant with formally real-free
    # value: a nonconstant entire S has open image, and exactness for the
    # constant case is linear independence of exponentials again.
    real_parts = []
    for form in subspace.forms:
        s = apply_form(holomorphic_coefficients(form), curve)
        v = constant_value(s)
        if v is None:
            real_parts.append(None)
            continue
        real = v.real_part()
        if real:
            return SetResult(name, "exact", AVOIDED, None, None)
        real_parts.append(real)
    if all(r is not None for r in real_parts):
        return SetResult(name, "exact", ZERO_SET_HIT, None, (0.0, 0.0))
    return None


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
    """The projectivised curve at z, scaled by its first sizable component."""
    values = [evaluate_sum(c, z) for c in curve.components]
    pivot = next((v for v in values if abs(v) > 1e-12), None)
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

def _sampler(plan: SamplingPlan):
    """Load the sampling code, the first time a set needs it."""
    from .sampling import Sampler

    return Sampler(plan)


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
            h = scene.hyperplanes[name]
            s = apply_form(h, curve)
            result = _exact_hyperplane_result(name, s)
            if result.verdict == VIOLATED and result.violation_sample is None:
                sampler = sampler or _sampler(plan)
                margin, sample = sampler.hyperplane(h, s, curve)
                if margin < plan.tolerance:
                    result = SetResult(name, "exact", VIOLATED, None, sample)
        else:
            subspace = scene.reals[name]
            result = _exact_subspace_result(name, subspace, curve)
            if result is None:
                sampler = sampler or _sampler(plan)
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
