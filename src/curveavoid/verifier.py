"""Avoidance verification for exponential curves.

Given a curve and a scene of complex hyperplanes and real subspaces, decide
for each set whether the curve avoids it.  Exact certificates are used
whenever the composed form admits one (a single exponential term, or a
constant value whose nonvanishing follows from linear independence of
exponentials over the algebraic numbers); everything else falls back to
dense sampling over a disk with targeted refinement near the zero set of
each individual form.

Sampling cannot prove avoidance.  Reports therefore label every verdict
with the method that produced it, and sampled "avoided" verdicts carry the
minimum relative margin observed.  The relative margin at a sample z is

    max over defining forms of |form value at f(z)| / |f(z)|,

which is invariant under rescaling f(z) and so measures the projective
distance to the set.  Reports are deterministic: a fixed plan and seed
reproduce them byte for byte.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .arrangement import RealSubspace, holomorphic_coefficients
from .curves import (
    ExpAffineCurve,
    ExpSum,
    apply_form,
    constant_value,
    evaluate_sum,
    is_identically_zero,
    is_nowhere_zero,
    is_projectively_constant,
)
from .projective import ComplexHyperplane
from .scene import Scene, format_exp_sum

AVOIDED = "avoided"
VIOLATED = "violated"
ZERO_SET_HIT = "exact-zero-set-hit"

_NEWTON_STARTS = 32
_BISECT_STEPS = 60
_TINY = 1e-300


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
# vectorized evaluation

def _poly_values(coeffs: Sequence[complex], z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _sum_values(s: ExpSum, z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    for t in s.terms:
        exponent = [c.to_complex() for c in t.exponent]
        out = out + t.coeff.to_complex() * np.exp(_poly_values(exponent, z))
    return out


def _sum_derivative_values(s: ExpSum, z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    for t in s.terms:
        exponent = [c.to_complex() for c in t.exponent]
        derivative = [k * c for k, c in enumerate(exponent)][1:]
        out = out + (
            t.coeff.to_complex()
            * np.exp(_poly_values(exponent, z))
            * _poly_values(derivative, z)
        )
    return out


def _component_values(curve: ExpAffineCurve, z: np.ndarray) -> list[np.ndarray]:
    return [_sum_values(c, z) for c in curve.components]


def _curve_scale(comps: list[np.ndarray]) -> np.ndarray:
    return np.sqrt(sum(np.abs(c) ** 2 for c in comps))


def _real_form_rows(subspace: RealSubspace) -> list[tuple[complex, complex, complex]]:
    rows = []
    for form in subspace.forms:
        rows.append(tuple(c.to_complex() for c in holomorphic_coefficients(form)))
    return rows


def _margins_for_hyperplane(h: ComplexHyperplane, curve: ExpAffineCurve, z: np.ndarray) -> np.ndarray:
    comps = _component_values(curve, z)
    coeffs = [c.to_complex() for c in h.coefficients]
    value = sum(a * comp for a, comp in zip(coeffs, comps))
    margin = np.abs(value) / np.maximum(_curve_scale(comps), _TINY)
    return np.where(np.isfinite(margin), margin, np.inf)


def _margins_for_subspace(subspace: RealSubspace, curve: ExpAffineCurve, z: np.ndarray) -> np.ndarray:
    comps = _component_values(curve, z)
    scale = np.maximum(_curve_scale(comps), _TINY)
    worst = np.zeros(z.shape)
    for row in _real_form_rows(subspace):
        value = sum(a * comp for a, comp in zip(row, comps)).real
        worst = np.maximum(worst, np.abs(value))
    margin = worst / scale
    return np.where(np.isfinite(margin), margin, np.inf)


# ---------------------------------------------------------------------------
# sample generation

def _grid(plan: SamplingPlan) -> tuple[np.ndarray, np.ndarray]:
    """The square grid over the disk's bounding box, and the mask of nodes inside the disk."""
    axis = np.linspace(-plan.disk_radius, plan.disk_radius, plan.grid_points)
    grid_x, grid_y = np.meshgrid(axis, axis, indexing="ij")
    nodes = grid_x + 1j * grid_y
    return nodes, np.abs(nodes) <= plan.disk_radius


def _base_samples(plan: SamplingPlan) -> np.ndarray:
    nodes, inside = _grid(plan)
    radius = plan.disk_radius
    rng = random.Random(plan.seed)
    points = np.empty(plan.random_points, dtype=complex)
    for k in range(plan.random_points):
        r = radius * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        points[k] = complex(r * math.cos(theta), r * math.sin(theta))
    return np.concatenate([nodes[inside], points])


def _bisect_edges(
    fun: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    value_lo = fun(lo)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        value_mid = fun(mid)
        same_side = value_lo * value_mid > 0
        lo = np.where(same_side, mid, lo)
        value_lo = np.where(same_side, value_mid, value_lo)
        hi = np.where(same_side, hi, mid)
    return 0.5 * (lo + hi)


def _targeted_for_subspace(
    subspace: RealSubspace, curve: ExpAffineCurve, plan: SamplingPlan
) -> np.ndarray:
    """Seed samples on the zero set of each individual defining form.

    Along every grid edge whose endpoints lie in the disk and give the form
    opposite signs, bisection localizes a crossing; these are the points
    where a conjunctive membership test is under the most stress.
    """
    nodes, inside = _grid(plan)
    found: list[np.ndarray] = []
    for row in _real_form_rows(subspace):

        def form_values(z: np.ndarray) -> np.ndarray:
            comps = _component_values(curve, z)
            return sum(a * comp for a, comp in zip(row, comps)).real

        values = form_values(nodes)
        for lo, hi, value_lo, value_hi, ok in (
            (
                nodes[:-1, :], nodes[1:, :],
                values[:-1, :], values[1:, :],
                inside[:-1, :] & inside[1:, :],
            ),
            (
                nodes[:, :-1], nodes[:, 1:],
                values[:, :-1], values[:, 1:],
                inside[:, :-1] & inside[:, 1:],
            ),
        ):
            crossing = ok & (value_lo * value_hi < 0)
            if crossing.any():
                found.append(_bisect_edges(form_values, lo[crossing], hi[crossing]))
    if not found:
        return np.empty(0, dtype=complex)
    return np.concatenate(found)


def _targeted_for_hyperplane(
    h: ComplexHyperplane, curve: ExpAffineCurve, plan: SamplingPlan, base: np.ndarray
) -> np.ndarray:
    """Newton refinement from the most promising base samples.

    Zeros of a multi-term exponential sum are isolated; polishing the
    samples with the smallest composed-form modulus finds any zero that a
    coarse grid can only approach.
    """
    s = apply_form(h, curve)
    values = np.abs(_sum_values(s, base))
    values = np.where(np.isfinite(values), values, np.inf)
    order = np.argsort(values, kind="stable")[:_NEWTON_STARTS]
    z = base[order].copy()
    for _ in range(60):
        fz = _sum_values(s, z)
        dz = _sum_derivative_values(s, z)
        safe = np.abs(dz) > _TINY
        step = np.where(safe, fz / np.where(safe, dz, 1.0), 0.0)
        z = z - step
    keep = np.isfinite(z) & (np.abs(z) <= plan.disk_radius)
    refined = z[keep]
    return refined[np.lexsort((refined.imag, refined.real))]


# ---------------------------------------------------------------------------
# per-set verdicts

def _exact_hyperplane_result(name: str, h: ComplexHyperplane, curve: ExpAffineCurve) -> SetResult | None:
    s = apply_form(h, curve)
    if is_identically_zero(s):
        return SetResult(name, "exact", ZERO_SET_HIT, None, (0.0, 0.0))
    if is_nowhere_zero(s) == "yes":
        return SetResult(name, "exact", AVOIDED, None, None)
    # A formally nonzero combination of exponentials of distinct constants
    # has a nonzero value, so a constant composed form settles the question.
    if constant_value(s) is not None:
        return SetResult(name, "exact", AVOIDED, None, None)
    return None


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
    name: str, margins: Callable[[np.ndarray], np.ndarray], samples: np.ndarray, plan: SamplingPlan
) -> SetResult:
    m = margins(samples)
    index = int(np.argmin(m))
    best = float(m[index])
    sample = (float(samples[index].real) + 0.0, float(samples[index].imag) + 0.0)
    if best < plan.tolerance:
        return SetResult(name, "sampled", VIOLATED, best, sample)
    return SetResult(name, "sampled", AVOIDED, best, None)


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

def verify(
    curve: ExpAffineCurve,
    scene: Scene,
    plan: SamplingPlan | None = None,
    curve_name: str | None = None,
) -> VerificationReport:
    """Check the curve against every hyperplane and real subspace in the scene."""
    plan = plan or SamplingPlan()
    base: np.ndarray | None = None
    results = []
    for kind, name in scene.order:
        if kind == "curve":
            continue
        if kind == "hyperplane":
            h = scene.hyperplanes[name]
            exact = _exact_hyperplane_result(name, h, curve)
            if exact is not None:
                results.append(exact)
                continue
            if base is None:
                base = _base_samples(plan)
            targeted = _targeted_for_hyperplane(h, curve, plan, base)
            samples = np.concatenate([base, targeted])
            results.append(
                _sampled_result(name, lambda z: _margins_for_hyperplane(h, curve, z), samples, plan)
            )
        else:
            subspace = scene.reals[name]
            exact = _exact_subspace_result(name, subspace, curve)
            if exact is not None:
                results.append(exact)
                continue
            if base is None:
                base = _base_samples(plan)
            targeted = _targeted_for_subspace(subspace, curve, plan)
            samples = np.concatenate([base, targeted])
            results.append(
                _sampled_result(name, lambda z: _margins_for_subspace(subspace, curve, z), samples, plan)
            )
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
