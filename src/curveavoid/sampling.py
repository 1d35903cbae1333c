"""Sampled evidence where no closed form gives the answer.

This is the only module of the package that imports numpy.  `verify`
loads it when the first set of a scene needs it: a real subspace that no
exact certificate settles, or a hyperplane that the curve is known to
meet but whose zero has no closed form.  The commands that never sample
never pay for the import.

A set is sampled over a deterministic grid on the disk, seeded random
points in it, and targeted points: bisection onto the zero set of each
real form of a subspace, and Newton refinement toward zeros of the
composed form of a hyperplane.  Margins are the relative margins defined
in `verifier`; a non-finite margin counts as +inf.  The coefficients of
the exponential sums are converted to complex numbers once per call, not
once per evaluation.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .arrangement import RealSubspace, holomorphic_coefficients
from .curves import ExpAffineCurve, ExpSum
from .projective import ComplexHyperplane

if TYPE_CHECKING:
    from .verifier import SamplingPlan

_NEWTON_STARTS = 32
_NEWTON_STEPS = 60
_BISECT_STEPS = 60
_TINY = 1e-300

# An exponential sum as (coefficient, exponent polynomial) pairs in floating point.
_Terms = list[tuple[complex, list[complex]]]


# ---------------------------------------------------------------------------
# vectorized evaluation

def _terms(s: ExpSum) -> _Terms:
    return [(t.coeff.to_complex(), [c.to_complex() for c in t.exponent]) for t in s.terms]


def _poly_values(coeffs: Sequence[complex], z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _sum_values(terms: _Terms, z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    for coeff, exponent in terms:
        out = out + coeff * np.exp(_poly_values(exponent, z))
    return out


def _sum_derivative_values(terms: _Terms, z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    for coeff, exponent in terms:
        derivative = [k * c for k, c in enumerate(exponent)][1:]
        out = out + coeff * np.exp(_poly_values(exponent, z)) * _poly_values(derivative, z)
    return out


def _component_values(components: list[_Terms], z: np.ndarray) -> list[np.ndarray]:
    return [_sum_values(c, z) for c in components]


def _curve_scale(comps: list[np.ndarray]) -> np.ndarray:
    return np.sqrt(sum(np.abs(c) ** 2 for c in comps))


def _real_form_rows(subspace: RealSubspace) -> list[tuple[complex, complex, complex]]:
    rows = []
    for form in subspace.forms:
        rows.append(tuple(c.to_complex() for c in holomorphic_coefficients(form)))
    return rows


def _margins_for_hyperplane(h: ComplexHyperplane, curve: ExpAffineCurve, z: np.ndarray) -> np.ndarray:
    comps = _component_values([_terms(c) for c in curve.components], z)
    coeffs = [c.to_complex() for c in h.coefficients]
    value = sum(a * comp for a, comp in zip(coeffs, comps))
    margin = np.abs(value) / np.maximum(_curve_scale(comps), _TINY)
    return np.where(np.isfinite(margin), margin, np.inf)


def _margins_for_subspace(subspace: RealSubspace, curve: ExpAffineCurve, z: np.ndarray) -> np.ndarray:
    comps = _component_values([_terms(c) for c in curve.components], z)
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
    points = []
    for _ in range(plan.random_points):
        r = radius * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        points.append(complex(r * math.cos(theta), r * math.sin(theta)))
    return np.concatenate([nodes[inside], np.array(points, dtype=complex)])


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
    components = [_terms(c) for c in curve.components]
    found: list[np.ndarray] = []
    for row in _real_form_rows(subspace):

        def form_values(z: np.ndarray) -> np.ndarray:
            comps = _component_values(components, z)
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


def _targeted_for_hyperplane(s: ExpSum, plan: SamplingPlan, base: np.ndarray) -> np.ndarray:
    """Newton refinement of the composed form s from the most promising base samples.

    Zeros of a multi-term exponential sum are isolated; polishing the
    samples with the smallest composed-form modulus finds any zero that a
    coarse grid can only approach.
    """
    terms = _terms(s)
    values = np.abs(_sum_values(terms, base))
    values = np.where(np.isfinite(values), values, np.inf)
    order = np.argsort(values, kind="stable")[:_NEWTON_STARTS]
    z = base[order].copy()
    # Iterates that leave the disk may overflow to inf or nan; they are
    # dropped below, so numpy's warnings about them are noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_NEWTON_STEPS):
            fz = _sum_values(terms, z)
            dz = _sum_derivative_values(terms, z)
            safe = np.abs(dz) > _TINY
            step = np.where(safe, fz / np.where(safe, dz, 1.0), 0.0)
            z = z - step
    keep = np.isfinite(z) & (np.abs(z) <= plan.disk_radius)
    refined = z[keep]
    return refined[np.lexsort((refined.imag, refined.real))]


# ---------------------------------------------------------------------------
# entry point

def _smallest(margins: np.ndarray, samples: np.ndarray) -> tuple[float, tuple[float, float]]:
    index = int(np.argmin(margins))
    return float(margins[index]), (float(samples[index].real) + 0.0, float(samples[index].imag) + 0.0)


class Sampler:
    """The samples of one verification; the base samples are shared by its sets."""

    def __init__(self, plan: SamplingPlan) -> None:
        self.plan = plan
        self.base = _base_samples(plan)

    def hyperplane(
        self, h: ComplexHyperplane, s: ExpSum, curve: ExpAffineCurve
    ) -> tuple[float, tuple[float, float]]:
        """The smallest margin to h over the samples and where it occurs; s is h composed with curve."""
        samples = np.concatenate([self.base, _targeted_for_hyperplane(s, self.plan, self.base)])
        return _smallest(_margins_for_hyperplane(h, curve, samples), samples)

    def subspace(
        self, subspace: RealSubspace, curve: ExpAffineCurve
    ) -> tuple[float, tuple[float, float]]:
        """The smallest margin to the subspace over the samples and where it occurs."""
        samples = np.concatenate([self.base, _targeted_for_subspace(subspace, curve, self.plan)])
        return _smallest(_margins_for_subspace(subspace, curve, samples), samples)
