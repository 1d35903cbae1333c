"""Sampled evidence for real subspaces, and polynomial roots of degree 3 and more.

This is the only module of the package that imports numpy.  `verify`
loads it when a real subspace needs sampling, because no exact
certificate settles it, or when a hyperplane's zero comes from a unit
polynomial of degree 3 or more (`polynomial_roots`).  The commands that
need neither never pay for the import.

A subspace is sampled over a deterministic grid on the disk, seeded
random points in it, and targeted points: bisection onto the zero set of
each of its real forms.  Margins are the relative margins defined in
`verifier`; a non-finite margin counts as +inf.  The coefficients of the
exponential sums are converted to complex numbers once per call, not once
per evaluation.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .arrangement import RealSubspace, holomorphic_coefficients
from .curves import ExpAffineCurve, ExpSum

if TYPE_CHECKING:
    from .verifier import SamplingPlan

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


def _real_form_rows(subspace: RealSubspace) -> list[tuple[complex, complex, complex]]:
    return [tuple(c.to_complex() for c in holomorphic_coefficients(form)) for form in subspace.forms]


def _margins_for_subspace(subspace: RealSubspace, curve: ExpAffineCurve, z: np.ndarray) -> np.ndarray:
    comps = [_sum_values(_terms(c), z) for c in curve.components]
    scale = np.maximum(np.sqrt(sum(np.abs(c) ** 2 for c in comps)), _TINY)
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
            comps = [_sum_values(c, z) for c in components]
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


# ---------------------------------------------------------------------------
# entry points

def polynomial_roots(coeffs: Sequence[complex]) -> list[complex]:
    """The roots of sum coeffs[n] w^n, lowest power first."""
    return [complex(w) for w in np.roots(coeffs[::-1])]


def _smallest(margins: np.ndarray, samples: np.ndarray) -> tuple[float, tuple[float, float]]:
    index = int(np.argmin(margins))
    return float(margins[index]), (float(samples[index].real) + 0.0, float(samples[index].imag) + 0.0)


class Sampler:
    """The samples of one verification; the base samples are shared by its subspaces."""

    def __init__(self, plan: SamplingPlan) -> None:
        self.plan = plan
        self.base = _base_samples(plan)

    def subspace(
        self, subspace: RealSubspace, curve: ExpAffineCurve
    ) -> tuple[float, tuple[float, float]]:
        """The smallest margin to the subspace over the samples and where it occurs."""
        samples = np.concatenate([self.base, _targeted_for_subspace(subspace, curve, self.plan)])
        return _smallest(_margins_for_subspace(subspace, curve, samples), samples)
