"""Sampled evidence for real subspaces, and polynomial roots of degree 3 and more.

This is the only module of the package that imports numpy.  `verify` loads
it when no exact certificate settles a real subspace, or when an exact
sample needs the roots of a polynomial of degree 3 or more
(`polynomial_roots`): a polynomial in the unit, or P(z) = v for its
exponent P.  The commands that need neither never pay for the import.
Which subspaces reach the sampler, and what its verdicts are worth, is
set out in `verifier`'s docstring.

A subspace is sampled over a deterministic grid on the disk, seeded
random points in it, and targeted points: bisection onto the zero set of
each of its real forms.  Margins are the relative margins defined in
`verifier`.  The curve is evaluated by the rule of `curves.scaled_values`
applied at each point: the three components there share one factor e^top,
which margins and sign tests do not see, so exponents far outside the
float range still give finite margins.  An exponent that is itself
infinite at a sample point, say exp(z^64) on a disk of radius 10^5, is a
ValueError, as in `curves.scaled_values`.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .arrangement import RealSubspace, holomorphic_coefficients
from .curves import _SCALE_STEP, ExpAffineCurve, terms_at

if TYPE_CHECKING:
    from .verifier import SamplingPlan

_BISECT_STEPS = 60
_TINY = 1e-300


# ---------------------------------------------------------------------------
# vectorized evaluation

def _scaled_components(curve: ExpAffineCurve, z: np.ndarray) -> list[np.ndarray]:
    """The components at the points z, divided at each point by one factor e^top.

    top is the largest real exponent at that point rounded to a multiple of
    512, as in `curves.scaled_values`; it is 0 wherever every |Re x| < 256.
    Every coefficient is also divided by one power of two, 2^k with k the
    largest binary exponent of a |c|, so the largest is below 1 and |f(z)|^2
    stays in the float range for coefficients of any size; the division is
    exact, and margins and signs do not see it.  The values are finite
    wherever every exponent is.  An infinite exponent gives nan values with
    numpy warnings, so callers evaluate under np.errstate, once for many
    calls.
    """
    sums = [terms_at(c, z) for c in curve.components]
    unit = math.ldexp(1.0, -max(math.frexp(abs(c))[1] for terms in sums for c, _ in terms))
    largest = -np.inf
    for terms in sums:
        for _, x in terms:
            largest = np.maximum(largest, x.real)
    top = _SCALE_STEP * np.round(largest / _SCALE_STEP)
    values = []
    for terms in sums:
        acc = np.zeros_like(z)
        for c, x in terms:
            acc = acc + c * unit * np.exp(x - top)
        values.append(acc)
    return values


def _form_values(row: Sequence[complex], comps: list[np.ndarray]) -> np.ndarray:
    return sum(a * comp for a, comp in zip(row, comps)).real


def _margins_for_subspace(subspace: RealSubspace, curve: ExpAffineCurve, z: np.ndarray) -> np.ndarray:
    # keep z one array: numpy computes in place from 16,384 complex values, with other last bits
    with np.errstate(over="ignore", invalid="ignore"):
        comps = _scaled_components(curve, z)
    if not all(np.isfinite(c).all() for c in comps):
        raise ValueError("an exponent is beyond the float range at a sample point")
    scale = np.maximum(np.sqrt(sum(np.abs(c) ** 2 for c in comps)), _TINY)
    worst = np.zeros(z.shape)
    for form in subspace.forms:
        row = [c.to_complex() for c in holomorphic_coefficients(form)]
        worst = np.maximum(worst, np.abs(_form_values(row, comps)))
    return worst / scale


# ---------------------------------------------------------------------------
# sample generation

def _grid(plan: SamplingPlan) -> tuple[np.ndarray, np.ndarray]:
    """The square grid over the disk's bounding box, and the mask of nodes inside the disk."""
    axis = np.linspace(-plan.disk_radius, plan.disk_radius, plan.grid_points)
    grid_x, grid_y = np.meshgrid(axis, axis, indexing="ij")
    nodes = grid_x + 1j * grid_y
    return nodes, np.abs(nodes) <= plan.disk_radius


def _random_points(plan: SamplingPlan) -> np.ndarray:
    radius = plan.disk_radius
    rng = random.Random(plan.seed)
    points = []
    for _ in range(plan.random_points):
        r = radius * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        points.append(complex(r * math.cos(theta), r * math.sin(theta)))
    return np.array(points, dtype=complex)


def _targeted_for_subspace(
    subspace: RealSubspace, curve: ExpAffineCurve, nodes: np.ndarray, inside: np.ndarray
) -> np.ndarray:
    """Seed samples on the zero set of each individual defining form.

    Along every grid edge whose endpoints lie in the disk and give the form
    opposite signs, bisection localizes a crossing; these are the points
    where a conjunctive membership test is under the most stress.
    """
    comps = _scaled_components(curve, nodes)
    found: list[np.ndarray] = []
    for form in subspace.forms:
        row = [c.to_complex() for c in holomorphic_coefficients(form)]
        values = _form_values(row, comps)
        lo, hi, value_lo = [], [], []
        # edges between neighbours along the first axis, then along the second
        for a, b in ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:])):
            crossing = inside[a] & inside[b] & (values[a] * values[b] < 0)
            lo.append(nodes[a][crossing])
            hi.append(nodes[b][crossing])
            value_lo.append(values[a][crossing])
        lo, hi, value_lo = (np.concatenate(x) for x in (lo, hi, value_lo))
        if not lo.size:
            continue
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            value_mid = _form_values(row, _scaled_components(curve, mid))
            same_side = value_lo * value_mid > 0
            lo = np.where(same_side, mid, lo)
            value_lo = np.where(same_side, value_mid, value_lo)
            hi = np.where(same_side, hi, mid)
        found.append(0.5 * (lo + hi))
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
    """The samples of one verification; the grid and base samples are shared by its subspaces."""

    def __init__(self, plan: SamplingPlan) -> None:
        self.nodes, self.inside = _grid(plan)
        self.base = np.concatenate([self.nodes[self.inside], _random_points(plan)])

    def subspace(
        self, subspace: RealSubspace, curve: ExpAffineCurve
    ) -> tuple[float, tuple[float, float]]:
        """The smallest margin to the subspace over the samples and where it occurs."""
        # an infinite exponent only steers the bisection; the margins reject it
        with np.errstate(over="ignore", invalid="ignore"):
            targeted = _targeted_for_subspace(subspace, curve, self.nodes, self.inside)
        samples = np.concatenate([self.base, targeted])
        return _smallest(_margins_for_subspace(subspace, curve, samples), samples)
